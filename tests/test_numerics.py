import numpy as np
import pytest

from transferdet.numerics import (
    PROB_FLOOR,
    column_softmax,
    grad_check,
    sigmoid,
)


def softmax(logits):
    """The softmax of a vector, through ``column_softmax`` of one column."""
    return column_softmax(np.asarray(logits, dtype=float)[:, None])[:, 0]


def test_softmax_symmetric_pair():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_constant_vector():
    for c in (-7.0, 0.0, 3.5):
        np.testing.assert_allclose(softmax([c, c, c]), [1 / 3] * 3, atol=1e-15)


def test_softmax_large_magnitudes_no_overflow():
    p = softmax([1000.0, 0.0])
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0, abs=1e-300)
    q = softmax([-1000.0, 0.0, 1000.0])
    assert np.all(np.isfinite(q))
    assert q.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_shift_invariance_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        logits = rng.standard_normal(int(rng.integers(1, 9)))
        shift = rng.uniform(-50, 50)
        np.testing.assert_allclose(
            softmax(logits + shift), softmax(logits), atol=1e-12
        )


def test_softmax_outputs_are_probabilities():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = softmax(rng.uniform(-30, 30, size=int(rng.integers(1, 12))))
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax([0.0, np.nan])
    with pytest.raises(ValueError):
        softmax([np.inf, 0.0])


def test_column_softmax_matches_per_column():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((5, 7))
    cols = column_softmax(logits)
    for k in range(7):
        e = np.exp(logits[:, k])
        np.testing.assert_allclose(cols[:, k], e / e.sum(), atol=1e-15)


def test_column_softmax_empty_matrix():
    out = column_softmax(np.zeros((4, 0)))
    assert out.shape == (4, 0)


def test_column_softmax_rejects_wrong_rank():
    with pytest.raises(ValueError):
        column_softmax(np.zeros(3))


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    assert sigmoid(1000.0) == pytest.approx(1.0)
    assert isinstance(sigmoid(0.3), float)


def test_sigmoid_symmetry():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-40, 40, size=200):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-15)


def test_sigmoid_monotone():
    xs = np.linspace(-20, 20, 400)
    ys = sigmoid(xs)
    assert np.all(np.diff(ys) >= 0)
    assert np.all((ys > 0) & (ys < 1))


def test_grad_check_passes_quadratic():
    report = grad_check(lambda x: float(x) ** 2, 6.0, 3.0)
    assert report.passed
    assert report.max_relative_error <= 1e-6


def test_grad_check_flags_wrong_gradient():
    report = grad_check(lambda x: float(x) ** 2, 5.0, 3.0)
    assert not report.passed
    # |5 - 6| / max(1, 5 + 6)
    assert report.max_relative_error == pytest.approx(1.0 / 11.0, rel=1e-6)
    assert report.worst_coordinate == 0


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        logits = rng.standard_normal(6)
        target = np.zeros(6)
        target[rng.integers(0, 6)] = 1.0

        def f(z):
            return float(-np.log(np.maximum(softmax(z), PROB_FLOOR)) @ target)

        analytic = softmax(logits) - target
        report = grad_check(f, analytic, logits)
        assert report.passed, report


def test_grad_check_reports_non_finite_probe():
    def f(x):
        if x[0] < 0.0:
            return float("nan")
        return float(x[0] + x[1])

    point = np.array([5e-6, 1.0])  # x0 - step crosses into the nan region
    with pytest.raises(ValueError, match="coordinate 0"):
        grad_check(f, np.array([1.0, 1.0]), point)


def test_grad_check_rejects_bad_step_and_shape():
    with pytest.raises(ValueError):
        grad_check(lambda x: 0.0, np.zeros(2), np.zeros(2), step=0.0)
    with pytest.raises(ValueError):
        grad_check(lambda x: 0.0, np.zeros(3), np.zeros(2))
