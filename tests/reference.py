"""From-scratch oracle implementations the tests compare against.

Everything here is written with plain Python loops straight from the
definitions: scene sampling with one scalar draw per coordinate and
per-box proposal deduplication, per-box ROI pooling, proposal labelling,
greedy NMS,
threshold-band pseudo-labelling and the shape of its output, the weak-stage
loss one classifier at a time, per-block Adam, VOC matching (one class, or
every class of an evaluation from scalar IoUs), average precision and the
text of a scene set file built whole.  Slow on purpose; nothing imports the
package.
"""

import numpy as np


def ref_iou(a, b):
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    w = min(ax2, bx2) - max(ax1, bx1)
    h = min(ay2, by2) - max(ay1, by1)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


# The values of transferdet.synthworld's sampling constants.
REF_BOX_MIN_SIZE = 0.22
REF_BOX_MAX_SIZE = 0.30
REF_GT_MAX_OVERLAP = 0.3
REF_PROPOSAL_NMS_THRESHOLD = 0.75
REF_CLASS_REPEAT_AFFINITY = 0.5


def ref_sample_box(rng):
    """One random box: width, height, x1 and y1, one scalar draw each."""
    w = rng.uniform(REF_BOX_MIN_SIZE, REF_BOX_MAX_SIZE)
    h = rng.uniform(REF_BOX_MIN_SIZE, REF_BOX_MAX_SIZE)
    x1 = rng.uniform(0.0, 1.0 - w)
    y1 = rng.uniform(0.0, 1.0 - h)
    return (x1, y1, x1 + w, y1 + h)


def ref_jitter_box(rng, box, jitter):
    """Each side moved by a scalar uniform fraction of the box's extent, in
    the order x1, x2, y1, y2, and clipped to [0, 1]; no draw at zero
    jitter."""
    if jitter == 0.0:
        return box
    x1, y1, x2, y2 = box
    w, h = x2 - x1, y2 - y1
    nx1 = min(max(x1 + rng.uniform(-jitter, jitter) * w, 0.0), 1.0)
    nx2 = min(max(x2 + rng.uniform(-jitter, jitter) * w, 0.0), 1.0)
    ny1 = min(max(y1 + rng.uniform(-jitter, jitter) * h, 0.0), 1.0)
    ny2 = min(max(y2 + rng.uniform(-jitter, jitter) * h, 0.0), 1.0)
    return (nx1, ny1, nx2, ny2)


def ref_sample_scene(world, domain, rng):
    """A scene drawn as the scene sampler defines it, one scalar draw and
    one box at a time: the object count and classes, GT boxes
    rejection-sampled to pairwise IoU at most 0.3, the grid painted cell by
    cell, then the proposals: the jittered GT boxes, then 2K pool boxes
    visited by descending uniform score (ties by index), each kept iff it
    overlaps no proposal kept so far above 0.75 until K are held, then
    fresh boxes up to K.  ``world`` needs ``config``, ``prototypes``,
    ``prototype_index`` and ``background_prototype``.  Returns the grid,
    the GT as (class, corners) pairs, the proposal corner tuples and the
    image label as a list."""
    cfg = world.config
    k = cfg.proposals_per_scene
    num_classes = cfg.num_source_classes if domain == "source" else cfg.num_target_classes
    lo, hi = cfg.objects_per_scene
    n = int(rng.integers(lo, hi + 1))
    classes = [int(rng.integers(0, num_classes))]
    for _ in range(n - 1):
        if rng.uniform() < REF_CLASS_REPEAT_AFFINITY:
            classes.append(classes[-1])
        else:
            classes.append(int(rng.integers(0, num_classes)))
    boxes = []
    for _ in range(n):
        box = ref_sample_box(rng)
        for _ in range(200):
            if all(ref_iou(box, other) <= REF_GT_MAX_OVERLAP for other in boxes):
                break
            box = ref_sample_box(rng)
        boxes.append(box)
    height, width, dim = cfg.grid_height, cfg.grid_width, cfg.raw_dim
    noise = rng.standard_normal((height, width, dim))
    grid = np.zeros((height, width, dim))
    for i in range(height):
        for j in range(width):
            cx, cy = (j + 0.5) / width, (i + 0.5) / height
            covered = False
            for cls, (x1, y1, x2, y2) in zip(classes, boxes):
                if x1 <= cx <= x2 and y1 <= cy <= y2:
                    grid[i, j] += world.prototypes[world.prototype_index(domain, cls)]
                    covered = True
            if not covered:
                grid[i, j] += cfg.clutter_sigma * world.background_prototype
            grid[i, j] += cfg.noise_sigma * noise[i, j]
    proposals = [ref_jitter_box(rng, box, cfg.jitter) for box in boxes]
    pool = [ref_sample_box(rng) for _ in range(2 * k)]
    scores = rng.uniform(0.0, 1.0, size=len(pool))
    for i in sorted(range(len(pool)), key=lambda i: (-scores[i], i)):
        if len(proposals) >= k:
            break
        if all(ref_iou(pool[i], kept) <= REF_PROPOSAL_NMS_THRESHOLD for kept in proposals):
            proposals.append(pool[i])
    while len(proposals) < k:
        proposals.append(ref_sample_box(rng))
    label = [int(c in classes) for c in range(num_classes)]
    return grid, list(zip(classes, boxes)), proposals, label


def ref_pool(raw_grid, boxes):
    """Per-box ROI pooling: the mean raw vector of the cells whose center
    the box covers, or of the single cell nearest the box center when it
    covers none.  Boxes are (x1, y1, x2, y2) tuples."""
    height, width, dim = raw_grid.shape
    flat = raw_grid.reshape(height * width, dim)
    ys = (np.arange(height) + 0.5) / height
    xs = (np.arange(width) + 0.5) / width
    rows = []
    for x1, y1, x2, y2 in boxes:
        covered = np.outer((ys >= y1) & (ys <= y2), (xs >= x1) & (xs <= x2))
        idx = np.nonzero(covered.ravel())[0]
        if not idx.size:
            cx = 0.5 * (x1 + x2)
            cy = 0.5 * (y1 + y2)
            d2 = (ys[:, None] - cy) ** 2 + (xs[None, :] - cx) ** 2
            idx = np.array([int(np.argmin(d2.ravel()))])
        rows.append(flat[idx].mean(axis=0))
    return np.array(rows).reshape(-1, dim)


def ref_proposal_labels(proposals, gt, num_classes, threshold):
    """Class per proposal by a scalar IoU scan over the GT in order: a GT
    box strictly improving the best overlap so far, with that overlap above
    the threshold, labels the proposal; otherwise it stays background.
    proposals: (x1, y1, x2, y2) tuples; gt: (class, tuple) pairs."""
    labels = [num_classes] * len(proposals)
    for k, prop in enumerate(proposals):
        best = 0.0
        for cls, box in gt:
            v = ref_iou(prop, box)
            if v > best:
                best = v
                if best > threshold:
                    labels[k] = cls
    return labels


def ref_nms(boxes, scores, threshold, max_keep):
    """Greedy suppression: visit by descending score (ties: lower index),
    keep a box iff it overlaps no kept box above the threshold."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if len(kept) >= max_keep:
            break
        if all(ref_iou(boxes[i], boxes[j]) <= threshold for j in kept):
            kept.append(i)
    return kept


def ref_label(scores, boxes, y_img, phi_obj, phi_bg, mode):
    """Pseudo-label matrix built step by step: per present class pick the
    top-scoring proposal, label everything overlapping it above phi_obj
    with that class, then handle the rest per labeller.

    mode "support": proposals inside some class band (phi_bg, phi_obj)
    become background, everything else stays an all-zero column.
    mode "oicr": every unassigned proposal becomes background weighted
    by the largest top-proposal score.
    A proposal whose best claim weighs exactly 0.0 counts as unassigned.
    """
    rows, num = np.asarray(scores).shape
    bg = rows - 1
    present = [c for c in range(bg) if y_img[c]]
    tops = {}
    for c in present:
        j = 0
        for k in range(1, num):
            if scores[c][k] > scores[c][j]:
                j = k
        tops[c] = (j, float(scores[c][j]))

    pseudo = np.zeros((rows, num))
    assigned = [None] * num
    for k in range(num):
        for c in present:
            j, s = tops[c]
            if ref_iou(boxes[k], boxes[j]) > phi_obj:
                if assigned[k] is None or s > assigned[k][1]:
                    assigned[k] = (c, s)
    for k in range(num):
        if assigned[k] is not None and assigned[k][1] != 0.0:
            c, s = assigned[k]
            pseudo[c, k] = s
        elif mode == "oicr":
            pseudo[bg, k] = max(s for _, s in tops.values())
        else:
            w = 0.0
            for c in present:
                j, s = tops[c]
                ov = ref_iou(boxes[k], boxes[j])
                if phi_bg < ov < phi_obj and s > w:
                    w = s
            if w > 0.0:
                pseudo[bg, k] = w
    return pseudo


def ref_softmax(logits):
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_wstd_loss(backbone, sdk_head, rol_heads, raw_means, teacher, boxes, y_img,
                  member):
    """One member's weak-stage loss, one classifier at a time: distillation,
    then classifier 1 on the image label, then each later classifier on
    labels mined by :func:`ref_label` from the previous one's softmax, the
    feature gradient summed in that order.  ``member`` holds ``lam_sdk``,
    ``lam_rol``, ``weighted``, ``phi_obj``, ``phi_bg`` and ``mode`` (as for
    ref_label).  Returns the loss components, the gradients (``rol_heads``
    as a list) and the mined labels."""
    features = raw_means @ backbone.T

    def forward(weights):
        return weights[:, :-1] @ features.T + weights[:, -1:]

    def backward(weights, dlogits):
        dweights = np.empty_like(weights)
        dweights[:, :-1] = dlogits @ features
        dweights[:, -1] = dlogits.sum(axis=-1)
        return dweights, dlogits.T @ weights[:, :-1]

    def cross_entropy(logits, target):
        probs = ref_softmax(logits)
        value = -(target * np.log(np.maximum(probs, 1e-12))).sum()
        return value, probs * target.sum(axis=0, keepdims=True) - target

    target = teacher * teacher if member["weighted"] else teacher
    sdk_val, dsdk = cross_entropy(forward(sdk_head), target)
    dsdk_head, dfeatures = backward(sdk_head, member["lam_sdk"] * dsdk)

    comps = {"sdk": sdk_val}
    values, dheads, pseudo = [], [], []
    prev_probs = None
    for i, weights in enumerate(rol_heads):
        logits = forward(weights)
        if i == 0:
            z = logits[:-1].sum(axis=-1)
            value = (np.logaddexp(0.0, z) - y_img * z).sum()
            dlogits = np.zeros_like(logits)
            dlogits[:-1] = (ref_sigmoid(z) - y_img)[:, None]
        else:
            labels = ref_label(prev_probs, boxes, y_img, member["phi_obj"],
                               member["phi_bg"], member["mode"])
            pseudo.append(labels)
            value, dlogits = cross_entropy(logits, labels)
        dhead, dfeat = backward(weights, member["lam_rol"] * dlogits)
        dheads.append(dhead)
        dfeatures = dfeatures + dfeat
        prev_probs = ref_softmax(logits)
        values.append(value)
        comps[f"rol_{i + 1}"] = value
    comps["rol"] = sum(values)
    comps["total"] = member["lam_sdk"] * sdk_val + member["lam_rol"] * comps["rol"]
    grads = {
        "backbone": dfeatures.T @ raw_means,
        "sdk_head": dsdk_head,
        "rol_heads": dheads,
    }
    return comps, grads, pseudo


def check_pseudo_matrix(pseudo):
    """Validate pseudo labels: every column is all zero or holds a single
    entry in (0, 1].  Returns the matrix as floats."""
    pseudo = np.asarray(pseudo, dtype=float)
    if pseudo.ndim != 2:
        raise ValueError(f"pseudo matrix must be 2-D, got shape {pseudo.shape}")
    if np.any(pseudo < 0):
        raise ValueError("pseudo matrix has negative entries")
    for k in range(pseudo.shape[1]):
        nz = np.nonzero(pseudo[:, k])[0]
        if nz.size > 1:
            raise ValueError(f"pseudo column {k} has {nz.size} nonzero entries")
        if nz.size == 1 and not (0.0 < pseudo[nz[0], k] <= 1.0):
            raise ValueError(f"pseudo column {k} weight {pseudo[nz[0], k]} outside (0, 1]")
    return pseudo


def ref_adam_train(params, loss_fn, order, opt):
    """Adam with one update per named parameter block, the learning rate
    dropping once at 2/3 of the steps; returns the final blocks and each
    step's loss components.  ``loss_fn(params, grads, scene)`` writes each
    block's gradient into a fresh array of ``grads`` and returns the
    components."""
    params = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    decay_at = (2 * len(order)) // 3
    history = []
    for step, scene in enumerate(order):
        grads = {name: np.empty_like(p) for name, p in params.items()}
        comps = loss_fn(params, grads, scene)
        history.append(comps)
        lr = opt.learning_rate * (opt.lr_decay_factor if step >= decay_at else 1.0)
        t = step + 1
        for name, p in params.items():
            g = grads[name] + opt.weight_decay * p
            m[name] = opt.beta1 * m[name] + (1.0 - opt.beta1) * g
            v[name] = opt.beta2 * v[name] + (1.0 - opt.beta2) * g * g
            m_hat = m[name] / (1.0 - opt.beta1**t)
            v_hat = v[name] / (1.0 - opt.beta2**t)
            params[name] = p - lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)
    return params, history


def ref_match(dets, gts, threshold):
    """VOC-style matching for one class.

    dets: list of (scene_id, score, box) in insertion order.
    gts: list of (scene_id, box).
    Returns TP flags in descending-score visit order.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    taken = [False] * len(gts)
    flags = []
    for i in order:
        scene, _, box = dets[i]
        best, best_iou = None, 0.0
        for g, (gscene, gbox) in enumerate(gts):
            if gscene != scene or taken[g]:
                continue
            ov = ref_iou(box, gbox)
            if ov > best_iou:
                best, best_iou = g, ov
        if best is not None and best_iou > threshold:
            taken[best] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def ref_ap(flags, total_gt, method):
    tp = 0
    points = []
    for n, flag in enumerate(flags, start=1):
        tp += bool(flag)
        points.append((tp, tp / n))
    if method == "voc07_11point":
        total = 0.0
        for i in range(11):
            # recall tp/total_gt >= i/10, compared in exact integer form
            best = [p for tp, p in points if 10 * tp >= i * total_gt]
            total += max(best, default=0.0)
        return total / 11.0
    recalls = [tp / total_gt for tp, _ in points]
    precisions = [p for _, p in points]
    mrec = [0.0] + recalls + [1.0]
    mpre = [0.0] + precisions + [0.0]
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    area = 0.0
    for i in range(len(mrec) - 1):
        if mrec[i + 1] != mrec[i]:
            area += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
    return area


def random_boxes(rng, count, lo=0.05, hi=0.4):
    boxes = []
    for _ in range(count):
        w = rng.uniform(lo, hi)
        h = rng.uniform(lo, hi)
        x1 = rng.uniform(0.0, 1.0 - w)
        y1 = rng.uniform(0.0, 1.0 - h)
        boxes.append((x1, y1, x1 + w, y1 + h))
    return boxes


def ref_evaluate_flags(dets, ground_truths, num_classes, threshold):
    """Per class, the (TP flags, GT count) of the per-detection scalar-IoU
    evaluation, or None for a class without ground truth.

    dets: list of (scene_id, class, score, box) in insertion order.
    ground_truths: {scene_id: [(class, box), ...]}.
    """
    out = []
    for c in range(num_classes):
        gts = [
            (scene, box)
            for scene, entries in ground_truths.items()
            for cls, box in entries
            if cls == c
        ]
        if not gts:
            out.append(None)
            continue
        class_dets = [(scene, score, box) for scene, cls, score, box in dets if cls == c]
        out.append((ref_match(class_dets, gts, threshold), len(gts)))
    return out


SCENE_CONFIG_FIELDS = (
    "num_source_classes", "num_target_classes", "raw_dim", "grid_height",
    "grid_width", "noise_sigma", "clutter_sigma", "jitter",
    "proposals_per_scene", "objects_per_scene", "seed",
)


def ref_scene_set_text(config, scenes):
    """The whole text of a scene set file, every line collected before one
    join: the magic line, ``seed``, one ``config`` line per field (floats by
    repr), ``count``, then per scene its ``scene`` line, one ``cell`` row
    per grid cell in row-major order, ``gt`` and ``prop`` lines of corners
    and the ``label`` line."""
    lines = ["# transferdet scene set v1", f"seed {config.seed}"]
    for name in SCENE_CONFIG_FIELDS:
        value = getattr(config, name)
        if name == "objects_per_scene":
            lines.append(f"config {name} {value[0]} {value[1]}")
        elif isinstance(value, float):
            lines.append(f"config {name} {value!r}")
        else:
            lines.append(f"config {name} {value}")
    lines.append(f"count {len(scenes)}")
    for idx, scene in enumerate(scenes):
        lines.append(
            f"scene {idx} {scene.annotation_mode} {scene.domain} "
            f"{len(scene.gt)} {len(scene.proposals)} {len(scene.image_label)}"
        )
        height, width, dim = scene.raw_grid.shape
        for i in range(height):
            for j in range(width):
                lines.append(
                    "cell " + " ".join(repr(float(v)) for v in scene.raw_grid[i, j])
                )
        for cls, box in scene.gt:
            corners = (box.x1, box.y1, box.x2, box.y2)
            lines.append(f"gt {cls} " + " ".join(repr(float(v)) for v in corners))
        for corners in scene.proposals:
            lines.append("prop " + " ".join(repr(float(v)) for v in corners))
        lines.append("label " + " ".join(str(int(v)) for v in scene.image_label))
    return "\n".join(lines) + "\n"
