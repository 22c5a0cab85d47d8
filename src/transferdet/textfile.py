"""Reading the package's text files: a file that is not text in the
reading encoding is reported by its name and its first undecodable line,
like any other malformed line, instead of by the bare codec error."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator


def _line_error(line: int, message: str) -> ValueError:
    return ValueError(f"line {line}: {message}")


@contextmanager
def named_decode_errors(
    path, error: Callable[[int, str], Exception] = _line_error
) -> Iterator[None]:
    """Turn a ``UnicodeDecodeError`` raised in the block while reading
    ``path`` into ``error(line, message)``: the 1-based number of the
    first line of ``path`` its encoding cannot decode, and a message naming
    the file.  The default error is a ``ValueError`` reading
    ``line <n>: <path> is not <encoding> text``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for line, raw in enumerate(fh, start=1):
                try:
                    raw.decode(exc.encoding)
                except UnicodeDecodeError:
                    break
        raise error(line, f"{path} is not {exc.encoding} text") from exc
