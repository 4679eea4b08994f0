"""Opening the pipeline's plain-text inputs."""

from contextlib import contextmanager


@contextmanager
def open_text(path):
    """open(path) for reading text.  Bytes that do not decode are a
    ValueError naming the file, like every other malformed input."""
    try:
        with open(path) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
