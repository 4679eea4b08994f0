"""Opening the pipeline's input files: the one place a malformed file gets
its name into the error."""

import wave
from contextlib import contextmanager


class LineError(ValueError):
    """A malformed line of the file being read: `reading` reports it as
    `<path>:<n>: <msg>`."""

    def __init__(self, n, msg):
        super().__init__(f"{n}: {msg}")


@contextmanager
def reading(path, mode="r"):
    """open(path, mode) for reading.  A ValueError raised in the block
    (undecodable text and the reader's own checks included), a wave.Error or
    an EOFError comes out as ValueError("<path>: <msg>"), and a
    LineError(n, msg) as ValueError("<path>:<n>: <msg>")."""
    try:
        with open(path, mode) as fh:
            yield fh
    except (ValueError, wave.Error, EOFError) as exc:
        sep = "" if isinstance(exc, LineError) else " "
        raise ValueError(f"{path}:{sep}{str(exc) or 'file ends early'}") from None
