"""Where the command-line output goes: stdout, or a file replaced whole.

:func:`emit` is the one writer of every output byte of the CLI; the only
other write is the error line on stderr.
"""

from __future__ import annotations

import os
import stat
import sys
import tempfile
from typing import Iterable


def emit(chunks: Iterable[str], path: str | None) -> None:
    """Write the text chunks to stdout, or to the file at ``path`` with LF
    line ends.

    A regular file, or a new one, is written under a temporary name in its
    directory and renamed over ``path`` once every chunk is written, so a
    run that fails leaves it as it was.  A new file gets the mode that
    ``open(path, "w")`` gives, an existing one keeps its mode.  Any other
    target, such as /dev/null or a pipe, is written in place.
    """
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    target = os.path.realpath(path)
    try:
        mode = os.lstat(target).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG | _new_file_mode()
    temp = None
    if stat.S_ISREG(mode):
        fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", suffix=".tmp",
                                    dir=os.path.dirname(target))
        os.fchmod(fd, stat.S_IMODE(mode))
    try:
        with open(path if temp is None else fd, "w", encoding="utf-8", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
        if temp is not None:
            os.replace(temp, target)
    except BaseException:
        if temp is not None:
            os.unlink(temp)
        raise


def _new_file_mode() -> int:
    """The permission bits ``open(path, "w")`` gives a new file: 0o666 less the umask."""
    umask = os.umask(0o022)
    os.umask(umask)
    return 0o666 & ~umask
