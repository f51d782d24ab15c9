"""How the command-line output is formatted, and where it goes: stdout,
or a file replaced whole.

:func:`format_rows` prints a float64 block as CSV lines, each value as
``"%.17g" %`` prints it.  :func:`emit` is the one writer of every output
byte of the CLI; the only other write is the error line on stderr.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
from typing import Iterable, NamedTuple

import numpy as np


def emit(chunks: Iterable[str], path: str | None) -> None:
    """Write the text chunks to stdout, or to the file at ``path`` with LF
    line ends.

    A regular file, or a new one, is written under a temporary name,
    ``.twopath-<16 hex digits>.tmp`` in its directory, and renamed over
    ``path`` once every chunk is written, so a run that fails leaves it as
    it was.  The temporary is created as ``open(path, "w")`` creates a
    file, so a new file gets the mode that gives; an existing one keeps
    its mode.  Any other target, such as /dev/null or a pipe, is written
    in place.  An error in finding or creating the file names ``path``.
    """
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    target = os.path.realpath(path)
    temp = os.path.join(os.path.dirname(target), f".twopath-{os.urandom(8).hex()}.tmp")
    try:
        try:
            mode = os.lstat(target).st_mode
        except FileNotFoundError:
            mode = None
        fd = None
        if mode is None or stat.S_ISREG(mode):
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path  # the file asked for, not its resolved or temporary name
        raise
    try:
        with open(path if fd is None else fd, "w", encoding="utf-8", newline="") as fh:
            if fd is not None and mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            for chunk in chunks:
                fh.write(chunk)
        if fd is not None:
            os.replace(temp, target)
    except BaseException:
        if fd is not None:
            os.unlink(temp)
        raise


#: Rows per sub-block of format_rows.  Its temporaries, some 200 bytes a
#: value, grow with this.  On the 20001-point scan (2 vCPU Xeon), 256-row
#: sub-blocks raised the peak RSS by ~1.1 MB over Python's "%"; 512 and
#: 1024 rows took 7% and 8% less time than 256 but added ~2 and ~4 MB,
#: and 128 rows took 9% more for 0.2 MB less.
FORMAT_ROWS = 256

# Each value's text is a subsequence of one canvas of _WIDTH bytes: a sign,
# "0.000" (the lead of 0.0ddd), the 17 digits each followed by a ".", an
# exponent "e+ddd" and the separator.  A keep mask, chosen by the value's
# sign, form and count of significant digits, picks the text out of it.
_SIGN, _LEAD, _DIGITS, _EXP, _SEP = 0, 1, 6, 40, 45
_WIDTH = 46
#: Forms: 0-20 are fixed notation for decimal exponents -4 to 16, as %.17g
#: prints them, then scientific notation with a two- and a three-digit exponent.
_FIXED_LOW, _TWO_DIGIT, _THREE_DIGIT = -4, 21, 22
_FORMS, _SIGNIFICANT = 23, 18
#: Decimal exponents of the values the formatter scales itself; the others
#: (and zero, NaN, the infinities) stay within the Dekker product's range
#: of exact splits and products, far from overflow and subnormals.
_E_LOW, _E_HIGH = -280, 280
#: A scaled value whose fraction lies within this of 1/2 is printed by
#: Python.  The computed fraction is off by at most 2^-47: the table's
#: hi + lo is 10^k to 2^-106 relative, and the product x * lo (< 12) and
#: the sum l + x * lo (< 20) are each rounded once, all below 10^17 < 2^57.
_HALF_MARGIN = 2.0**-40


class _Tables(NamedTuple):
    """Per decimal exponent E from _E_LOW to _E_HIGH: 10^(16 - E) as p_hi,
    p_lo and p_hi's halves, E's mask row offset (its form) and its ASCII
    exponent; per 4-digit group: its digits and significant-digit scores;
    and the keep masks with their lengths."""

    p_hi: np.ndarray  # 10^k rounded
    p_lo: np.ndarray  # 10^k - p_hi, rounded
    p_hi_top: np.ndarray  # p_hi split in two halves of 26 bits
    p_hi_bottom: np.ndarray
    form_rows: np.ndarray  # E's form times _SIGNIFICANT
    exponents: np.ndarray  # (n, 4) ASCII sign and 3 digits of E
    quads: np.ndarray  # the ASCII digits of 0000-9999, four bytes in a uint32
    scores: np.ndarray  # per group j and value q: 4j + 1 + q's digits up to its last nonzero one; 1 for q = 0
    keep: np.ndarray  # (2 * _FORMS * _SIGNIFICANT + 1, _WIDTH) masks, the last a separator alone
    lengths: np.ndarray  # bytes kept per mask


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: x = top + bottom, each of at most 26 significant bits."""
    c = x * 134217729.0  # 2^27 + 1
    top = c - (c - x)
    return top, x - top


def _ascii_digits(values: np.ndarray, width: int) -> np.ndarray:
    """(n, width) ASCII digits of non-negative integers, zero-padded."""
    powers = 10 ** np.arange(width - 1, -1, -1)
    return (values[:, None] // powers % 10).astype(np.uint8) + 48


@functools.cache
def _tables() -> _Tables:
    """The formatter's tables, built on its first call: the powers of ten
    from Python's exact integers, the rest in numpy."""
    p_hi, p_lo = [], []
    for k in range(16 - _E_LOW, 15 - _E_HIGH, -1):
        if k >= 0:
            exact = 10**k
            p_hi.append(float(exact))
            p_lo.append(float(exact - int(p_hi[-1])))
        else:
            den = 10**-k
            p_hi.append(1 / den)  # int / int is correctly rounded
            num, pow2 = p_hi[-1].as_integer_ratio()
            p_lo.append((pow2 - num * den) / (pow2 * den))
    p_hi, p_lo = np.array(p_hi), np.array(p_lo)
    e = np.arange(_E_LOW, _E_HIGH + 1)
    forms = np.where((e >= _FIXED_LOW) & (e <= 16), e - _FIXED_LOW,
                     np.where(np.abs(e) < 100, _TWO_DIGIT, _THREE_DIGIT))
    exponents = np.column_stack([np.where(e < 0, ord("-"), ord("+")), _ascii_digits(np.abs(e), 3)])
    quad = np.arange(10000)
    quads = _ascii_digits(quad, 4)
    significant = 4 - np.argmax(quads[:, ::-1] != 48, axis=1)
    scores = np.where(quad > 0, significant + np.arange(1, 17, 4)[:, None], 1).astype(np.int8)

    neg = np.arange(2)[:, None, None, None]
    form = np.arange(_FORMS)[None, :, None, None]
    s = np.arange(_SIGNIFICANT)[None, None, :, None]
    col = np.arange(_WIDTH)
    e = form + _FIXED_LOW
    fixed = form < _TWO_DIGIT
    point_after = np.where(fixed, np.where(e >= 0, e + 1, 0), 1)  # digits before the point
    digit = (col - _DIGITS) // 2 + 1  # which digit a digit or point column follows
    in_digits = (col >= _DIGITS) & (col < _EXP)
    keep = (
        ((col == _SIGN) & (neg == 1))
        | ((col >= _LEAD) & (col < _DIGITS) & fixed & (e < 0) & (col <= 1 - e))
        | (in_digits & ((col - _DIGITS) % 2 == 0) & ((digit <= s) | (digit <= point_after) & fixed & (e >= 0)))
        | (in_digits & ((col - _DIGITS) % 2 == 1) & (digit == point_after) & (s > digit))
        | ((col >= _EXP) & (col < _SEP) & ~fixed & ((col != _EXP + 2) | (form == _THREE_DIGIT)))
        | (col == _SEP)
    ).reshape(-1, _WIDTH)
    keep = np.vstack([keep, col == _SEP])
    tables = _Tables(p_hi, p_lo, *_split(p_hi), forms * _SIGNIFICANT, exponents,
                     quads.view(np.uint32).ravel(), scores.ravel(), keep, keep.sum(axis=1))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


@functools.cache
def _canvas(columns: int) -> np.ndarray:
    """The fixed bytes of a row's canvases: sign, lead, points, "e" and separators."""
    canvas = np.zeros((columns, _WIDTH), dtype=np.uint8)
    canvas[:, _SIGN] = ord("-")
    canvas[:, _LEAD:_DIGITS] = np.frombuffer(b"0.000", dtype=np.uint8)
    canvas[:, _DIGITS + 1:_EXP:2] = ord(".")
    canvas[:, _EXP] = ord("e")
    canvas[:, _SEP] = ord(",")
    canvas[-1, _SEP] = ord("\n")
    canvas.flags.writeable = False
    return canvas


def format_rows(block: np.ndarray) -> str:
    """The rows of an (n, columns) float64 block as LF-terminated CSV lines.

    The text is byte for byte ``(",".join(["%.17g"] * columns) + "\n") * n
    % values``: each value's 17 significant digits are Python's correctly
    rounded ones, with its trailing zeros, point and exponent as %g drops
    or writes them.  Each finite value from 1e-280 to 1e281 is scaled by
    10^(16 - E), for E its decimal exponent, in a Dekker product exact to
    ~2^-47, and rounded to the 17-digit integer D.  Python's "%" prints
    the rest: zeros aside, values out of that range, NaN and the
    infinities, and the values whose rounding the product cannot settle.
    """
    n, columns = block.shape
    return "".join(_format_values(block[lo:lo + FORMAT_ROWS], columns)
                   for lo in range(0, n, FORMAT_ROWS))


def _format_values(rows: np.ndarray, columns: int) -> str:
    t = _tables()
    x = rows.ravel()
    zero = x == 0.0
    d, i, ok = _seventeen_digits(np.abs(x), t)

    # D's 17 digits: its lead, then four groups of four.
    lead, rest = np.divmod(d, 10**16)
    halves = np.empty((x.size, 2), dtype=np.int64)
    halves[:, 0], halves[:, 1] = np.divmod(rest, 10**8)
    quads = np.empty((x.size, 2, 2), dtype=np.int64)
    quads[..., 0], quads[..., 1] = np.divmod(halves, 10**4)
    quads = quads.reshape(-1, 4)
    # The last nonzero group's score is the count of significant digits,
    # and the lead's one if every group is zero.
    scores = t.scores.take(quads + np.arange(0, 40000, 10000))
    significant = np.maximum(np.maximum(scores[:, 0], scores[:, 1]), np.maximum(scores[:, 2], scores[:, 3]))
    mask = t.form_rows.take(i) + significant + np.signbit(x) * (_FORMS * _SIGNIFICANT)
    fallback = np.flatnonzero(~(ok | zero))
    mask[fallback] = len(t.keep) - 1

    canvas = np.empty((rows.shape[0], columns, _WIDTH), dtype=np.uint8)
    canvas[:] = _canvas(columns)
    canvas = canvas.reshape(-1, _WIDTH)
    canvas[:, _DIGITS] = lead + (48 - zero)  # a zero is scaled as 1
    canvas[:, _DIGITS + 2:_EXP:2] = t.quads.take(quads).view(np.uint8)
    canvas[:, _EXP + 1:_SEP] = t.exponents.take(i, axis=0)
    keep = t.keep.take(mask, axis=0)
    text = np.compress(keep.ravel(), canvas.ravel()).tobytes().decode("ascii")

    if not fallback.size:
        return text
    ends = np.cumsum(t.lengths.take(mask))[fallback] - 1  # each value's separator
    return _splice(text, ends.tolist(), x[fallback].tolist())


def _seventeen_digits(mag: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each magnitude's 17-digit integer D and the table row of its decimal
    exponent E, and whether they hold; D = 10^16 with E = 0 where the
    magnitude is not scaled."""
    scaled = (mag >= 10.0**_E_LOW) & (mag < 10.0**(_E_HIGH + 1))
    safe = np.where(scaled, mag, 1.0)
    i = np.clip(np.floor(np.log10(safe)).astype(np.int64) - _E_LOW, 0, _E_HIGH - _E_LOW)  # E's row
    # S = safe * 10^(16 - E) as h + v: h the rounded product with p_hi,
    # an integer since S >= 10^16 > 2^53, and v its small remainder.
    h = safe * t.p_hi.take(i)
    top, bottom = _split(safe)
    hi_top, hi_bottom = t.p_hi_top.take(i), t.p_hi_bottom.take(i)
    v = ((top * hi_top - h) + top * hi_bottom + bottom * hi_top) + bottom * hi_bottom
    v += safe * t.p_lo.take(i)
    whole = np.floor(v)
    frac = v - whole
    # D = round(S) for S in [10^16, 10^17 - 1): out of it, E is off by one
    # or S may round up to 10^17, and Python prints the value.
    d = h.astype(np.int64) + whole.astype(np.int64)  # floor(S)
    ok = scaled & ((d - 10**16).view(np.uint64) < 9 * 10**16 - 1) & (np.abs(frac - 0.5) > _HALF_MARGIN)
    d += frac > 0.5
    return d, i, ok


def _splice(text: str, ends: list[int], values: list[float]) -> str:
    """The text with ``"%.17g" % value`` put in at each end, in order."""
    pieces, start = [], 0
    for end, value in zip(ends, values):
        pieces += [text[start:end], "%.17g" % value]
        start = end
    pieces.append(text[start:])
    return "".join(pieces)
