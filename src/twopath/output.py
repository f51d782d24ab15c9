"""How the command-line output is formatted, and where it goes: stdout,
or a file replaced whole.

:func:`format_rows` prints a float64 block as CSV lines, each value as
``"%.17g" %`` prints it, and one column, if asked, as a text chosen per
row; it prints both CSVs, each value as six 8-byte table words whose
unkept bytes it zeroes and drops in one ``bytes.translate``.  :func:`emit`
is the one writer of every output byte of the CLI; the only other write
is the error line on stderr.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
from typing import Iterable, Iterator, NamedTuple, Sequence

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


#: Values per sub-block of format_rows, which takes as many whole rows as
#: fit, at least one; its temporaries, ~240 bytes a value, grow with this.
#: 1792 values are scan's 256 rows of 7 and sample's 149 of 12.  On a 2 vCPU
#: Xeon, in-process, the 20001-point scan took 21.3 ms; 128 rows 13% more
#: and 512 rows 8% more, for ~0.2 MB more peak RSS.  The 4002-row sample
#: of 1000 shots took 23.5 ms; 74 or 298 rows, 3% or 4% more.
FORMAT_VALUES = 1792

# Each value's text is a subsequence of one canvas of _WIDTH bytes, six
# words: a sign, "0.000" (the lead of 0.0ddd), the 17 digits each followed
# by a ".", an exponent "e+ddd", the separator and 2 pad bytes.  Its keep
# mask, by sign, form and count of significant digits, is 0xFF on its bytes.
_SIGN, _LEAD, _DIGITS, _EXP, _SEP = 0, 1, 6, 40, 45
_WIDTH, _WORDS = 48, 6
#: Forms: 0-20 are fixed notation for decimal exponents -4 to 16, as %.17g
#: prints them, then scientific notation with a two- and a three-digit exponent.
_FIXED_LOW, _TWO_DIGIT, _THREE_DIGIT = -4, 21, 22
_FORMS, _SIGNIFICANT = 23, 18
#: The keep masks of the forms come first, for each sign; then, from row
#: _PREFIX + L on, the first L bytes and the separator, for L below _SEP:
#: a text of L bytes, or with L = 0 the separator after a value Python prints.
_PREFIX = 2 * _FORMS * _SIGNIFICANT
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
    """Per decimal exponent E from _E_LOW to _E_HIGH: 10^(16 - E), E's mask
    row offset (its form) and word; the other words, built from bytes in
    any byte order; the groups' scores; and the keep masks."""

    powers: np.ndarray  # (n, 4): 10^k rounded (hi), 10^k - hi rounded, hi's halves
    form_rows: np.ndarray  # E's form times _SIGNIFICANT
    exponents: np.ndarray  # word 5 of E: "e+ddd"
    leads: np.ndarray  # word 0 per first digit: "-0.000d."
    quads: np.ndarray  # words 1-4 per group 0000-9999: "d.d.d.d."
    scores: np.ndarray  # per group j and value q: 4j + 1 + q's digits up to its last nonzero one; 1 for q = 0
    separators: np.ndarray  # word 5's "," and "\n"
    keep: np.ndarray  # (_PREFIX + _SEP, _WORDS) masks: the forms', then the prefixes
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
    from Python's exact integers, the rest from bytes and numpy."""
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
    powers = np.column_stack([p_hi, p_lo, *_split(np.array(p_hi))])
    e = np.arange(_E_LOW, _E_HIGH + 1)
    forms = np.where((e >= _FIXED_LOW) & (e <= 16), e - _FIXED_LOW,
                     np.where(np.abs(e) < 100, _TWO_DIGIT, _THREE_DIGIT))
    exponents = np.frombuffer(b"".join(b"e%+04d\0\0\0" % k for k in e.tolist()), np.uint64)
    leads = np.frombuffer(b"".join(b"-0.000%d." % k for k in range(10)), np.uint64)
    quad = np.arange(10000)
    digits = _ascii_digits(quad, 4)
    quads = np.full((quad.size, 8), ord("."), dtype=np.uint8)
    quads[:, ::2] = digits
    significant = 4 - np.argmax(digits[:, ::-1] != 48, axis=1)
    scores = np.where(quad > 0, significant + np.arange(1, 17, 4)[:, None], 1).astype(np.int8)
    separators = np.frombuffer(b"".join(b"\0\0\0\0\0%c\0\0" % c for c in b",\n"), np.uint64)

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
    prefixes = (col < np.arange(_SEP)[:, None]) | (col == _SEP)
    keep = np.vstack([keep, prefixes])
    tables = _Tables(powers, forms * _SIGNIFICANT, exponents, leads, quads.view(np.uint64).ravel(),
                     scores.ravel(), separators, (keep * np.uint8(0xFF)).view(np.uint64), keep.sum(axis=1))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def format_rows(block: np.ndarray, text: tuple[int, Sequence[str]] | None = None) -> Iterator[str]:
    """The rows of an (n, columns) float64 block as LF-terminated CSV lines,
    yielded in chunks of whole rows, one per sub-block of FORMAT_VALUES.

    Joined, the chunks are byte for byte ``(",".join(["%.17g"] * columns)
    + "\n") * n % values``: each value's 17 significant digits are Python's
    correctly rounded ones, with its trailing zeros, point and exponent as
    %g drops or writes them.  Each finite value from 1e-280 to 1e281 is
    scaled by 10^(16 - E), for E its decimal exponent, in a Dekker product
    exact to ~2^-47, and rounded to the 17-digit integer D.  Python's "%"
    prints the rest: zeros aside, values out of that range, NaN and the
    infinities, and the values whose rounding the product cannot settle.

    With ``text = (column, texts)``, that column holds indices into
    ``texts``, ASCII strings of fewer than 45 bytes with no NUL (others
    raise ValueError), and each row prints its text there, as ``%s`` would.
    """
    n, columns = block.shape
    texts = None
    if text is not None:
        column, strings = text
        encoded = [s.encode("ascii") for s in strings]
        if max(map(len, encoded)) >= _SEP or any(b"\0" in b for b in encoded):
            raise ValueError(f"texts must be shorter than {_SEP} bytes, with no NUL, got {strings!r}")
        texts = (column, np.array([len(b) for b in encoded]),
                 np.frombuffer(b"".join(b.ljust(_SEP, b"\0") for b in encoded), np.uint8).reshape(-1, _SEP))
    separators = _tables().separators[[0] * (columns - 1) + [1]]
    rows = max(1, FORMAT_VALUES // columns)
    for lo in range(0, n, rows):
        yield _format_values(block[lo:lo + rows], separators, texts)


def _format_values(rows: np.ndarray, separators: np.ndarray, texts) -> str:
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
    fallback = np.flatnonzero(~(ok | zero))  # never a text's index, a small integer
    mask[fallback] = _PREFIX

    n, columns = rows.shape
    canvas = np.empty((n, columns, _WORDS), dtype=np.uint64)
    flat = canvas.reshape(-1, _WORDS)
    # zero is scaled as 1; a lead of 10 (E too low) is not printed
    flat[:, 0] = t.leads.take(lead - zero, mode="clip")
    flat[:, 1:5] = t.quads.take(quads)
    np.bitwise_or(t.exponents.take(i).reshape(n, columns), separators, out=canvas[..., 5])
    if texts is not None:
        column, lengths, encoded = texts
        index = rows[:, column].astype(np.intp)
        canvas.view(np.uint8).reshape(n, columns, _WIDTH)[:, column, :_SEP] = encoded.take(index, axis=0)
        mask.reshape(n, columns)[:, column] = _PREFIX + lengths.take(index)
    # no kept byte is NUL: format_rows refuses texts with one
    flat &= t.keep.take(mask, axis=0)
    text = flat.tobytes().translate(None, b"\0").decode("ascii")

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
    e = np.floor(np.log10(safe))
    e.clip(_E_LOW, _E_HIGH, out=e)  # int64 np.clip runs Python checks
    i = (e - _E_LOW).astype(np.intp)  # E's row
    p_hi, p_lo, hi_top, hi_bottom = t.powers.take(i, axis=0).T
    # S = safe * 10^(16 - E) as h + v: h the rounded product with p_hi,
    # an integer since S >= 10^16 > 2^53, and v its small remainder.
    h = safe * p_hi
    top, bottom = _split(safe)
    v = ((top * hi_top - h) + top * hi_bottom + bottom * hi_top) + bottom * hi_bottom
    v += safe * p_lo
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
