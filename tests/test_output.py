"""format_rows against Python's own "%.17g", the oracle it replaces."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from support import count_calls
from twopath import output
from twopath.cli import SCAN_COLUMNS, RunConfig
from twopath.interferometer import interference_scan
from twopath.output import format_rows


def formatted(block, text=None):
    """format_rows' chunks, joined."""
    return "".join(format_rows(block, text))


def percent_rows(block, text=None):
    """What ``%`` makes of the block: the text format_rows must match, with
    ``text = (column, texts)`` printing texts[index] in that column."""
    n, columns = block.shape
    formats = ["%.17g"] * columns
    values = block.tolist()
    if text is not None:
        column, texts = text
        formats[column] = "%s"
        for row in values:
            row[column] = texts[int(row[column])]
    return ((",".join(formats) + "\n") * n) % tuple(v for row in values for v in row)


def assert_matches(values, columns=7):
    """format_rows on the values, padded with 0.5 to whole rows, with every
    floating-point error raised, underflow included."""
    values = np.asarray(values, dtype=np.float64).ravel()
    block = np.concatenate([values, np.full(-values.size % columns, 0.5)]).reshape(-1, columns)
    with np.errstate(all="raise"):
        text = formatted(block)
    want = percent_rows(block)
    if text != want:
        got = text.split("\n")
        diffs = [(w, g) for w, g in zip(want.split("\n"), got) if w != g]
        pytest.fail(f"{len(diffs)} lines differ, first {diffs[:1]}")


def ulps_around(centre, ulps=200):
    """The doubles within ``ulps`` steps of a positive double, both signs."""
    bits = np.float64(centre).view(np.int64) + np.arange(-ulps, ulps + 1)
    near = bits.view(np.float64)
    return np.concatenate([near, -near])


def dyadic_ties(digits):
    """m / 2^k, m odd, whose decimal expansion has exactly ``digits``
    significant digits: with 18 the 17th digit is a tie for round-half-even,
    with 19 the 18th is."""
    ties = []
    for k in range(1, 90):
        for m in range(1, 2000, 2):
            x = math.ldexp(m, -k)
            if len(Decimal(x).normalize().as_tuple().digits) == digits:
                ties.append(x)
    return ties


class TestMatchesPercent:
    @settings(max_examples=300)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 9)),
                      elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    @example(np.array([[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]]))
    @example(np.array([[9.9999999999999997e-29, 1e-28, 1e16, 1e17, 1e-5, 1e-4, 123.0]]))
    def test_hypothesis_floats(self, block):
        with np.errstate(all="raise"):
            text = formatted(block)
        assert text == percent_rows(block)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
    def test_random_bit_patterns(self, bits):
        assert_matches(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_around_every_power_of_ten(self):
        # log10 rounds to the wrong exponent within an ulp or so of 10^E;
        # 9.9999999999999997e-29 once printed as 1e-28
        assert_matches(np.concatenate([ulps_around(float(f"1e{e}")) for e in range(-45, 46)]))

    def test_around_the_ends_of_the_scaled_range(self):
        ends = (float(f"1e{output._E_LOW}"), float(f"1e{output._E_HIGH + 1}"))
        assert_matches(np.concatenate([ulps_around(end) for end in ends]))

    def test_doubles_that_round_up_to_a_power_of_ten(self):
        # the double nearest 10^E, when below it by under half a unit of
        # the 17th digit, prints as 10^E
        with localcontext() as exact_arithmetic:
            exact_arithmetic.prec = 1000
            below = [float(f"1e{e}") for e in range(-307, 309)
                     if Decimal(10) ** e * (1 - Decimal("5e-18")) <= Decimal(float(f"1e{e}")) < Decimal(10) ** e]
        assert len(below) >= 10
        assert_matches(below + [-x for x in below])

    def test_a_log10_one_ulp_low(self, monkeypatch):
        # log10 need not round correctly: one ulp low at 10^E gives E - 1,
        # so D reaches 10^17, a lead digit of 10, and Python prints the value
        log10 = np.log10

        def one_ulp_low(x):  # but log10(1) = 0, on which zeros rely
            y = log10(x)
            return np.nextafter(y, np.where(y == 0.0, 0.0, -math.inf))

        monkeypatch.setattr(np, "log10", one_ulp_low)
        powers = [float(f"1e{e}") for e in range(-30, 30)]
        assert_matches(powers + [math.nextafter(p, 0.0) for p in powers] + [0.0, -0.0, 1e-280, 1e281])

    @pytest.mark.parametrize("digits", [18, 19], ids=["tie-at-17th", "tie-at-18th"])
    def test_dyadic_ties(self, digits):
        ties = dyadic_ties(digits)
        assert len(ties) > 100
        assert_matches(np.concatenate([ties, np.negative(ties)]))

    def test_halfway_integers_and_quarters(self):
        # odd m / 4 in [2^50, 2^51) ends in .25 or .75: 18 digits, a tie at the 17th
        m = 2**50 + 2 * np.arange(5000) + 1
        assert_matches(np.concatenate([m / 4.0, m / 8.0, -m / 4.0]))

    def test_large_integers_and_extremes(self):
        integers = [2.0**53 + 2, 2.0**60, 2.0**64, 10.0**17 + 16, 123456789012345678.0,
                    float(10**22), float(10**23), 2.0**1023, 1.7976931348623157e308]
        extremes = [1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300]
        rng = np.random.default_rng(7)
        assert_matches(integers + extremes + rng.integers(2**53, 2**62, 500).astype(np.float64).tolist())

    def test_every_form(self):
        # fixed notation for exponents -4 to 16, then scientific with two- and
        # three-digit exponents, with each count of significant digits
        values = [float(f"{'123456789012345678'[:s]}e{e}") for e in range(-110, 110) for s in range(1, 18)]
        assert_matches(values + [-v for v in values])


class TestBlocks:
    def test_sub_blocks_join(self, monkeypatch):
        # scan's 7 columns and sample's 12; a sub-block holds as many whole
        # rows as its values allow, at least one
        for columns in (7, 12):
            block = np.linspace(-3.0, 3.0, 13 * columns).reshape(13, columns)
            block[5, 2] = math.nan  # one value printed by Python, in a middle sub-block
            want = percent_rows(block)
            for rows in (1, 2, 5, 13, 14):
                for values in (rows * columns, rows * columns + columns - 1):
                    monkeypatch.setattr(output, "FORMAT_VALUES", values)
                    assert formatted(block) == want
            monkeypatch.setattr(output, "FORMAT_VALUES", columns - 1)
            assert formatted(block) == want

    def test_value_sized_sub_blocks(self):
        # one chunk per sub-block: scan's 7 columns keep 256 rows to one,
        # sample's 12 get 149
        for columns, rows in ((7, [256, 44]), (12, [149, 149, 2])):
            chunks = format_rows(np.ones((300, columns)))
            assert [chunk.count("\n") for chunk in chunks] == rows

    def test_empty_and_single_column(self):
        assert formatted(np.empty((0, 7))) == ""
        column = np.array([[0.25], [-0.0], [math.inf]])
        assert formatted(column) == "0.25\n-0\ninf\n"

    def test_scan_values_are_printed_without_python(self, monkeypatch):
        # every value of the benchmark's scan is scaled in numpy: a formatter
        # that left them to "%" would print the same bytes, only slower
        splices = count_calls(monkeypatch, output._splice)
        phis = np.linspace(-3.14159, 3.14159, 20001)
        block = np.column_stack(interference_scan(0.6, phis))
        assert block.shape[1] == len(SCAN_COLUMNS)
        assert formatted(block) == percent_rows(block)
        assert splices == []

    def test_fallbacks_are_spliced_in_place(self):
        values = np.array([[math.nan, 1.5, math.inf], [1e-300, -math.inf, 2.5e300]])
        assert formatted(values) == "nan,1.5,inf\n1e-300,-inf,2.5000000000000001e+300\n"

    def test_text_column_between_fallback_values(self, monkeypatch):
        # each row puts values that Python prints before and after its text,
        # so a splice placed by the wrong text length moves bytes
        texts = ("pw", "wp")
        odd = [math.nan, math.inf, -math.inf, 1e300, -1e-300, 0.1]
        rng = np.random.default_rng(3)
        block = rng.choice(odd, size=(23, 12))
        block[:, 2] = rng.integers(0, 2, 23)
        block[0, 1], block[0, 3] = math.nan, math.inf
        block[7, 3:] = 1.5  # a row with fallbacks before its text only
        block[8, :2] = 0.25  # and one with fallbacks after it only
        want = percent_rows(block, (2, texts))
        for rows in (1, 4, 23):
            monkeypatch.setattr(output, "FORMAT_VALUES", rows * 12)
            assert formatted(block, text=(2, texts)) == want

    @pytest.mark.parametrize("column", [0, 3, 6])
    def test_texts_of_any_length(self, column):
        texts = ("", "a", "bcd", "x" * 44)
        block = np.tile([math.nan, 1e-300, 2.5, 0.0, 3.0, -math.inf, 0.5], (8, 1))
        block[:, column] = np.arange(8) % 4
        assert formatted(block, text=(column, texts)) == percent_rows(block, (column, texts))

    def test_texts_longer_than_a_canvas_are_refused(self):
        with pytest.raises(ValueError, match="shorter than 45 bytes"):
            formatted(np.zeros((1, 2)), text=(0, ("x" * 45,)))

    def test_texts_with_a_nul_are_refused(self):
        # the canvas drops every NUL byte, so such a text would print short
        with pytest.raises(ValueError, match="with no NUL"):
            formatted(np.zeros((1, 2)), text=(0, ("pw", "w\0p")))

    def test_tables_are_built_on_first_use(self):
        output._tables.cache_clear()
        assert output._tables.cache_info().currsize == 0
        RunConfig()  # importing and configuring builds nothing
        assert output._tables.cache_info().currsize == 0
        formatted(np.ones((1, 1)))
        assert output._tables.cache_info().currsize == 1

    def test_powers_of_ten_are_exact(self):
        # hi + lo is 10^k to within 2^-106 relative, on every row
        t = output._tables()
        with localcontext() as exact_arithmetic:
            exact_arithmetic.prec = 2000
            for row, (hi, lo) in enumerate(t.powers[:, :2].tolist()):
                exact = Decimal(10) ** (16 - (output._E_LOW + row))
                assert hi == float(exact)
                assert abs(Decimal(hi) + Decimal(lo) - exact) <= exact * Decimal(2) ** -106
