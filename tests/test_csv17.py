"""The vectorized CSV kernel against the per-row "%.17g" join it replaces,
byte for byte: powers of ten and their neighbours, special values, large
integers, exact and near rounding ties, random bit patterns and a
derandomized hypothesis sweep."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlab.csv17 import csv17

_SWEEP = settings(derandomize=True, deadline=None, database=None)


def oracle(table):
    """The CLI's former field emitter: one "%.17g" string per row."""
    table = np.asarray(table, dtype=np.float64)
    fmt = ",".join(["%.17g"] * table.shape[1])
    return "".join(fmt % tuple(row) + "\n" for row in table.tolist())


def check(values, ncols=8):
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.resize(values, -(-values.size // ncols) * ncols)
    table = values.reshape(-1, ncols)
    assert csv17(table) == oracle(table)


def _neighbours(x):
    return [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]


def test_powers_of_ten_and_their_neighbours():
    values = []
    for n in range(-30, 31):
        values += _neighbours(float(f"1e{n}")) + _neighbours(10.0 ** n)
    values = np.array(values)
    check(np.concatenate([values, -values]))


def test_special_values():
    tiny = 5e-324
    check([0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308,
           np.nextafter(2.2250738585072014e-308, 0.0), 1e-310, 3 * tiny,
           math.inf, -math.inf, math.nan, -math.nan, 1e281, -1e281,
           1e-281, -1e-281, *_neighbours(1e280), *_neighbours(1e-280),
           1.7976931348623157e308, -1.7976931348623157e308], ncols=1)


def test_integers_at_and_above_two_to_the_53():
    values = [2.0 ** 53 + j for j in range(-4, 5)]
    values += [2.0 ** e for e in range(53, 80)]
    values += [*_neighbours(1e16), *_neighbours(1e17), 99999999999999999.0,
               12345678901234567890.0, 100.0, 120.0, 1e15, 3e16]
    check(np.concatenate([values, np.negative(values)]), ncols=3)


def _y(x):
    """|x| 10^(16 - k) exactly, k = floor(log10 |x|)."""
    x = Fraction(abs(x))
    k = math.floor(math.log10(x))
    k += (x >= Fraction(10) ** (k + 1)) - (x < Fraction(10) ** k)
    return x * Fraction(10) ** (16 - k)


def _near_ties():
    """Doubles x = m 2^E whose y = x 10^(16-k) sits eps 2^-s above an
    integer and a half: exact ties at eps = 0, ties to within 1e-10 at
    small eps, and just outside the kernel's 1e-6 fallback band at
    eps = +-2^(s - 19)."""
    out = []
    for i in range(-40, 50, 3):                 # x in [2^i, 2^(i+1))
        e = i - 52
        q = 16 - math.floor(math.log10(1.5 * 2.0 ** i))
        s = -(q + e)                            # fraction bits of y
        if q < 0 or not 2 <= s <= 52:
            continue
        inv = pow(5 ** q, -1, 2 ** s)
        band = 2 ** max(s - 19, 0)
        for eps in (0, 1, -1, 7, -7, band, -band):
            m0 = (2 ** (s - 1) + eps) * inv % 2 ** s
            first = m0 + 2 ** s * -(-(2 ** 52 - m0) // 2 ** s)
            out += [math.ldexp(m, e) for m in
                    range(first, min(2 ** 53, first + 3 * 2 ** s), 2 ** s)]
    # keep those whose decade is the one assumed for their binade
    return [x for x in out
            if abs(_y(x) % 1 - Fraction(1, 2)) < Fraction(1, 10 ** 5)]


def test_rounding_ties_and_near_ties():
    values = _near_ties()
    ties = sum(_y(x) % 1 == Fraction(1, 2) for x in values)
    assert len(values) > 250 and ties > 30
    check(values + [-v for v in values] + [1.0 + 2.0 ** -17, 0.5, 2.5])


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2 ** 64, 40000, dtype=np.uint64, endpoint=False)
    scaled = rng.standard_normal(8000) * 10.0 ** rng.integers(-30, 30, 8000)
    # more rows than one block holds, so block edges are crossed
    check(np.concatenate([bits.view(np.float64), scaled]))


@settings(_SWEEP, max_examples=100)
@given(st.lists(st.floats(), min_size=1, max_size=40),
       st.integers(1, 8))
def test_any_float_sweep(values, ncols):
    check(values, ncols)


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (2, 8), (1025, 8)])
def test_shapes_and_separators(shape):
    table = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) / 7.0
    text = csv17(table)
    assert text == oracle(table)
    assert text.count("\n") == shape[0] and text.endswith("\n")
