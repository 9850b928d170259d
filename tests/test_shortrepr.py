"""shortrepr.reprs gives the bytes repr gives, cell for cell."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kickjt import shortrepr
from kickjt.shortrepr import reprs

# cells per drawn column
_CELLS = 17384


def _assert_reprs(column):
    # each byte row, its NUL padding stripped, is the cell's repr
    rows = reprs(column)
    assert rows.shape == (column.size, 24) and rows.dtype == np.uint8
    assert rows.view("S24").ravel().tolist() == [repr(v).encode() for v in column.tolist()]


def _column(kind: str, rng: np.random.Generator) -> np.ndarray:
    n = _CELLS
    if kind == "bit patterns":
        info = np.iinfo(np.int64)
        return rng.integers(info.min, info.max, n, dtype=np.int64, endpoint=True).view(np.float64)
    if kind == "fixed-notation bit patterns":
        # any mantissa and sign, |x| from 2^-14 (6.1e-5) to 2^54 (1.8e16):
        # across both ends of the kernel's range
        exponent = rng.integers(1023 - 14, 1023 + 54, n, dtype=np.uint64)
        mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
        sign = rng.integers(0, 2, n, dtype=np.uint64)
        return ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)
    if kind == "normal":
        return rng.normal(size=n)
    magnitudes = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-7, 18, n)
    if kind == "log-uniform":
        return magnitudes
    # "rounded": 1 to 17 significant digits, as short decimal inputs give
    digits = rng.integers(1, 18, n)
    return np.array([float(f"{v:.{d - 1}e}") for v, d in zip(magnitudes.tolist(), digits.tolist())])


_KINDS = ["bit patterns", "fixed-notation bit patterns", "normal", "log-uniform", "rounded"]


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1))
def test_reprs_equal_repr(kind, seed):
    # 5 kinds x 4 seeds x 17,384 cells: about 350k values a run
    _assert_reprs(_column(kind, np.random.default_rng(seed)))


def test_every_power_of_two_in_range():
    # the only cells whose rounding interval is asymmetric; they go to repr
    _assert_reprs(np.array([sign * 2.0 ** k for k in range(-14, 55) for sign in (1, -1)]))


def test_strided_and_short_columns():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(8195, 2))
    for column in (points[:, 0], points[::-1, 1], points[:1, 0], points[:0, 0]):
        _assert_reprs(column)


def test_kernel_proves_almost_every_typical_cell():
    # the kernel, not its repr fallback, formats typical values
    rng = np.random.default_rng(3)
    coordinates = np.linspace(-6, 6, 161)
    for column in (rng.normal(size=8192), coordinates[coordinates != 0]):
        proven = shortrepr._shortest(column)[3]
        assert proven.mean() > 0.99
