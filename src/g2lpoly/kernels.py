"""Vectorized numpy loops for exhaustive point counting.

Both kernels count affine points of y^2 = g(x), i.e. sum over x of
1 + chi(g(x)) with chi the quadratic character (chi(0) = 0); points at
infinity are the caller's job.

All kernels assume p < 2^30 so that short sums of products of reduced values
fit in int64.
"""

import functools

import numpy as np

_P_LIMIT = 1 << 30
# count_affine_fp2 evaluates about this many points per numpy pass (whole
# rows of p values of a, at least one row), which bounds its memory at any p.
# 2^14 ran fastest of 2^12 ... 2^18 from p = 1021 to 8191, within noise at
# p <= 251.
_FP2_BLOCK = 1 << 14


def kernel_mode() -> str:
    """Which implementation backs the counting entry points."""
    return "numpy"


@functools.lru_cache(maxsize=4)  # the two genus 1 counts of a factor share p
def _chi_table(p):
    chi = np.full(p, -1, dtype=np.int8)
    idx = (np.arange(p, dtype=np.int64) ** 2) % p
    chi[idx] = 1
    chi[0] = 0
    chi.setflags(write=False)  # shared by every caller
    return chi


def count_affine_fp(coeffs, p: int) -> int:
    """Affine count over F_p, Horner over all of [0, p) in one pass."""
    if p >= _P_LIMIT:
        raise ValueError(f"kernel requires p < 2^30, got {p}")
    chi = _chi_table(p)
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + int(c) % p) % p
    return int(p + chi[acc].sum())


def count_affine_fp2(coeffs, u0: int, u1: int, p: int) -> int:
    """Affine count over F_p[z]/(z^2 + u1 z + u0).

    coeffs are (c0, c1) pairs for c0 + c1 z.  The points a + b z are taken
    in blocks of consecutive b, every a at once.  The character is evaluated
    through the norm to F_p, which collapses the p^2 grid to one table
    lookup per point.
    """
    if p >= _P_LIMIT:
        raise ValueError(f"kernel requires p < 2^30, got {p}")
    u0 %= p
    u1 %= p
    cs = [(int(c[0]) % p, int(c[1]) % p) for c in reversed(coeffs)]
    chi = _chi_table(p)
    a = np.arange(p, dtype=np.int64)
    rows = max(1, _FP2_BLOCK // p)
    total = p * p
    for start in range(0, p, rows):
        b = np.arange(start, min(start + rows, p), dtype=np.int64)[:, None]
        g0 = np.zeros((len(b), p), dtype=np.int64)
        g1 = np.zeros((len(b), p), dtype=np.int64)
        for c0, c1 in cs:
            t = g1 * b % p
            n0 = (g0 * a - u0 * t + c0) % p
            g1 = (g0 * b + g1 * a - u1 * t + c1) % p
            g0 = n0
        # norm(g0 + g1 z) = g0^2 - u1 g0 g1 + u0 g1^2
        norm = (g0 * g0 - (u1 * g0 % p) * g1 + (u0 * g1 % p) * g1) % p
        total += int(chi[norm].sum())
    return total
