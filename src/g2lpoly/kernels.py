"""Hot inner loops for exhaustive point counting.

Each kernel exists twice: a numba-jitted version and a vectorized numpy
fallback.  The jitted path is used when numba imports cleanly; setting the
environment variable G2LPOLY_PURE_NUMPY=1 forces the numpy path.  Both count
affine points of y^2 = g(x), i.e. sum over x of 1 + chi(g(x)) with chi the
quadratic character (chi(0) = 0); points at infinity are the caller's job.

All kernels assume p < 2^30 so that short sums of products of reduced values
fit in int64.
"""

import os

import numpy as np

FORCE_NUMPY = os.environ.get("G2LPOLY_PURE_NUMPY", "0") not in ("", "0")

if FORCE_NUMPY:
    numba = None
    HAVE_NUMBA = False
else:
    try:
        import numba

        HAVE_NUMBA = True
    except ImportError:  # numba is the optional "jit" extra
        numba = None
        HAVE_NUMBA = False

_P_LIMIT = 1 << 30


def kernel_mode() -> str:
    """Which implementation backs the public counting entry points."""
    return "njit" if HAVE_NUMBA else "numpy"


def _chi_table_np(p):
    chi = np.full(p, -1, dtype=np.int8)
    idx = (np.arange(p, dtype=np.int64) ** 2) % p
    chi[idx] = 1
    chi[0] = 0
    return chi


def count_affine_fp_numpy(coeffs, p: int) -> int:
    """Affine count over F_p, vectorized Horner over all of [0, p)."""
    chi = _chi_table_np(p)
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + int(c)) % p
    return int(p + chi[acc].sum())


def count_affine_fp2_numpy(c0s, c1s, u0: int, u1: int, p: int) -> int:
    """Affine count over F_p[z]/(z^2 + u1 z + u0), chunked by the z-coordinate.

    The character is evaluated through the norm to F_p, which collapses the
    p^2 grid to one table lookup per point.
    """
    chi = _chi_table_np(p)
    a = np.arange(p, dtype=np.int64)
    n = len(c0s)
    total = p * p
    for b in range(p):
        g0 = np.zeros(p, dtype=np.int64)
        g1 = np.zeros(p, dtype=np.int64)
        for k in range(n - 1, -1, -1):
            t = g1 * b % p
            n0 = (g0 * a - u0 * t + int(c0s[k])) % p
            g1 = (g0 * b + g1 * a - u1 * t + int(c1s[k])) % p
            g0 = n0
        # norm(g0 + g1 z) = g0^2 - u1 g0 g1 + u0 g1^2
        norm = (g0 * g0 - (u1 * g0 % p) * g1 + (u0 * g1 % p) * g1) % p
        total += int(chi[norm].sum())
    return total


if HAVE_NUMBA:

    @numba.njit(cache=True)
    def _count_affine_fp_njit(coeffs, p):  # pragma: no cover - jitted
        chi = np.zeros(p, dtype=np.int8)
        for i in range(1, p):
            chi[(i * i) % p] = 1
        for i in range(1, p):
            if chi[i] == 0:
                chi[i] = -1
        total = p
        nc = coeffs.shape[0]
        for x in range(p):
            acc = 0
            for k in range(nc - 1, -1, -1):
                acc = (acc * x + coeffs[k]) % p
            total += chi[acc]
        return total

    @numba.njit(cache=True)
    def _count_affine_fp2_njit(c0s, c1s, u0, u1, p):  # pragma: no cover
        chi = np.zeros(p, dtype=np.int8)
        for i in range(1, p):
            chi[(i * i) % p] = 1
        for i in range(1, p):
            if chi[i] == 0:
                chi[i] = -1
        total = p * p
        nc = c0s.shape[0]
        for b in range(p):
            for a in range(p):
                g0 = 0
                g1 = 0
                for k in range(nc - 1, -1, -1):
                    t = g1 * b % p
                    n0 = (g0 * a - u0 * t + c0s[k]) % p
                    g1 = (g0 * b + g1 * a - u1 * t + c1s[k]) % p
                    g0 = n0
                norm = (g0 * g0 - (u1 * g0 % p) * g1 + (u0 * g1 % p) * g1) % p
                total += chi[norm]
        return total


def count_affine_fp(coeffs, p: int) -> int:
    """Dispatch to the active kernel.  coeffs: ints reduced mod p."""
    if p >= _P_LIMIT:
        raise ValueError(f"kernel requires p < 2^30, got {p}")
    arr = np.asarray([c % p for c in coeffs], dtype=np.int64)
    if HAVE_NUMBA:
        return int(_count_affine_fp_njit(arr, p))
    return count_affine_fp_numpy(arr, p)


def count_affine_fp2(coeffs, u0: int, u1: int, p: int) -> int:
    """Dispatch to the active kernel.  coeffs: (c0, c1) pairs reduced mod p."""
    if p >= _P_LIMIT:
        raise ValueError(f"kernel requires p < 2^30, got {p}")
    c0s = np.asarray([c[0] % p for c in coeffs], dtype=np.int64)
    c1s = np.asarray([c[1] % p for c in coeffs], dtype=np.int64)
    if HAVE_NUMBA:
        return int(_count_affine_fp2_njit(c0s, c1s, u0 % p, u1 % p, p))
    return count_affine_fp2_numpy(c0s, c1s, u0 % p, u1 % p, p)
