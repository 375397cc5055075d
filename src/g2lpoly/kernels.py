"""Exhaustive point counting: plain-loop cubics below p = 2^6, numpy otherwise.

Both kernels count affine points of y^2 = g(x), g a Genus1Model's cubic or
quartic, i.e. sum over x of 1 + chi(g(x)) with chi the quadratic character
(chi(0) = 0); points at infinity are the caller's job.

Over F_p with p < _LOOP_BELOW = 2^6 a cubic, the degree the pipeline counts,
goes through an unrolled plain-Python Horner loop that reads 1 + chi(v) from
a cached per-p tuple.  There numpy's fixed cost of 12-28 us per call (with
the character table warm or cold) is more than the whole loop: about 2 us at
p = 3 and 12-15 us at p = 61.  The two are even near p = 97, and numpy wins
from 127.  Other degrees (the oracle's, the tests') take numpy at every p,
and so does F_{p^2}: a plain loop wins there only at p = 3 and 5.

In the numpy kernels Horner runs in place on int64 and reduces mod p only
where it must.  All operands are kept non-negative (a subtraction becomes
the addition of the negated constant mod p), and an upper bound on the
accumulators is carried beside them in Python ints: a step goes ahead
unreduced while the bound says every intermediate stays below
_BOUND = 2^62, and otherwise the accumulators are reduced first.  The bound
depends only on p and the degree, so the schedule is fixed before any point
is evaluated.  Below p = 2^13 that is one reduction for a cubic over F_p and
at most two for a quartic; over F_{p^2} it is at most three per block below
p = 2^8 (two before the norm, one after).  count_affine_fp takes p < 2^30
and count_affine_fp2 p < 2^20 (no caller counts above q = 2^26), where a
step from reduced values stays below the bound: (m + 1) m, m^3 + 2 m^2 + m
and the norm's m^2 (2 m + 1) are all below 2^61 (m = p - 1).

numpy is imported by the first count that needs it, not by `import g2lpoly`,
so a run whose counts are all cubics over F_p below 2^6 or lie above the
exhaustive bands never loads it.
"""

import functools

_P_LIMIT = 1 << 30
_FP2_P_LIMIT = 1 << 20
# count_affine_fp loops over cubics in plain Python below this p
_LOOP_BELOW = 1 << 6
_BOUND = 1 << 62
# count_affine_fp2 evaluates about this many points per numpy pass (whole
# rows of p values of a, at least one row), which bounds its memory at any p.
# 2^14 ran fastest, or within 12% of the fastest, of 2^12 ... 2^17 from
# p = 127 to 4093.
_FP2_BLOCK = 1 << 14


def kernel_mode() -> str:
    """Which implementations back the counting entry points."""
    return f"python (F_p cubics, p < {_LOOP_BELOW}) + numpy"


@functools.lru_cache(maxsize=None)  # one per odd prime below _LOOP_BELOW
def _chi_plus_one(p):
    """1 + chi(v) for v in [0, p), as a tuple."""
    t = [0] * p
    for x in range(1, (p + 1) // 2):  # x and -x share x^2
        t[x * x % p] = 2
    t[0] = 1
    return tuple(t)


def _count_loop(cs, p):
    """Affine count over F_p of a cubic by a plain unrolled Horner loop, cs
    reduced mod p and constant term first."""
    t = _chi_plus_one(p)
    c0, c1, c2, c3 = cs
    return sum([t[(((c3 * x + c2) * x + c1) * x + c0) % p] for x in range(p)])


# A batch cycles through its primes: at 4 entries oracle_mixed rebuilt a
# table on 278 of 768 lookups, at 7-32 us each; at 32, on 13 (one per p).
@functools.lru_cache(maxsize=32)
def _chi_table(p):
    import numpy as np

    chi = np.full(p, -1, dtype=np.int8)
    sq = np.arange((p + 1) // 2, dtype=np.int64)  # x and -x share x^2
    sq *= sq
    _reduce(sq, p, np.empty_like(sq))
    chi[sq] = 1
    chi[0] = 0
    chi.setflags(write=False)  # shared by every caller
    return chi


def _reduce(v, p, tmp):
    """v %= p in place for v >= 0.  numpy divides by a scalar through
    libdivide, so from about 2^10 entries v - (v // p) p runs faster than
    np.remainder (1.5x at 2^12), whose one call wins below that."""
    import numpy as np

    if v.size < 1 << 10:
        np.remainder(v, p, out=v)
        return
    np.floor_divide(v, p, out=tmp)
    tmp *= p
    v -= tmp


def count_affine_fp(coeffs, p: int) -> int:
    """Affine count over F_p, Horner over all of [0, p) in one pass: a plain
    loop for a cubic below _LOOP_BELOW, numpy for the rest."""
    if p >= _P_LIMIT:
        raise ValueError(f"kernel requires p < 2^30, got {p}")
    if p < _LOOP_BELOW and len(coeffs) == 4:
        return _count_loop([int(c) % p for c in coeffs], p)
    import numpy as np

    m = p - 1
    cs = [int(c) % p for c in reversed(coeffs)]
    chi = _chi_table(p)
    x = np.arange(p, dtype=np.int64)
    acc, tmp = np.empty((2, p), dtype=np.int64)
    np.multiply(x, cs[0], out=acc)
    acc += cs[1]
    bound = (m + 1) * m  # acc <= bound
    for c in cs[2:]:
        if (bound + 1) * m >= _BOUND:  # acc * x + c could reach 2^62
            _reduce(acc, p, tmp)
            bound = m
        acc *= x
        acc += c
        bound = (bound + 1) * m
    _reduce(acc, p, tmp)
    return int(p + chi.take(acc).sum())


def count_affine_fp2(coeffs, u0: int, u1: int, p: int) -> int:
    """Affine count over F_p[z]/(z^2 + u1 z + u0).

    coeffs are (c0, c1) pairs for c0 + c1 z.  The points a + b z are taken
    in blocks of consecutive b, every a at once, as flat arrays.  With
    z^2 = n1 z + n0 (n0 = -u0, n1 = -u1 mod p), one Horner step is
        g0 + g1 z  ->  (g0 a + n0 t + c0) + (g0 b + g1 a + n1 t + c1) z,
    t = g1 b.  The character is evaluated through the norm to F_p,
    g0^2 + n1 g0 g1 + u0 g1^2 mod p, which collapses the p^2 grid to one
    table lookup per point.
    """
    if p >= _FP2_P_LIMIT:
        raise ValueError(f"kernel requires p < 2^20, got {p}")
    import numpy as np

    m = p - 1
    u0 %= p
    n0, n1 = -u0 % p, -u1 % p
    cs = [(int(c[0]) % p, int(c[1]) % p) for c in reversed(coeffs)]
    chi = _chi_table(p)
    rows = min(p, max(1, _FP2_BLOCK // p))
    # a, b and four accumulators, rows * p each, in one allocation
    work = np.empty((6, rows * p), dtype=np.int64)
    a_all, b_all, g0_all, g1_all, t_all, s_all = work
    a_all.reshape(rows, p)[:] = np.arange(p)
    b_all.reshape(rows, p)[:] = np.arange(rows)[:, None]
    (l0, l1), rest = cs[0], cs[1:]
    # first step from the scalar leading coefficient: l x + c
    al, be, ga, de = l0, n0 * l1 % p, l1, (l0 + n1 * l1) % p
    total = p * p
    for start in range(0, p, rows):
        if start:
            b_all += rows
        size = min(rows, p - start) * p
        a, b = a_all[:size], b_all[:size]
        g0, g1, t, s = g0_all[:size], g1_all[:size], t_all[:size], s_all[:size]
        c0, c1 = rest[0]
        np.multiply(a, al, out=g0)
        np.multiply(b, be, out=t)
        g0 += t
        g0 += c0
        np.multiply(a, ga, out=g1)
        np.multiply(b, de, out=t)
        g1 += t
        g1 += c1
        bound = (2 * m + 1) * m  # g0, g1 <= bound
        for c0, c1 in rest[1:]:
            # the step below leaves g0, g1 <= (bound m + 2 bound) m + m
            if (bound * m + 2 * bound) * m + m >= _BOUND:
                _reduce(g0, p, t)
                _reduce(g1, p, t)
                bound = m
            np.multiply(g1, b, out=t)  # t <= bound m
            np.multiply(g0, b, out=s)
            g0 *= a
            g1 *= a
            g1 += s
            np.multiply(t, n1, out=s)
            g1 += s
            t *= n0
            g0 += t
            g0 += c0
            g1 += c1
            bound = (bound * m + 2 * bound) * m + m
        # the norm g0 (g0 + n1 g1) + u0 g1^2 <= bound^2 (2m + 1)
        if bound * bound * (2 * m + 1) >= _BOUND:
            _reduce(g0, p, t)
            _reduce(g1, p, t)
            bound = m
        np.multiply(g1, n1, out=t)
        t += g0
        t *= g0
        np.multiply(g1, u0, out=s)
        s *= g1
        t += s
        _reduce(t, p, s)
        total += int(chi.take(t).sum())
    return total
