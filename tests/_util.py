"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive (Euler-criterion characters over F_p,
the set of all squares over F_{p^2}, direct enumeration) and shares no code
with the package's counting kernels.
"""

import math
from itertools import product

from g2lpoly.modarith import Fp2
from g2lpoly.polyring import (
    deg,
    fp_derivative,
    fp_gcd,
    poly_add,
    poly_mul,
    poly_scale,
    reduce_mod,
)


def chi_p(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def brute_count_fp(g, p):
    """Points on y^2 = g(x) over F_p, projective model, by direct scan."""
    n = 0
    for x in range(p):
        v = 0
        for c in reversed(g):
            v = (v * x + c) % p
        n += 1 + chi_p(v, p)
    if len(g) - 1 == 3:
        return n + 1
    return n + (2 if chi_p(g[-1], p) == 1 else 0)


def mul_fp2(a, b, p, u0, u1):
    t = a[1] * b[1]
    return ((a[0] * b[0] - u0 * t) % p, (a[0] * b[1] + a[1] * b[0] - u1 * t) % p)


def fp2_with_u1(p, rng):
    """F_p[z]/(z^2 + u1 z + u0) with u1 != 0, drawn until irreducible: the
    u1 terms of the raw-int F_{p^2} code are dead at u1 = 0."""
    while True:
        try:
            return Fp2(p, rng.randrange(p), rng.randrange(1, p))
        except ValueError:  # z^2 + u1 z + u0 reducible mod p
            continue


def fp2_elements(p):
    for c1 in range(p):
        for c0 in range(p):
            yield (c0, c1)


def brute_count_fp2(g, p, u0, u1):
    """Points on y^2 = g(x) over F_p[z]/(z^2+u1 z+u0), direct scan; the
    character is read off the set of all squares x^2."""
    squares = {mul_fp2(x, x, p, u0, u1) for x in fp2_elements(p)}

    def chi(a):
        a = (a[0] % p, a[1] % p)
        return 0 if a == (0, 0) else 1 if a in squares else -1

    n = 0
    for x in fp2_elements(p):
        v = (0, 0)
        for c in reversed(g):
            v = mul_fp2(v, x, p, u0, u1)
            v = ((v[0] + c[0]) % p, (v[1] + c[1]) % p)
        n += 1 + chi(v)
    if len(g) - 1 == 3:
        return n + 1
    return n + (2 if chi(g[-1]) == 1 else 0)


SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97)


def fp_long_division(f, g, p):
    """(quotient, remainder) of f by g over F_p, schoolbook, both trimmed."""
    r = [c % p for c in f]
    n = len(g) - 1
    q = [0] * max(len(r) - n, 0)
    inv = pow(g[-1], -1, p)
    for k in range(len(r) - 1 - n, -1, -1):
        q[k] = c = r[k + n] * inv % p
        for i, b in enumerate(g):
            r[k + i] = (r[k + i] - c * b) % p
    return reduce_mod(q, p), reduce_mod(r, p)


def fp_monic_irreducibles(d, p):
    """Every monic irreducible of degree d <= 3 over F_p: no root in F_p."""
    assert d <= 3
    for tail in product(range(p), repeat=d):
        g = tail + (1,)
        if d == 1 or all(sum(c * x**i for i, c in enumerate(g)) % p for x in range(p)):
            yield g


def fp_multiplicity_by_division(f, g, p):
    """The largest v with g^v | f over F_p, by repeated long division."""
    v = 0
    while True:
        q, r = fp_long_division(f, g, p)
        if r:
            return v
        f, v = q, v + 1


def fp_gcd_k_by_trial_division(f, k, p):
    """gcd_k of f over F_p (deg f <= 6): every monic irreducible g of degree
    up to deg f // k is tried, and g^(v - k + 1) kept when v = v_g(f) >= k."""
    f = reduce_mod(f, p)
    out = (1,)
    for e in range(1, deg(f) // k + 1):
        for g in fp_monic_irreducibles(e, p):
            for _ in range(fp_multiplicity_by_division(f, g, p) - k + 1):
                out = reduce_mod(poly_mul(out, g), p)
    return out


def fp_squarefree_part(f, p: int):
    """Distinct irreducible factors of f over F_p times the leading coefficient."""
    f = reduce_mod(f, p)
    if not f:
        raise ValueError("squarefree part of the zero polynomial")
    d = deg(f)
    if d <= 0:
        return f
    if p > d:
        q, r = fp_long_division(f, fp_gcd(f, fp_derivative(f, p), p), p)
        assert not r
        return q
    # small characteristic: strip repeated factors directly (they have
    # degree <= d // 2, so the root test suffices)
    out = f
    for gdeg in range(1, d // 2 + 1):
        for g in fp_monic_irreducibles(gdeg, p):
            for _ in range(fp_multiplicity_by_division(out, g, p) - 1):
                out, r = fp_long_division(out, g, p)
                assert not r
    return out


def outer_cluster_model(f, p, k, a):
    """p^(6k) f((x - a)/p^k): the same curve with all six roots packed into
    one outer cluster of depth k around a, so p_normalize must recenter k times."""
    out, xs = (), (1,)
    for i, c in enumerate(tuple(f) + (0,) * (7 - len(f))):
        out = poly_add(out, poly_scale(xs, c * p ** (k * (6 - i))))
        xs = poly_mul(xs, (-a, 1))
    return out


def bareiss_det(m):
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(m)
    m = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sylvester_resultant(f, g):
    """Res(f, g) over Z as the determinant of the Sylvester matrix."""
    m, n = deg(f), deg(g)
    size = m + n
    fb = list(reversed(f))
    gb = list(reversed(g))
    rows = []
    for i in range(n):
        rows.append([0] * i + fb + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gb + [0] * (size - n - 1 - i))
    return bareiss_det(rows)


# ---------------------------------------------------------------------------
# CM traces at large p: p = a^2 + b^2 (j = 1728) or x^2 + 3y^2 (j = 0), with
# short Weierstrass arithmetic over F_p that shares nothing with the package
# ---------------------------------------------------------------------------


def least_nonsquare(p):
    z = 2
    while chi_p(z, p) != -1:
        z += 1
    return z


def sqrt_fp(a, p):
    """A square root of a square a mod an odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    z = least_nonsquare(p)
    m, c, t, r = e, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def sqrt_field(F, a):
    """A square root of the square a in F, an Fp or an Fp2, from square roots
    mod p alone.  Over F_{p^2} a root w has w^2 - Tr(w) w + N(w) = 0 with
    N(w) = +-n, n^2 = N(a), and Tr(w)^2 = t = Tr(a) + 2 N(w); for a outside
    F_p only the right sign makes t a nonzero square T^2 (the other gives
    (w - frob(w))^2, a nonsquare), and w = (a + N(w)) / T.  An a in F_p that
    is a nonsquare there has the root c (2z + u1), c^2 = a / (u1^2 - 4 u0)."""
    p = F.p
    if F.q == p:
        return sqrt_fp(a, p)
    (a0, a1), u0, u1 = a, F.u0, F.u1
    if a1 == 0:
        if chi_p(a0, p) >= 0:
            return (sqrt_fp(a0, p), 0)
        c = sqrt_fp(a0 * pow(u1 * u1 - 4 * u0, -1, p), p)
        return (c * u1 % p, 2 * c % p)
    n = sqrt_fp(a0 * a0 - u1 * a0 * a1 + u0 * a1 * a1, p)
    for norm in (n, -n):
        t = 2 * a0 - u1 * a1 + 2 * norm
        if chi_p(t, p) == 1:
            inv = pow(sqrt_fp(t, p), -1, p)
            return ((a0 + norm) * inv % p, a1 * inv % p)
    raise ValueError(f"{a} is not a square in {F!r}")


def random_point(curve, rng):
    """A random affine point of a genus1._Curve, by a square root of
    x^3 + Ax + B at a random x (redrawn while that is a nonsquare)."""
    F = curve.F
    while True:
        x = F.random(rng)
        rhs = F.add(F.mul(x, F.add(F.mul(x, x), curve.A)), curve.B)
        if F.is_zero(rhs):
            return (x, F.zero)
        if F.is_square(rhs):
            return (x, sqrt_field(F, rhs))


def cornacchia(d, p):
    """(x, y) with x^2 + d*y^2 = p, for a prime p where -d is a square."""
    r = sqrt_fp(-d, p)
    a, b = p, max(r, p - r)
    while b * b >= p:
        a, b = b, a % b
    y2, rem = divmod(p - b * b, d)
    y = math.isqrt(y2)
    assert rem == 0 and y * y == y2, (d, p)
    return b, y


def ec_mul(k, P, A, p):
    """k*P on y^2 = x^3 + Ax + B over F_p, affine, None the identity."""
    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if x1 == x2:
            lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    R = None
    while k:
        if k & 1:
            R = add(R, P)
        P = add(P, P)
        k >>= 1
    return R


def cm_trace(A, B, p, rng):
    """The trace of y^2 = x^3 + Ax + B over F_p, p > 229, for B = 0 and
    p = 1 (mod 4) or A = 0 and p = 1 (mod 3).  The Frobenius is a unit times
    pi with p = pi * conj(pi): for p = a^2 + b^2 the candidates are +-2a and
    +-2b; for p = x^2 + 3y^2, +-2x and +-(x +- 3y).  Random points on the
    curve (killed by p + 1 - t) and on its quadratic twist (killed by
    p + 1 + t) eliminate all but one (Mestre)."""
    if B == 0:
        a, b = cornacchia(1, p)
        cands = {2 * a, -2 * a, 2 * b, -2 * b}
    else:
        x, y = cornacchia(3, p)
        cands = {s * t for s in (1, -1) for t in (2 * x, x + 3 * y, x - 3 * y)}
    d = least_nonsquare(p)
    sides = ((A, B, 1), (A * d * d % p, B * d * d * d % p, -1))
    for i in range(200):
        if len(cands) == 1:
            return cands.pop()
        a_, b_, sign = sides[i % 2]
        while True:
            X = rng.randrange(p)
            rhs = (X * X * X + a_ * X + b_) % p
            if chi_p(rhs, p) == 1:
                break
        P = (X, sqrt_fp(rhs, p))
        cands = {t for t in cands if ec_mul(p + 1 - sign * t, P, a_, p) is None}
    raise AssertionError(f"trace candidates {cands} not separated at p = {p}")


def shift_scale_by_rebuilds(f, r, k, R):
    """f(p x + r) / p^k over the residue ring R (Integers or QuadOrder) by
    Horner in the scaled variable, acc -> acc * (p x + r) + c, rebuilding
    the polynomial at each step: the formula the in-place shift_scale
    replaced."""
    p = R.p
    acc = []
    for c in reversed(f):
        if not acc:
            acc = [c]
            continue
        acc = ([R.add(R.mul(r, acc[0]), c)]
               + [R.add(R.smul(p, a), R.mul(r, b)) for a, b in zip(acc, acc[1:])]
               + [R.smul(p, acc[-1])])
    return tuple(R.exact_div_pk(c, k) for c in acc)
