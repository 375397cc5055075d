"""Dense polynomial arithmetic of degree <= 6 over Z, F_p, F_{p^2}, and orders.

Polynomials are little-endian coefficient tuples with no trailing zeros:
index i holds the coefficient of x^i, and the zero polynomial is ().  Over
F_{p^2} and over an order the coefficients are (c0, c1) pairs.

One shift f(x + r), taylor_shift over Z or a residue ring R from modarith
(Integers(p) for Z, a QuadOrder for the unramified quadratic order), serves
the descent step f(p x + r) / p^k (shift_scale), the type 1 and type 4 cut
and the oracle's plants; reduce_poly is the one reduction R[x] -> kappa[x].
Over F_p, fp_gcd_k reads repeated factors off gcds of derivatives alone
(fp_gcd, on raw ints), once each root in F_p is stripped by synthetic
division at p <= deg f; every other gcd is field_gcd, over Fp or Fp2.
"""

from math import comb

from .errors import DegreeError
from .modarith import Integers, QuadOrder

# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------


def trim(f, zero=0):
    f = tuple(f)
    n = len(f)
    while n and f[n - 1] == zero:
        n -= 1
    return f[:n]


def deg(f) -> int:
    """Degree, with deg(0) = -1."""
    return len(f) - 1


def poly_add(f, g):
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return trim(a + b for a, b in zip(f, g))


def poly_sub(f, g):
    return poly_add(f, poly_scale(g, -1))


def poly_mul(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def poly_scale(f, c):
    if c == 0:
        return ()
    return tuple(a * c for a in f)


def poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_derivative(f):
    return trim([i * f[i] for i in range(1, len(f))])


def taylor_shift(f, r, R=None):
    """f(x + r), by repeated synthetic division by x - r on one list: over
    Z, trimmed, or over a residue ring R (Integers(p), a QuadOrder) through
    R.add and R.mul, at the length of f."""
    c = list(trim(f) if R is None else f)
    add, mul = (R or Integers).add, (R or Integers).mul
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] = add(c[j], mul(r, c[j + 1]))
    return tuple(c)


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer: six divisions by p, then, for
    a larger valuation, by p^(2^i) for rising and then falling i."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == 6:
            pows = [p]
            while n % pows[-1] == 0:
                pows.append(pows[-1] * pows[-1])
            for i in range(len(pows) - 2, -1, -1):
                if n % pows[i] == 0:
                    n //= pows[i]
                    v += 1 << i
    return v


def min_vp(f, p: int) -> int:
    """Minimum p-adic valuation over the nonzero coefficients."""
    return min(vp(c, p) for c in f if c != 0)


def reduce_mod(f, p: int):
    """Reduction Z[x] -> F_p[x]; the degree may drop."""
    return trim([c % p for c in f])


def reverse6(f):
    """x^6 * f(1/x) for f of degree 5: trades the root at infinity for 0."""
    if deg(f) != 5:
        raise DegreeError("reversal expects a quintic")
    return trim((0,) + tuple(reversed(f)))


def complete_square(f, h):
    """4f + h^2: the curve y^2 + h(x)y = f(x) rewritten as Y^2 = 4f + h^2.

    Away from 2 the two models are isomorphic, so every odd-p Euler factor
    is preserved.  p_normalize rejects a result that is not a squarefree
    sextic or quintic.
    """
    return poly_add(poly_scale(f, 4), poly_mul(h, h))


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------

_SIGN = {2: -1, 3: -1, 4: 1, 5: 1, 6: -1}  # (-1)^(d(d-1)/2)


def _prem(a, b):
    """Pseudo-remainder of a by b over Z: the remainder of lc(b)^(deg a - deg b + 1) a."""
    a = list(a)
    n, lb = len(b) - 1, b[-1]
    for k in range(len(a) - 1 - n, -1, -1):
        c = a.pop()
        a = [lb * x for x in a]
        for i in range(n):
            a[k + i] -= c * b[i]
    while a and a[-1] == 0:
        a.pop()
    return a


def _resultant(a, b):
    """Res(a, b) over Z for deg a > deg b >= 1, by the subresultant PRS
    (Cohen, GTM 138, Alg. 3.3.7, without the content split)."""
    g = h = s = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        m = g * h**delta
        a, b = b, [c // m for c in r]
        g = a[-1]
        h = g if delta == 1 else g**delta // h ** (delta - 1)
        if len(b) == 1:
            return s * b[0] ** db // h ** (db - 1)


def disc(f):
    """Discriminant of an integer polynomial of degree 2..6.

    (-1)^(d(d-1)/2) Res(f, f')/lc(f), with the resultant from the
    subresultant PRS of f and f', whose exact divisions keep the
    coefficients near the size of Res(f, f').  The closed form for a cubic
    over a field lives in field_disc.
    """
    d = deg(f)
    if d not in (2, 3, 4, 5, 6):
        raise DegreeError(f"discriminant needs degree 2..6, got {d}")
    res = _resultant(f, poly_derivative(f))
    q, r = divmod(_SIGN[d] * res, f[-1])
    assert r == 0, "Res(f, f') is always divisible by lc(f)"
    return q


def fp_disc(fbar, p: int):
    """Discriminant over F_p: the integer formula commutes with reduction."""
    return disc(fbar) % p


# ---------------------------------------------------------------------------
# F_p polynomials (int coefficients in [0, p))
# ---------------------------------------------------------------------------


def fp_mul(f, g, p):
    return reduce_mod(poly_mul(f, g), p)


def fp_scale(f, c, p):
    return reduce_mod(poly_scale(f, c), p)


def fp_eval(f, x, p):
    return poly_eval(f, x) % p


def fp_derivative(f, p):
    return reduce_mod(poly_derivative(f), p)


def fp_monic(f, p):
    if not f:
        return ()
    inv = pow(f[-1], -1, p)
    return tuple(c * inv % p for c in f)


def fp_gcd(f, g, p):
    """Monic gcd over F_p: Euclid's remainder loop on two lists.

    Each remainder step pops the leading coefficient c of a and subtracts
    (c / lc b) x^k b from what is left, nothing when c = 0, then trims a.
    """
    a, b = list(reduce_mod(f, p)), list(reduce_mod(g, p))
    while b:
        n = len(b) - 1
        inv = pow(b[-1], -1, p)
        for k in range(len(a) - 1 - n, -1, -1):
            c = a.pop() * inv % p
            if c:
                for i in range(n):
                    a[k + i] = (a[k + i] - c * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return fp_monic(a, p)


def fp_gcd_k(f, k: int, p: int):
    """(deg gcd(f, f'), the multiplicity-k kernel) for k >= 2, where the
    kernel is the product of g^(v_g(f)-k+1) over monic irreducible g with
    g^k | f, returned monic, and deg gcd(f, f') = sum of (v_g - 1) deg g.

    Both are read off gcd(f, f', ..., f^(k-1)), which is right while every
    multiplicity is below p.  At p <= deg f (p = 3 and 5 on a sextic) a
    root's multiplicity can reach p, so each root a in F_p is first
    stripped by synthetic division.  What is left has no root: below degree
    4 it is squarefree, and otherwise its multiplicities are at most 3, so
    it takes the same gcds, except lc q^3 at p = 3, whose derivative is 0.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    f = reduce_mod(f, p)
    if not f:
        raise ValueError("gcd_k of the zero polynomial")
    rep, out = 0, (1,)
    if p <= deg(f):
        for a in range(p):
            v = 0
            while True:
                acc, q = 0, []
                for c in reversed(f):
                    acc = (acc * a + c) % p
                    q.append(acc)
                if acc:
                    break
                v += 1
                q.pop()
                f = q[::-1]
            rep += max(v - 1, 0)
            for _ in range(v - k + 1):
                out = fp_mul(out, (-a % p, 1), p)
        if deg(f) < 4:
            return rep, out
    h = fp_derivative(f, p)
    if not h and deg(f) == 6:
        # lc q^3 at p = 3 with q irreducible: a^3 = a on F_3, so q is
        # lc^-1 (f0 + f3 x + f6 x^2)
        q = fp_monic(f[::3], p)
        for _ in range(4 - k):
            out = fp_mul(out, q, p)
        return rep + 4, out
    g = first = fp_gcd(f, h, p)
    for _ in range(k - 2):
        h = fp_derivative(h, p)
        g = fp_gcd(g, h, p)
    return rep + deg(first), g if out == (1,) else fp_mul(out, g, p)


# ---------------------------------------------------------------------------
# polynomials over a field object F, Fp or Fp2 (coefficients in F's own
# representation: ints in [0, p) or (c0, c1) pairs)
# ---------------------------------------------------------------------------


def fp2_scale(f, c, F):
    if F.is_zero(c):
        return ()
    return tuple(F.mul(a, c) for a in f)


def field_disc(g, F):
    """Discriminant of a trimmed cubic g over F (the genus 1 models' gate)."""
    if len(g) != 4:
        raise DegreeError(f"field discriminant needs a cubic, got degree {len(g) - 1}")
    mul, sub, smul = F.mul, F.sub, F.smul
    d0, c, b, a = g
    t1 = smul(18, mul(mul(a, b), mul(c, d0)))
    t2 = smul(4, mul(mul(b, b), mul(b, d0)))
    t3 = mul(mul(b, b), mul(c, c))
    t4 = smul(4, mul(a, mul(c, mul(c, c))))
    t5 = smul(27, mul(mul(a, a), mul(d0, d0)))
    return sub(sub(F.add(sub(t1, t2), t3), t4), t5)


def field_gcd(a, b, F):
    """Monic gcd over F, Fp or Fp2: fp_gcd's remainder loop through F's methods."""
    a, b = list(trim(a, F.zero)), list(trim(b, F.zero))
    while b:
        n = len(b) - 1
        inv = F.inv(b[-1])
        for k in range(len(a) - 1 - n, -1, -1):
            c = F.mul(a.pop(), inv)
            if not F.is_zero(c):
                for i in range(n):
                    a[k + i] = F.sub(a[k + i], F.mul(c, b[i]))
        while a and F.is_zero(a[-1]):
            a.pop()
        a, b = b, a
    return fp2_scale(a, F.inv(a[-1]), F) if a else ()


def power_root(g, k: int, F):
    """The r with g = lc(g) (x - r)^k when g of degree k has that shape, else None.

    Write k = p^e m with p not dividing m.  Then (x - r)^k = (x^(p^e) - s)^m
    with s = r^(p^e), so the x^(p^e (m-1)) coefficient of g is -m lc s.
    Frobenius is a bijection of F, so r = s^(q / p^e) (this needs p^e <= q,
    true for k <= 6 at odd p, where q / p^e is 1 over F_p and p over
    F_{p^2}).  The candidate is checked coefficient by
    coefficient from x^(k-1) down, up to the first that differs.
    """
    if len(g) != k + 1:
        return None
    pe, m = 1, k
    while m % F.p == 0:
        pe, m = pe * F.p, m // F.p
    lc = g[-1]
    s = F.neg(F.mul(g[pe * (m - 1)], F.inv(F.smul(m, lc))))
    r = F.frobenius(s) if F.q > pe > 1 else s
    mul, smul = F.mul, F.smul
    nr, t = F.neg(r), lc
    for j in range(k - 1, -1, -1):  # the x^j coefficient lc C(k, j) (-r)^(k - j)
        t = mul(t, nr)
        if smul(comb(k, j), t) != g[j]:
            return None
    return r


# ---------------------------------------------------------------------------
# polynomials over a residue ring R, Integers(p) or a QuadOrder (coefficients
# in R's own representation: ints or big-int pairs)
# ---------------------------------------------------------------------------


def shift_scale(f, r, k: int, R):
    """f(p x + r) / p^k over R: taylor_shift by r, then coefficient i times
    p^(i - k), where for i < k R.exact_div_pk checks that p^(k - i) divides
    it."""
    # a centre at 0 needs no shift, and most centres after the first step are 0
    c = f if r == R.zero else taylor_shift(f, r, R)
    p = R.p
    return tuple(
        R.smul(p ** (i - k), a) if i >= k else R.exact_div_pk(a, k - i)
        for i, a in enumerate(c)
    )


def reduce_poly(f, R):
    """Reduce R[x] -> kappa[x]; the degree may drop."""
    return trim(map(R.reduce, f), R.kappa.zero)


def order_poly_mul(f, g, order: QuadOrder):
    if not f or not g:
        return ()
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = order.add(out[i + j], order.mul(a, b))
    return tuple(out)


def order_poly_conj(f, order: QuadOrder):
    return tuple(order.conj(c) for c in f)
