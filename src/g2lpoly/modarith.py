"""Exact arithmetic over Z, F_p, F_{p^2} = F_p[z]/(ubar), and orders Z[z]/(u).

Elements of F_p are plain ints reduced to [0, p), with the modulus carried
alongside.  Elements of the quadratic extension and of the order are (c0, c1)
pairs of ints giving coordinates with respect to the basis {1, z}.

Integers(p) and QuadOrder are the residue rings R of the descents, with
residue field R.kappa = R/pR.  Their one interface (the attributes p, kappa
and zero; the methods add, mul, smul, exact_div_pk and reduce) lets one
shift-and-scale and one recentring loop serve both.  The constants zero,
one and gen (the class of z) are class attributes on every field and ring
that has them.

Fp and Fp2 test squares by chi_p (of the norm, over F_{p^2}) and take no
square roots.  The one square root is sqrt_mod_p, Tonelli-Shanks on plain
ints with a nonsquare witness: type 2a's two centres need it, with the
least nonsquare, and nothing else in the package does.
Each field's raw-int pm_round (x(C +- T) over a table, two per shared
denominator, and P + S, all for one inversion), ec_add and xq_mod (x^q mod
a depressed monic cubic or quartic) serve the genus 1 BSGS.
"""

import operator

from .errors import BadWitness, InexactDivision, NonResidue, NotOddPrime


def check_odd_prime_modulus(p):
    """Reject moduli that are structurally wrong (primality itself is trusted)."""
    if p < 3 or p % 2 == 0:
        raise NotOddPrime(f"modulus {p} is not an odd prime")


# (bound, bases): Miller-Rabin to these bases decides primality below bound
_MR_BASES = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (4_759_123_141, (2, 7, 61)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the smallest known deterministic base set for n.

    Exact below 3.3e24; above that, n passing all thirteen prime bases up to
    41 is a strong probable prime.
    """
    if n < 2:
        return False
    # trial division by every base, so that no base is a multiple of n
    for sp in _MR_BASES[-1][1]:
        if n % sp == 0:
            return n == sp
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = next((b for bound, b in _MR_BASES if n < bound), _MR_BASES[-1][1])
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    check_odd_prime_modulus(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_p(a: int, p: int, s: int | None = None) -> int:
    """Square root of a mod p, by Tonelli-Shanks (Cohen, GTM 138, Alg. 1.5.1).

    Returns the smaller of the two roots, i.e. the representative in
    [0, (p-1)/2].  The witness s must be a quadratic nonresidue; it is only
    consumed when p = 1 mod 4 but is validated whenever supplied.  Raises
    NotOddPrime before anything else, then BadWitness for a witness that is
    not a nonsquare, NonResidue for a nonsquare a, and BadWitness for a
    nonzero a at p = 1 mod 4 with no witness.  euler_factor reaches none of
    them: type 2a passes a square and the least nonsquare.
    """
    check_odd_prime_modulus(p)
    m, e = p - 1, 0
    while m % 2 == 0:
        m //= 2
        e += 1
    # Euler's criterion off the odd part: c^((p-1)/2) = (c^m)^(2^(e-1))
    half = 1 << (e - 1)
    if s is not None:
        y = pow(s, m, p)  # generator of the 2-Sylow subgroup
        if pow(y, half, p) != p - 1:
            raise BadWitness(f"{s} is not a nonsquare mod {p}")
    a %= p
    if a == 0:
        return 0
    x, b = pow(a, (m + 1) // 2, p), pow(a, m, p)
    if pow(b, half, p) != 1:
        raise NonResidue(f"{a} is not a square mod {p}")
    if p % 4 == 1 and s is None:
        raise BadWitness(f"a nonsquare witness is needed mod {p}")
    while b != 1:  # only when p = 1 mod 4
        k, t = 0, b
        while t != 1:
            t = t * t % p
            k += 1
        c = pow(y, 1 << (e - k - 1), p)
        x, y = x * c % p, c * c % p
        b, e = b * y % p, k
    return min(x, p - x)


def find_nonsquare(p: int, rng) -> int:
    """Random quadratic nonresidue mod p; Las Vegas, expected two draws."""
    while True:
        s = rng.randrange(p)
        if legendre(s, p) == -1:
            return s


def _square4(a, b, c, d):
    """The coefficients of (a + bx + cx^2 + dx^3)^2, constant first."""
    return (a * a, 2 * a * b, b * b + 2 * a * c, 2 * (a * d + b * c),
            c * c + 2 * b * d, 2 * c * d, d * d)


class Fp:
    """Prime field context.  Elements are plain ints in [0, p)."""

    __slots__ = ("p", "q")
    zero = 0
    one = 1

    def __init__(self, p: int):
        check_odd_prime_modulus(p)
        self.p = p
        self.q = p

    def __repr__(self):
        return f"Fp({self.p})"

    def __eq__(self, other):
        return isinstance(other, Fp) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def from_int(self, n):
        return n % self.p

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    smul = mul

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 mod {self.p}")
        return pow(a, -1, self.p)

    def is_square(self, a):
        return legendre(a, self.p) >= 0  # 0 counts as a square here

    def random(self, rng):
        return rng.randrange(self.p)

    def pm_round(self, C, table, pts, S):
        """([x(C + T)], [x(C - T)] for T in table, [P + S for P in pts]) on
        any curve y^2 = x^3 + Ax + B, on raw ints.  C + T and C - T share the
        denominator x(T) - x(C); all the denominators share one inversion
        through Montgomery's prefix products.  None if one of them is 0."""
        p, t, m, prefix = self.p, len(table), len(pts), [1]
        (xc, yc), (xs, ys) = C or (0, 0), S or (0, 0)
        for x, _ in pts:
            prefix.append(prefix[-1] * (x - xs) % p)
        for x, _ in table:
            prefix.append(prefix[-1] * (x - xc) % p)
        if not prefix[-1]:
            return None
        inv, sums, plus, minus = pow(prefix[-1], -1, p), [None] * m, [None] * t, [None] * t
        for i in range(t - 1, -1, -1):
            x, y = table[i]
            w = inv * prefix[m + i] % p
            inv = inv * (x - xc) % p
            lp, lm, s = (y - yc) * w % p, (y + yc) * w % p, x + xc
            plus[i], minus[i] = (lp * lp - s) % p, (lm * lm - s) % p
        for i in range(m - 1, -1, -1):
            x1, y1 = pts[i]
            lam = (y1 - ys) * inv * prefix[i] % p
            inv = inv * (x1 - xs) % p
            x3 = (lam * lam - x1 - xs) % p
            sums[i] = x3, (lam * (x1 - x3) - y1) % p
        return plus, minus, sums

    def ec_add(self, P, Q, A):
        """P + Q for affine P, Q on any curve y^2 = x^3 + Ax + B, on raw ints:
        the chord, or the tangent when P = Q; None (the identity) for Q = -P."""
        p = self.p
        (x1, y1), (x2, y2) = P, Q
        if x1 != x2:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        elif (y1 + y2) % p == 0:
            return None
        else:
            lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    def xq_mod(self, m):
        """x^q mod x^3 + a*x + b for m = (b, a), as three coefficients, or
        mod x^4 + a*x^2 + b*x + c for m = (c, b, a), as four, constant
        first, on raw ints: square, then multiply by x, once per bit of q
        below the leading one."""
        p = self.p
        if len(m) == 2:
            (b, a), (h0, h1, h2) = m, (0, 1, 0)
            for bit in bin(p)[3:]:
                # the square's x^3 and x^4 terms, reduced by x^3 = -(a x + b)
                s3, s4 = 2 * h1 * h2, h2 * h2
                s0, s1, s2 = (h0 * h0 - b * s3, 2 * h0 * h1 - a * s3 - b * s4,
                              h1 * h1 + 2 * h0 * h2 - a * s4)
                if bit == "1":  # times x: x^3 once more
                    t = s2 % p
                    s0, s1, s2 = -b * t, s0 - a * t, s1
                h0, h1, h2 = s0 % p, s1 % p, s2 % p
            return h0, h1, h2
        (c, b, a), h = m, (0, 1, 0, 0)
        for bit in bin(p)[3:]:
            s0, s1, s2, s3, s4, s5, s6 = _square4(*h)
            # x^4 = -(a x^2 + b x + c), applied to x^6, x^5, then x^4
            s4 = (s4 - a * s6) % p
            s0, s1, s2, s3 = (s0 - c * s4, s1 - b * s4 - c * s5,
                              s2 - a * s4 - b * s5 - c * s6, s3 - a * s5 - b * s6)
            if bit == "1":  # times x: x^4 once more
                t = s3 % p
                s0, s1, s2, s3 = -c * t, s0 - b * t, s1 - a * t, s2
            h = (s0 % p, s1 % p, s2 % p, s3 % p)
        return h


class Fp2:
    """F_p[z]/(z^2 + u1*z + u0) with the modulus irreducible mod p.

    Elements are (c0, c1) tuples of ints in [0, p).  The Frobenius map swaps
    the two roots of the modulus: z -> -u1 - z.
    """

    __slots__ = ("p", "u0", "u1", "q")
    zero = (0, 0)
    one = (1, 0)
    gen = (0, 1)

    def __init__(self, p: int, u0: int, u1: int):
        check_odd_prime_modulus(p)
        u0 %= p
        u1 %= p
        if legendre((u1 * u1 - 4 * u0) % p, p) != -1:
            raise ValueError(f"z^2 + {u1}z + {u0} is reducible mod {p}")
        self.p = p
        self.u0 = u0
        self.u1 = u1
        self.q = p * p

    def __repr__(self):
        return f"Fp2(p={self.p}, ubar=z^2+{self.u1}z+{self.u0})"

    def __eq__(self, other):
        return (
            isinstance(other, Fp2)
            and (other.p, other.u0, other.u1) == (self.p, self.u0, self.u1)
        )

    def __hash__(self):
        return hash(("Fp2", self.p, self.u0, self.u1))

    def from_int(self, n):
        return (n % self.p, 0)

    def is_zero(self, a):
        return a == (0, 0)

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(self, a):
        p = self.p
        return (-a[0] % p, -a[1] % p)

    def mul(self, a, b):
        p = self.p
        t = a[1] * b[1]
        return (
            (a[0] * b[0] - self.u0 * t) % p,
            (a[0] * b[1] + a[1] * b[0] - self.u1 * t) % p,
        )

    def smul(self, n, a):
        p = self.p
        return (n * a[0] % p, n * a[1] % p)

    def norm(self, a):
        """Norm to F_p: a * frobenius(a)."""
        c0, c1 = a
        return (c0 * c0 - self.u1 * c0 * c1 + self.u0 * c1 * c1) % self.p

    def frobenius(self, a):
        p = self.p
        return ((a[0] - self.u1 * a[1]) % p, -a[1] % p)

    def inv(self, a):
        n = self.norm(a)
        if n == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self!r}")
        ninv = pow(n, -1, self.p)
        c = self.frobenius(a)
        return (c[0] * ninv % self.p, c[1] * ninv % self.p)

    def is_square(self, a):
        return legendre(self.norm(a), self.p) >= 0  # chi_q(a) = chi_p(Norm(a))

    def random(self, rng):
        return (rng.randrange(self.p), rng.randrange(self.p))

    def pm_round(self, C, table, pts, S):
        """Fp.pm_round over F_{p^2} on coordinate ints: the F_p norms of the
        denominators d share one inversion, and 1/d = frob(d)/N(d)."""
        p, u0, u1, t, m = self.p, self.u0, self.u1, len(table), len(pts)
        norms, prefix = [], [1]
        (s0, s1), (t0, t1) = S or ((0, 0), (0, 0))
        (q0, q1), (v0, v1) = C or ((0, 0), (0, 0))
        for rows, c0, c1 in ((pts, s0, s1), (table, q0, q1)):
            for (a0, a1), _ in rows:
                d0, d1 = a0 - c0, a1 - c1
                n = (d0 * d0 - u1 * d0 * d1 + u0 * d1 * d1) % p
                norms.append(n)
                prefix.append(prefix[-1] * n % p)
        if not prefix[-1]:
            return None
        inv, sums, plus, minus = pow(prefix[-1], -1, p), [None] * m, [None] * t, [None] * t
        for i in range(t - 1, -1, -1):
            (a0, a1), (b0, b1) = table[i]
            ninv = inv * prefix[m + i] % p
            inv = inv * norms[m + i] % p
            # g = 1/d; x(C +- T) = lam^2 - x(T) - x(C) for lam = (y(T) -+ y(C)) g
            d1, e0, e1, n0, n1 = a1 - q1, a0 + q0, a1 + q1, b0 - v0, b1 - v1
            g0, g1 = (a0 - q0 - u1 * d1) * ninv % p, -d1 * ninv % p
            r = n1 * g1
            l0, l1 = (n0 * g0 - u0 * r) % p, (n0 * g1 + n1 * g0 - u1 * r) % p
            r, n0, n1 = l1 * l1, b0 + v0, b1 + v1
            plus[i] = (l0 * l0 - u0 * r - e0) % p, (2 * l0 * l1 - u1 * r - e1) % p
            r = n1 * g1
            l0, l1 = (n0 * g0 - u0 * r) % p, (n0 * g1 + n1 * g0 - u1 * r) % p
            r = l1 * l1
            minus[i] = (l0 * l0 - u0 * r - e0) % p, (2 * l0 * l1 - u1 * r - e1) % p
        for i in range(m - 1, -1, -1):
            (a0, a1), (b0, b1) = pts[i]
            ninv = inv * prefix[i] % p
            inv = inv * norms[i] % p
            # lam = (y - ys) * frob(d) / N(d), with frob(d) = (c0, -d1)
            d1, e0, e1 = a1 - s1, b0 - t0, b1 - t1
            c0, r = a0 - s0 - u1 * d1, -e1 * d1
            l0 = (e0 * c0 - u0 * r) * ninv % p
            l1 = (e1 * c0 - e0 * d1 - u1 * r) * ninv % p
            r = l1 * l1
            x0, x1 = (l0 * l0 - u0 * r - a0 - s0) % p, (2 * l0 * l1 - u1 * r - a1 - s1) % p
            w0, w1 = a0 - x0, a1 - x1
            r = l1 * w1
            sums[i] = ((x0, x1), ((l0 * w0 - u0 * r - b0) % p,
                                  (l0 * w1 + l1 * w0 - u1 * r - b1) % p))
        return plus, minus, sums

    def ec_add(self, P, Q, A):
        """Fp.ec_add over F_{p^2}, affine P, Q: slope n/d, 1/d = frob(d)/N(d) as in pm_round."""
        p, u0, u1 = self.p, self.u0, self.u1
        ((a0, a1), (b0, b1)), ((c0, c1), (e0, e1)) = P, Q
        if a0 != c0 or a1 != c1:
            n0, n1, d0, d1 = e0 - b0, e1 - b1, c0 - a0, c1 - a1
        elif (b0 + e0) % p == 0 and (b1 + e1) % p == 0:
            return None
        else:
            t = a1 * a1
            n0, n1 = 3 * (a0 * a0 - u0 * t) + A[0], 3 * (2 * a0 * a1 - u1 * t) + A[1]
            d0, d1 = 2 * b0, 2 * b1
        ninv = pow((d0 * d0 - u1 * d0 * d1 + u0 * d1 * d1) % p, -1, p)
        f0 = d0 - u1 * d1  # frob(d) = (f0, -d1)
        t = -n1 * d1
        l0 = (n0 * f0 - u0 * t) * ninv % p
        l1 = (n1 * f0 - n0 * d1 - u1 * t) * ninv % p
        t = l1 * l1
        x0 = (l0 * l0 - u0 * t - a0 - c0) % p
        x1 = (2 * l0 * l1 - u1 * t - a1 - c1) % p
        w0, w1 = a0 - x0, a1 - x1
        t = l1 * w1
        return (x0, x1), ((l0 * w0 - u0 * t - b0) % p, (l0 * w1 + l1 * w0 - u1 * t - b1) % p)

    def xq_mod(self, m):
        """Fp.xq_mod over F_{p^2}, m = (b, a) or (c, b, a) pairs: x^q = (x^p)^p
        is sum frob(h_i) h^i for h = x^p, by squarings mod m.  The cubic needs
        h^2 only; the quartic's h^3 comes from the squares h^2, h^4 and
        (h + h^2)^2 = h^2 + 2h^3 + h^4.  (X + zY)^2 comes from the F_p squares
        X^2, Y^2, (X + Y)^2, and a pair t reduces as t0*m_j + t1*z*m_j."""
        p, u0, u1 = self.p, self.u0, self.u1
        cubic, n = len(m) == 2, len(m) + 1
        (c0, c1, cz0, cz1), (b0, b1, bz0, bz1), (a0, a1, az0, az1) = [
            (m0, m1, -u0 * m1, m0 - u1 * m1) for m0, m1 in ((0, 0), *m)[not cubic:]]

        def square3(x, y, shift=False):
            (x0, x1, x2), (y0, y1, y2) = x, y
            w0, w1, w2 = x0 + y0, x1 + y1, x2 + y2
            X0, X1, X2, X3, X4 = x0 * x0, 2 * x0 * x1, x1 * x1 + 2 * x0 * x2, 2 * x1 * x2, x2 * x2
            Y0, Y1, Y2, Y3, Y4 = y0 * y0, 2 * y0 * y1, y1 * y1 + 2 * y0 * y2, 2 * y1 * y2, y2 * y2
            r0, r1, r2, r3, r4 = (X0 - u0 * Y0, X1 - u0 * Y1, X2 - u0 * Y2, X3 - u0 * Y3,
                                  X4 - u0 * Y4)
            v = 1 + u1  # (X + Y)^2 - X^2 - (1 + u1) Y^2
            i0, i1, i2, i3, i4 = (w0 * w0 - X0 - v * Y0, 2 * w0 * w1 - X1 - v * Y1,
                                  w1 * w1 + 2 * w0 * w2 - X2 - v * Y2, 2 * w1 * w2 - X3 - v * Y3,
                                  w2 * w2 - X4 - v * Y4)
            # x^3 = -(a x + b), applied to x^3 and x^4
            r0, r1, r2 = (r0 - r3 * b0 - i3 * bz0, r1 - r3 * a0 - i3 * az0 - r4 * b0 - i4 * bz0,
                          r2 - r4 * a0 - i4 * az0)
            i0, i1, i2 = (i0 - r3 * b1 - i3 * bz1, i1 - r3 * a1 - i3 * az1 - r4 * b1 - i4 * bz1,
                          i2 - r4 * a1 - i4 * az1)
            if shift:  # times x: x^3 once more
                t0, t1 = r2 % p, i2 % p
                r0, r1, r2 = -t0 * b0 - t1 * bz0, r0 - t0 * a0 - t1 * az0, r1
                i0, i1, i2 = -t0 * b1 - t1 * bz1, i0 - t0 * a1 - t1 * az1, i1
            return (r0 % p, r1 % p, r2 % p), (i0 % p, i1 % p, i2 % p)

        def square4(x, y, shift=False):
            X, Y = _square4(*x), _square4(*y)
            r0, r1, r2, r3, r4, r5, r6 = [s - u0 * t for s, t in zip(X, Y)]
            i0, i1, i2, i3, i4, i5, i6 = [s - r - (1 + u1) * t for s, r, t in zip(
                _square4(*[a + b for a, b in zip(x, y)]), X, Y)]
            # x^4 = -(a x^2 + b x + c), applied to x^6, x^5, then x^4
            r4 = (r4 - r6 * a0 - i6 * az0) % p
            i4 = (i4 - r6 * a1 - i6 * az1) % p
            r3 -= r6 * b0 + i6 * bz0 + r5 * a0 + i5 * az0
            i3 -= r6 * b1 + i6 * bz1 + r5 * a1 + i5 * az1
            r2 -= r6 * c0 + i6 * cz0 + r5 * b0 + i5 * bz0 + r4 * a0 + i4 * az0
            i2 -= r6 * c1 + i6 * cz1 + r5 * b1 + i5 * bz1 + r4 * a1 + i4 * az1
            r1 -= r5 * c0 + i5 * cz0 + r4 * b0 + i4 * bz0
            i1 -= r5 * c1 + i5 * cz1 + r4 * b1 + i4 * bz1
            r0 -= r4 * c0 + i4 * cz0
            i0 -= r4 * c1 + i4 * cz1
            if shift:  # times x: x^4 once more
                t0, t1 = r3 % p, i3 % p
                r0, r1, r2, r3 = (-t0 * c0 - t1 * cz0, r0 - t0 * b0 - t1 * bz0,
                                  r1 - t0 * a0 - t1 * az0, r2)
                i0, i1, i2, i3 = (-t0 * c1 - t1 * cz1, i0 - t0 * b1 - t1 * bz1,
                                  i1 - t0 * a1 - t1 * az1, i2)
            return (r0 % p, r1 % p, r2 % p, r3 % p), (i0 % p, i1 % p, i2 % p, i3 % p)

        square = square3 if cubic else square4
        zero = (0,) * n
        h = (0, 1, *zero[2:]), zero
        for bit in bin(p)[3:]:
            h = square(*h, bit == "1")
        h2 = square(*h)
        powers = [((1, *zero[1:]), zero), h, h2]
        if not cubic:
            h4 = square(*h2)
            s = square(*([a + b for a, b in zip(u, v)] for u, v in zip(h, h2)))
            powers.append([[(a - b - c) * (p + 1) // 2 % p for a, b, c in zip(*w)]
                           for w in zip(s, h2, h4)])
        re, im = [0] * n, [0] * n
        for (f0, f1), (P, Q) in zip(zip(*h), powers):
            f0, f1 = f0 - u1 * f1, -f1  # frob(f0 + f1 z) = (f0 - u1 f1) - f1 z
            for k in range(n):
                t = f1 * Q[k]
                re[k] += f0 * P[k] - u0 * t
                im[k] += f0 * Q[k] + f1 * P[k] - u1 * t
        return tuple((a % p, b % p) for a, b in zip(re, im))


class Integers:
    """The ring Z with the prime p singled out, residue field kappa = F_p.

    Elements are plain ints; the interface is QuadOrder's.
    """

    __slots__ = ("p", "kappa", "reduce")
    zero = 0
    # the builtin operators, as taylor_shift's inner loop calls them
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    smul = staticmethod(operator.mul)

    def __init__(self, p: int):
        self.kappa = Fp(p)  # validates the modulus
        self.p = p
        # the reduction map onto kappa = Z/pZ, a -> a % p, as a C-level call
        self.reduce = p.__rmod__

    def exact_div_pk(self, a, k: int):
        """Divide by p^k exactly; no InexactDivision leaves euler_factor (recentre converts it)."""
        q, r = divmod(a, self.p**k)
        if r:
            raise InexactDivision(f"{a} is not divisible by {self.p}^{k}")
        return q


class QuadOrder:
    """The ring O = Z[z]/(z^2 + u1*z + u0), with residue field F_{p^2}.

    Requires the reduction of the modulus to be irreducible mod p, so that
    O/pO is the field kappa = F_p[z]/(ubar).  Elements are (a0, a1) pairs of
    arbitrary-precision ints.
    """

    __slots__ = ("u0", "u1", "p", "kappa")
    zero = (0, 0)
    gen = (0, 1)

    def __init__(self, u0: int, u1: int, p: int):
        self.kappa = Fp2(p, u0 % p, u1 % p)  # validates irreducibility mod p
        self.u0 = u0
        self.u1 = u1
        self.p = p

    def __repr__(self):
        return f"QuadOrder(z^2+{self.u1}z+{self.u0}, p={self.p})"

    def from_int(self, n):
        return (n, 0)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        t = a[1] * b[1]
        return (a[0] * b[0] - self.u0 * t, a[0] * b[1] + a[1] * b[0] - self.u1 * t)

    def smul(self, n, a):
        return (n * a[0], n * a[1])

    def conj(self, a):
        return (a[0] - self.u1 * a[1], -a[1])

    def exact_div_pk(self, a, k: int):
        """Integers.exact_div_pk on both coordinates; euler_factor never lets its error out."""
        d = self.p**k
        q0, r0 = divmod(a[0], d)
        q1, r1 = divmod(a[1], d)
        if r0 or r1:
            raise InexactDivision(f"{a} is not divisible by {self.p}^{k}")
        return (q0, q1)

    def reduce(self, a):
        """The reduction map onto kappa = O/pO."""
        return (a[0] % self.p, a[1] % self.p)
