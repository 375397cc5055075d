import random

import pytest

from g2lpoly.errors import BadWitness, InexactDivision, NonResidue, NotOddPrime
from g2lpoly.genus1 import _Curve
from g2lpoly.modarith import (
    Fp,
    Fp2,
    Integers,
    QuadOrder,
    find_nonsquare,
    is_prime,
    legendre,
    sqrt_mod_p,
)

from _util import SMALL_PRIMES, fp2_elements, fp2_with_u1, random_point, sqrt_field


def test_legendre_examples():
    assert legendre(1, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(14, 7) == 0


def test_legendre_multiplicative():
    rng = random.Random(1)
    for _ in range(300):
        p = rng.choice(SMALL_PRIMES)
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_rejects_bad_modulus():
    from g2lpoly.errors import NotOddPrime

    with pytest.raises(NotOddPrime):
        legendre(3, 8)
    with pytest.raises(NotOddPrime):
        legendre(3, 1)


def test_sqrt_examples():
    assert sqrt_mod_p(2, 7, 3) == 3
    assert sqrt_mod_p(0, 13, 2) == 0
    assert sqrt_mod_p(4, 13, 2) == 2


def test_sqrt_random_roundtrip():
    rng = random.Random(2)
    for _ in range(1000):
        p = rng.choice(SMALL_PRIMES + (101, 257, 65537, 105269))
        a = rng.randrange(p)
        s = find_nonsquare(p, rng)
        x = sqrt_mod_p(a * a % p, p, s)
        assert x * x % p == a * a % p
        assert x <= p - x  # deterministic tie-break: smaller representative


def test_sqrt_errors():
    with pytest.raises(NonResidue):
        sqrt_mod_p(3, 7, 5)
    with pytest.raises(BadWitness):
        sqrt_mod_p(2, 7, 2)  # 2 is a square mod 7
    with pytest.raises(BadWitness):
        sqrt_mod_p(3, 13, None)  # p = 1 mod 4 needs a witness
    # the modulus is checked first, at every a, a = 0 included
    for a, p in ((0, 4), (1, 4), (0, 2), (0, 1), (4, -7)):
        with pytest.raises(NotOddPrime):
            sqrt_mod_p(a, p)


def test_find_nonsquare():
    rng = random.Random(3)
    assert find_nonsquare(3, rng) == 2
    for _ in range(50):
        p = rng.choice(SMALL_PRIMES)
        s = find_nonsquare(p, rng)
        assert pow(s, (p - 1) // 2, p) == p - 1
    assert find_nonsquare(7, rng) in (3, 5, 6)


def test_find_nonsquare_draws_up_to_its_first_nonsquare():
    # the draws of rng.randrange(p) up to the first nonsquare, and no more,
    # so that a caller's stream after it is the one it always was
    for p in (3, 13, 7681, 65537, 2**61 - 1):
        for seed in range(20):
            rng, twin = random.Random(seed), random.Random(seed)
            s = find_nonsquare(p, rng)
            t = twin.randrange(p)
            while pow(t, (p - 1) // 2, p) != p - 1:
                t = twin.randrange(p)
            assert s == t and rng.getstate() == twin.getstate()


def test_fp2_defining_relation():
    F = Fp2(3, 1, 0)  # z^2 + 1
    assert F.mul((0, 1), (0, 1)) == (2, 0)  # z*z = -1


def test_fp2_frobenius_is_conjugation():
    F = Fp2(7, 1, 0)
    rng = random.Random(4)
    for _ in range(50):
        c0, c1 = rng.randrange(7), rng.randrange(7)
        assert F.frobenius((c0, c1)) == (c0, (-c1) % 7)


def test_fp2_inverse_of_z_over_f9():
    F = Fp2(3, 1, 0)
    # brute force: the unique element with z*w = 1 is 2z
    hits = [w for w in fp2_elements(3) if F.mul((0, 1), w) == (1, 0)]
    assert hits == [(0, 2)]
    assert F.inv((0, 1)) == (0, 2)


def test_fp2_field_axioms_random():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice(SMALL_PRIMES)
        while True:
            u0, u1 = rng.randrange(p), rng.randrange(p)
            if legendre(u1 * u1 - 4 * u0, p) == -1:
                break
        F = Fp2(p, u0, u1)
        x, y, z = F.random(rng), F.random(rng), F.random(rng)
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.mul(x, y) == F.mul(y, x)
        if not F.is_zero(x):
            assert F.mul(x, F.inv(x)) == F.one
        # Frobenius has order dividing 2 and is a ring morphism
        assert F.frobenius(F.frobenius(x)) == x
        assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))


def test_fp2_frobenius_fixes_exactly_fp():
    F = Fp2(5, 2, 1)
    fixed = [x for x in fp2_elements(5) if F.frobenius(x) == x]
    assert sorted(fixed) == [(c, 0) for c in range(5)]


def test_fp2_division_by_zero():
    F = Fp2(3, 1, 0)
    with pytest.raises(ZeroDivisionError):
        F.inv((0, 0))


# (p, u0): Fp(p) and sqrt_mod_p when u0 is None, else Fp2(p, u0, 0) =
# F_p[z]/(z^2 + u0) and the tests' own root, random_point's.  2^e || q - 1
# with e = 1 (10007), 9 (7681), 16 (65537) and 17 (65537^2, where 3 is a
# primitive root, so z^2 - 3 is irreducible).
@pytest.mark.parametrize(
    "p, u0, e", [(10007, None, 1), (7681, None, 9), (65537, None, 16), (65537, -3, 17)]
)
def test_field_sqrt_and_nonsquare(p, u0, e):
    rng = random.Random(p + e)
    s = find_nonsquare(p, rng)
    assert legendre(s, p) == -1
    if u0 is None:
        F, g = Fp(p), pow(s, (p - 1) >> e, p)

        def root(a):
            r = sqrt_mod_p(a, p, s)
            assert r <= p - r
            return r
    else:
        # N(z) = u0 is a nonsquare, so z is one of F_{p^2}, and with z^2 = -u0
        # the power z^m, m = (q - 1) / 2^e, is z (-u0)^((m - 1) / 2)
        F = Fp2(p, u0, 0)
        g = (0, pow(-u0, (((F.q - 1) >> e) - 1) // 2, p))

        def root(a):
            return sqrt_field(F, a)

    assert (F.q - 1) % (1 << e) == 0 and (F.q - 1) >> e & 1
    # squares of random elements, and of the powers of g, a generator of the
    # 2-Sylow subgroup, which drive Tonelli-Shanks through every depth
    xs = [F.random(rng) for _ in range(100)] + [g]
    for _ in range(2, 2 * e):
        xs.append(F.mul(xs[-1], g))
    for x in xs:
        sq = F.mul(x, x)
        assert root(sq) in (x, F.neg(x))
        if u0 is None and x:
            with pytest.raises(NonResidue):
                sqrt_mod_p(s * sq, p, s)
    # no witness: the same root when p = 3 mod 4, BadWitness when 4 | p - 1
    if u0 is None:
        sq = xs[-1] * xs[-1] % p
        if p % 4 == 1:
            with pytest.raises(BadWitness):
                sqrt_mod_p(sq, p)
        else:
            assert sqrt_mod_p(sq, p) == root(sq)


def test_order_reduce_fixes_residues():
    # elements of kappa already are representatives in O
    o = QuadOrder(2, 0, 5)
    for x in fp2_elements(5):
        assert o.reduce(x) == x


def test_order_reduce_example():
    o = QuadOrder(2, 0, 5)
    assert o.reduce((3, 7)) == (3, 2)


def test_order_exact_division():
    o = QuadOrder(2, 0, 5)
    assert o.exact_div_pk((25, 50), 2) == (1, 2)
    with pytest.raises(InexactDivision):
        o.exact_div_pk((25, 51), 2)
    Z = Integers(5)
    assert Z.exact_div_pk(-50, 2) == -2
    with pytest.raises(InexactDivision):
        Z.exact_div_pk(51, 2)


def test_order_reduction_is_ring_morphism():
    rng = random.Random(7)
    o = QuadOrder(3, 2, 7)  # z^2 + 2z + 3, irreducible mod 7
    Z = Integers(7)

    def draw(R):
        x = tuple(rng.randrange(-(10**9), 10**9) for _ in range(2))
        return x if R is o else x[0]

    for R in (o, Z):
        K = R.kappa
        for _ in range(100):
            x, y, n = draw(R), draw(R), rng.randrange(-99, 100)
            assert R.reduce(R.mul(x, y)) == K.mul(R.reduce(x), R.reduce(y))
            assert R.reduce(R.add(x, y)) == K.add(R.reduce(x), R.reduce(y))
            assert R.reduce(R.smul(n, x)) == K.smul(n, R.reduce(x))


def test_order_conjugation_fixes_integers():
    o = QuadOrder(1, 1, 11)
    assert o.conj((9, 0)) == (9, 0)
    x = (5, 7)
    n = o.mul(x, o.conj(x))
    assert n[1] == 0  # norms are rational integers


def test_fp_field_interface():
    F = Fp(13)
    rng = random.Random(8)
    x = F.random(rng)
    if x:
        assert F.mul(x, F.inv(x)) == 1
    assert F.is_square(4) and not F.is_square(2)
    assert F.q == 13


def test_is_prime_matches_sieve():
    n_max = 20000
    sieve = [True] * n_max
    sieve[0] = sieve[1] = False
    for i in range(2, n_max):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert [n for n in range(-5, n_max) if is_prime(n)] == [
        n for n in range(n_max) if sieve[n]
    ]


def test_is_prime_strong_pseudoprimes_and_large_primes():
    # Carmichael numbers and strong pseudoprimes to the first few prime
    # bases, several sitting exactly on a bound of the base table
    composites = (
        25, 561, 2047, 41041, 1373653, 25326001, 3215031751, 4759123141,
        2152302898747, 3474749660383, 341550071728321,
        3825123056546413051, (2**61 - 1) * (2**31 - 1),
    )
    for n in composites:
        assert not is_prime(n), n
    primes = (2**31 - 1, 2**61 - 1, 2**64 - 59, 2**89 - 1, 2**127 - 1)
    for n in primes:
        assert is_prime(n), n


def test_pm_round_matches_curve_addition():
    # x(C + T) and x(C - T) for tables of 0, 1, 7 and 32 entries, two of them
    # of order 2 where the table is long enough, and P + S for 0, 1 and 5
    # points, in one round, against adding point by point; z^2 + z + 11
    # exercises the u1 terms that z^2 + 11 leaves out
    rng = random.Random(9)
    for F in (Fp(13), Fp(2**61 - 1), Fp2(1009, 11, 0), Fp2(1009, 11, 1)):
        # distinct roots x0, x1 and -x0 - x1 of x^3 + Ax + B give the points
        # of order 2
        x0 = x1 = F.zero
        while len({x0, x1, F.neg(F.add(x0, x1))}) < 3:
            x0, x1 = F.random(rng), F.random(rng)
        A = F.neg(F.add(F.add(F.mul(x0, x0), F.mul(x0, x1)), F.mul(x1, x1)))
        curve = _Curve(F, A, F.neg(F.mul(x0, F.add(F.mul(x0, x0), A))))
        two = [(x0, F.zero), (x1, F.zero)]
        assert all(curve.add(T, T) is None for T in two)
        neg = lambda P: (P[0], F.neg(P[1]))
        for n, m in ((0, 1), (1, 0), (7, 5), (32, 1)):
            C, S = two[0], random_point(curve, rng)
            while C[0] in (x0, x1):
                C = random_point(curve, rng)
            # random_point's roots put its points on the curve
            for x, y in [C, S]:
                assert F.mul(y, y) == F.add(F.mul(x, F.add(F.mul(x, x), curve.A)), curve.B)
            draws = [random_point(curve, rng) for _ in range(3 * n + 3 * m + 6)]
            table = [T for T in two * (n >= 7) + draws if T[0] != C[0]][:n]
            pts = [P for P in draws if P[0] != S[0]][:m]
            assert len(table) == n and len(pts) == m
            assert n < 7 or set(two) <= set(table)
            plus, minus, sums = F.pm_round(C, table, pts, S)
            assert plus == [curve.add(C, T)[0] for T in table]
            assert minus == [curve.add(C, neg(T))[0] for T in table]
            assert sums == [curve.add(P, S) for P in pts]
        # a centre with the x of a table entry has no chord, and a walk must
        # never hand it to the round: the batched inversion would fail, and
        # the round gives None, as for a point sharing x with S
        T = random_point(curve, rng)
        for C in (T, neg(T)):
            assert F.pm_round(C, [random_point(curve, rng), T], [], None) is None
            assert F.pm_round(None, (), [random_point(curve, rng), C], T) is None


def test_fp_inverse_matches_fermat():
    rng = random.Random(10)
    F = Fp(2**61 - 1)
    for _ in range(20):
        a = rng.randrange(1, F.p)
        assert F.inv(a) == pow(a, F.p - 2, F.p)


def _xq_reference(F, m):
    """x^q mod x^3 + a x + b for m = (b, a), or mod x^4 + a x^2 + b x + c
    for m = (c, b, a), by q - 1 products by x through the field's methods."""
    low = (*m, F.zero)  # the modulus below its leading x^n
    h = [F.zero, F.one] + [F.zero] * (len(low) - 2)
    for _ in range(F.q - 1):
        t = h[-1]
        h = [F.sub(c, F.mul(t, d)) for c, d in zip([F.zero, *h[:-1]], low)]
    return tuple(h)


def test_xq_mod_matches_repeated_products():
    # q - 1 products by x against the raw-int square-and-multiply over F_p
    # and the Frobenius route x^q = sum frob(h_i) h^i over F_{p^2}, for
    # random cubics x^3 + a x + b and quartics x^4 + a x^2 + b x + c, with
    # b = 0 and c = 0 (x times a cubic) included; z^2 + u1 z + u0 with
    # u1 != 0 reaches the u1 terms
    rng = random.Random(60)
    fields = [Fp(p) for p in (3, 5, 7, 101, 1009, 7919)]
    fields += [Fp2(p, -find_nonsquare(p, rng) % p, 0) for p in (3, 7, 23, 61)]
    fields += [Fp2(31, 2, 1)] + [fp2_with_u1(p, rng) for p in (3, 5, 23, 61)]
    for F in fields:
        for low_zero in (False, True):
            low = F.zero if low_zero else F.random(rng)
            for m in ((low, F.random(rng)), (low, F.random(rng), F.random(rng))):
                assert F.xq_mod(m) == _xq_reference(F, m), (F, m)
