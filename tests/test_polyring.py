import random
from itertools import product

import pytest

from g2lpoly.clusterclassify import p_normalize
from g2lpoly.errors import DegreeError, InexactDivision, NotSquarefree
from g2lpoly.genus1 import Genus1Model
from g2lpoly.modarith import Fp, Fp2, Integers, QuadOrder
from g2lpoly.polyring import (
    complete_square,
    deg,
    disc,
    field_disc,
    field_gcd,
    fp2_scale,
    fp_disc,
    fp_gcd,
    fp_gcd_k,
    fp_monic,
    fp_mul,
    poly_add,
    poly_derivative,
    poly_mul,
    poly_scale,
    power_root,
    reduce_mod,
    reduce_poly,
    shift_scale,
    taylor_shift,
    trim,
    vp,
)

from _util import (
    SMALL_PRIMES,
    fp2_elements,
    fp2_with_u1,
    fp_gcd_k_by_trial_division,
    fp_long_division,
    fp_monic_irreducibles,
    fp_squarefree_part,
    least_nonsquare,
    shift_scale_by_rebuilds,
    sylvester_resultant,
)


def _random_fp_poly(rng, p, d):
    c = [rng.randrange(p) for _ in range(d)]
    c.append(rng.randrange(1, p))
    return tuple(c)


# ---------------------------------------------------------------------- gcd_k


def test_gcd_k_triple_linear_factor():
    p = 7
    f = fp_mul(fp_mul(fp_mul((5, 1), (5, 1), p), (5, 1), p), (1, 1, 0, 1), p)
    assert fp_gcd_k(f, 3, p)[1] == (5, 1)  # (x-2)^3 * (x^3+x+1) -> x-2


def test_gcd_k_squarefree_is_one():
    p = 11
    f = (1, 1, 0, 0, 0, 0, 1)
    for k in range(2, 7):
        assert fp_gcd_k(f, k, p) == (0, (1,))


def test_gcd_k_exhaustive_branch_x6():
    assert fp_gcd_k((0, 0, 0, 0, 0, 0, 1), 6, 3) == (5, (0, 1))  # x^6 over F_3 -> x


def test_gcd_k_quadratic_cube_over_f3():
    # (x^2 + 1)^3 = x^6 + 1 over F_3, whose derivative is 0
    f = fp_mul(fp_mul((1, 0, 1), (1, 0, 1), 3), (1, 0, 1), 3)
    # independent enumeration of every monic quadratic over F_3
    hits = []
    for b in range(3):
        for c in range(3):
            g, h, v = (c, b, 1), f, 0
            while True:
                q, r = fp_long_division(h, g, 3)
                if r:
                    break
                h, v = q, v + 1
            if v >= 3:
                hits.append(g)
    assert hits == [(1, 0, 1)]
    assert fp_gcd_k(f, 3, 3) == (4, (1, 0, 1))
    assert fp_gcd_k(fp_mul(f, (2,), 3), 2, 3) == (4, fp_mul((1, 0, 1), (1, 0, 1), 3))


def test_gcd_k_divisibility_chain():
    rng = random.Random(10)
    for _ in range(100):
        p = rng.choice((7, 11, 13))
        f = _random_fp_poly(rng, p, rng.randrange(3, 7))
        prev = fp_monic(f, p)
        for k in range(2, 7):
            cur = fp_gcd_k(f, k, p)[1]
            assert not fp_long_division(prev, cur, p)[1]  # gcd_k | gcd_{k-1}
            prev = cur


def test_gcd_k_derivative_vs_exhaustive():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice((7, 11))
        # force interesting multiplicities
        a, b = rng.randrange(p), rng.randrange(p)
        f = fp_mul(
            fp_mul(fp_mul((a, 1), (a, 1), p), fp_mul((a, 1), (b, 1), p), p),
            _random_fp_poly(rng, p, rng.randrange(0, 2)),
            p,
        )
        if deg(f) > 6:
            continue
        rep = deg(fp_gcd_k_by_trial_division(f, 2, p))
        for k in (2, 3, 4):  # the degree of gcd(f, f') and the kernel
            assert fp_gcd_k(f, k, p) == (rep, fp_gcd_k_by_trial_division(f, k, p))


def _fp_product(factors, p, lc=1):
    out = (lc % p,)
    for g in factors:
        out = fp_mul(out, g, p)
    return out


def _small_char_sextics(p, rng):
    """Sextics over F_p (p = 3 or 5) of every repeated-factor pattern the
    small-characteristic route of gcd_k tells apart."""
    lin = [(-a % p, 1) for a in range(p)]
    quads = list(fp_monic_irreducibles(2, p))
    units = range(1, p)
    squarefree_cubics = [g for g in product(range(p), repeat=3)
                         if fp_squarefree_part(g + (1,), p) == g + (1,)]
    out = []
    for a in range(p):
        for u in rng.sample(squarefree_cubics, 8):  # lc (x - a)^3 u
            out.append(_fp_product([lin[a]] * 3 + [u + (1,)], p, rng.choice(units)))
        for b in range(p):
            if b != a:
                out.append(_fp_product([lin[a]] * 5 + [lin[b]], p))  # (x - a)^5 (x - b)
                out.append(_fp_product([fp_mul(lin[a], lin[b], p)] * 3, p,
                                       rng.choice(units)))  # lc g^3, g split
        out.append(_fp_product([lin[a]] * 6, p))  # (x - a)^6
    for g in quads:
        out.append(_fp_product([g] * 3, p, rng.choice(units)))  # lc g^3, g irreducible
        out.append(_fp_product([g] * 2 + [rng.choice(quads)], p))  # double roots only
        # two simple roots leave g^2 in a rest of degree 4, where the cube
        # of g does not fit
        out.append(_fp_product([lin[0], lin[1], g, g], p))
    for c in rng.sample(list(fp_monic_irreducibles(3, p)), 8):
        out.append(_fp_product([c, c], p, rng.choice(units)))  # lc c^2, no root
    for _ in range(30):  # double roots only: three distinct squared linear factors
        a, b, c = rng.sample(range(p), 3)
        out.append(_fp_product([lin[a], lin[a], lin[b], lin[b], lin[c], lin[c]], p))
    sextics = 0
    while sextics < 30:  # squarefree sextics
        f = _random_fp_poly(rng, p, 6)
        if fp_squarefree_part(f, p) == f:
            out.append(f)
            sextics += 1
    return out


def test_gcd_k_small_characteristic_matches_trial_division():
    # p <= deg f: the roots are stripped by evaluation and the rest goes
    # through the derivatives; the reference tries every monic irreducible
    # of degree <= deg f // k, and its gcd_2 has the degree of gcd(f, f').
    # At p = 3 every sextic is an input, at p = 5 the planted patterns.
    rng = random.Random(15)
    every_f3_sextic = [tail + (lc,) for lc in (1, 2) for tail in product(range(3), repeat=6)]
    for p, sextics in ((3, every_f3_sextic), (5, _small_char_sextics(5, rng))):
        kernels = set()
        for f in sextics:
            assert deg(f) == 6
            rep = deg(fp_gcd_k_by_trial_division(f, 2, p))
            for k in (2, 3, 4, 5, 6):
                want = fp_gcd_k_by_trial_division(f, k, p)
                assert fp_gcd_k(f, k, p) == (rep, want), (p, k, f)
                if k == 3:
                    kernels.add(deg(want))
        # (x - a)^5 (x - b) and (x - a)^6 give kernels of degree 3 and 4
        assert kernels == {0, 1, 2, 3, 4}


def test_gcd_k_rejects_bad_k():
    for k in (0, 1):
        with pytest.raises(ValueError):
            fp_gcd_k((1, 1), k, 7)


def test_divmod_and_gcd_properties():
    # the gcd is monic and divides both, and gcd(a c, b c) = monic(c)
    # gcd(a, b).  Sparse draws make remainder steps meet zero leading
    # coefficients.
    rng = random.Random(19)

    def draw(p, d):
        c = [rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(d)]
        return reduce_mod(c + [rng.randrange(1, p)], p)

    cases = [((1, 0, 0, 0, 1, 0, 1), (1, 0, 1), 3),  # x^6 + x^4 + 1 by x^2 + 1
             ((2, 0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), 5)]
    for p in (3, 5, 7, 8191):
        for _ in range(150):
            cases.append((draw(p, rng.randrange(0, 9)), draw(p, rng.randrange(0, 7)), p))
    for a, b, p in cases:
        g = fp_gcd(a, b, p)
        assert g[-1] == 1
        assert not fp_long_division(a, g, p)[1] and not fp_long_division(b, g, p)[1]
        c = draw(p, rng.randrange(0, 4))
        assert fp_gcd(fp_mul(a, c, p), fp_mul(b, c, p), p) == fp_mul(fp_monic(c, p), g, p)


# ----------------------------------------------------------------- power_root


def _elements(F):
    return list(fp2_elements(F.p)) if isinstance(F, Fp2) else list(range(F.p))


def _eval(g, x, F):
    acc = F.zero
    for c in reversed(g):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _times_linear(poly, r, F):
    """poly * (x - r) over F, schoolbook."""
    out = [F.zero] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] = F.add(out[i + 1], c)
        out[i] = F.sub(out[i], F.mul(c, r))
    return tuple(out)


def _power(r, k, F, lc=None):
    """lc (x - r)^k over F."""
    poly = (F.one if lc is None else lc,)
    for _ in range(k):
        poly = _times_linear(poly, r, F)
    return poly


def test_power_root_matches_brute_force():
    # is g = lc (x - r)^k for some r in F?  Every monic g where that is small
    # enough (all cubics; sextics over F_3 and F_5), with a scaled copy of each
    rng = random.Random(18)
    for F in (Fp(3), Fp(5), Fp(7), Fp2(3, 1, 0), Fp2(5, 2, 0)):  # F_9, F_25
        elements = _elements(F)
        units = [c for c in elements if not F.is_zero(c)]
        for k in (3, 6):
            powers = {_power(r, k, F): r for r in elements}
            if len(elements) ** k <= 15625:
                monics = [tail + (F.one,) for tail in product(elements, repeat=k)]
            else:  # the powers, each with one coefficient moved, and random g
                monics = list(powers)
                for g in powers:
                    i = rng.randrange(k)
                    monics.append(g[:i] + (F.add(g[i], rng.choice(units)),) + g[i + 1:])
                monics += [tuple(rng.choice(elements) for _ in range(k)) + (F.one,)
                           for _ in range(2000)]
            for g in monics:
                want = powers.get(g)
                assert power_root(g, k, F) == want, (F, k, g)
                c = rng.choice(units)
                assert power_root(tuple(F.mul(c, a) for a in g), k, F) == want, (F, k, c, g)
    # the cubes of x + (1 + 2z) over F_9 and of x + (3 + 4z) over F_49
    for F, r in ((Fp2(3, 1, 0), (2, 1)), (Fp2(7, 1, 0), (4, 3))):
        assert power_root(_power(r, 3, F), 3, F) == r
        assert power_root(_power(r, 3, F, lc=(2, 1)), 3, F) == r
    # every lc (x - r)^k with one coefficient changed: the check runs from
    # x^(k-1) down and stops at the first mismatch, so a change anywhere must
    # still be seen.  The answer is None unless the changed g is itself
    # lc' (x - r')^k, as when p | k (x^3 - s over F_3 stays a cube)
    changes = [0, 0]
    for F in (Fp(3), Fp(5), Fp(7), Fp2(5, 2, 0)):
        elements = _elements(F)
        units = [c for c in elements if not F.is_zero(c)]
        for k in (3, 5, 6):
            powers = {_power(r, k, F): r for r in elements}
            for r in elements:
                lc = rng.choice(units)
                g = _power(r, k, F, lc=lc)
                assert power_root(g, k, F) == r
                for i in range(k + 1):
                    changed = g[:i] + (F.add(g[i], rng.choice(units)),) + g[i + 1:]
                    if F.is_zero(changed[-1]):
                        continue
                    inv = F.inv(changed[-1])
                    want = powers.get(tuple(F.mul(inv, c) for c in changed))
                    assert power_root(changed, k, F) == want, (F, k, r, i)
                    changes[want is None] += 1
    assert changes[True] > 4 * changes[False]  # about one change in ten stays a power


# ----------------------------------------------------------------------- disc


def test_disc_quadratic():
    rng = random.Random(12)
    for _ in range(50):
        b, c = rng.randrange(-99, 100), rng.randrange(-99, 100)
        assert disc((c, b, 1)) == b * b - 4 * c


def test_disc_depressed_cubic():
    rng = random.Random(13)
    for _ in range(50):
        u, q = rng.randrange(-99, 100), rng.randrange(-99, 100)
        assert disc((q, u, 0, 1)) == -4 * u**3 - 27 * q * q


def test_disc_repeated_root_is_zero():
    f = poly_mul(poly_mul((-1, 1), (-1, 1)), (-2, 1))
    assert disc(f) == 0


def test_disc_shift_invariance():
    rng = random.Random(14)
    for _ in range(50):
        d = rng.randrange(2, 7)
        f = tuple(rng.randrange(-50, 51) for _ in range(d)) + (rng.randrange(1, 9),)
        a = rng.randrange(-10, 11)
        assert disc(taylor_shift(f, a)) == disc(f)


def test_disc_closed_forms_match_resultant():
    # degrees 2-4: the PRS in disc over Z, b^2 - 4ac on quadratics over Z
    # (the integer form classify and type 2a read), the closed form in
    # field_disc over F_p on cubics and Genus1Model's gcd gate on quartics,
    # all against the Sylvester determinant
    rng = random.Random(15)
    sign = {2: -1, 3: -1, 4: 1}
    for _ in range(60):
        d = rng.randrange(2, 5)
        f = tuple(rng.randrange(-20, 21) for _ in range(d)) + (rng.randrange(1, 9),)
        res = sylvester_resultant(f, poly_derivative(f))
        assert disc(f) * f[-1] == sign[d] * res
        p = rng.choice(SMALL_PRIMES)
        if d == 2:
            assert f[1] * f[1] - 4 * f[0] * f[2] == disc(f)
        elif f[-1] % p == 0:
            continue
        elif d == 3:
            assert field_disc(reduce_mod(f, p), Fp(p)) * f[-1] % p == sign[d] * res % p
        elif res % p == 0:
            with pytest.raises(NotSquarefree):
                Genus1Model(Fp(p), f)
        else:
            Genus1Model(Fp(p), f)


def _disc_reference(f):
    d = deg(f)
    q, r = divmod((-1) ** (d * (d - 1) // 2) * sylvester_resultant(f, poly_derivative(f)), f[-1])
    assert r == 0
    return q


def test_disc_matches_sylvester_reference():
    # the subresultant PRS against the Sylvester determinant, on quintics and
    # sextics from 2 to 256 bits: dense and sparse, x^d + c (whose PRS skips
    # degrees), a forced repeated factor (disc 0), both signs of lc
    rng = random.Random(20)
    zeros = 0
    for i in range(3200):
        d = (5, 6)[i % 2]
        bits = (2, 3, 8, 16, 32, 64, 128, 256)[i // 2 % 8]
        lc = rng.randrange(1, 1 << bits) * rng.choice((1, -1))
        kind = i // 16 % 4
        if kind == 3:
            c = rng.randrange(-(1 << bits), 1 << bits)
            f = (c,) + (0,) * (d - 1) + (lc,)
        elif kind == 2:
            lin = (rng.randrange(-(1 << bits // 3), 1 << bits // 3), rng.choice((1, -1, 2, 3)))
            rest = tuple(rng.randrange(-(1 << bits), 1 << bits) for _ in range(d - 2))
            f = poly_mul(poly_mul(lin, lin), rest + (lc,))
        else:
            sparse = 0.4 if kind == 1 else 0.0
            f = tuple(0 if rng.random() < sparse else rng.randrange(-(1 << bits), 1 << bits)
                      for _ in range(d)) + (lc,)
        want = _disc_reference(f)
        zeros += want == 0
        assert disc(f) == want, f
    assert zeros >= 600
    for f in ((1, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1), (1, 0, 3, 0, 3, 0, 1),
              (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1), (7, 0, 0, 0, 0, 0, -3)):
        assert disc(f) == _disc_reference(f), f


def test_disc_degree_guard():
    with pytest.raises(DegreeError):
        disc((1, 1))
    with pytest.raises(DegreeError):
        disc((1,) * 8)


def test_disc_mod_p_consistency_with_gcd2():
    rng = random.Random(16)
    for _ in range(80):
        p = rng.choice(SMALL_PRIMES)
        f = tuple(rng.randrange(-9, 10) for _ in range(6)) + (rng.randrange(1, 5),)
        fbar = reduce_mod(f, p)
        if deg(fbar) != 6:
            continue
        has_square = fp_gcd_k(fbar, 2, p)[0] > 0
        assert (fp_disc(fbar, p) == 0) == has_square


def test_fp2_disc_cubic_matches_lifted_integer_formula():
    rng = random.Random(17)
    F = Fp2(5, 2, 0)
    for _ in range(30):
        g = tuple((rng.randrange(5), rng.randrange(5)) for _ in range(3)) + ((1, 0),)
        # a cubic has a repeated root only inside F, so a scan decides it
        dg = tuple(F.smul(i, c) for i, c in enumerate(g))[1:]
        repeated = any(F.is_zero(_eval(g, x, F)) and F.is_zero(_eval(dg, x, F))
                       for x in _elements(F))
        assert F.is_zero(field_disc(g, F)) == repeated
        # rational cubics must agree with the F_p discriminant
        rational = tuple((c[0], 0) for c in g)
        assert field_disc(rational, F) == (fp_disc(tuple(c[0] for c in g), 5), 0)


def test_field_disc_over_fp_matches_integer_formula():
    # cubics on field_disc, which refuses every other degree; a quartic,
    # random or lc (x - a)^2 h, is refused by Genus1Model exactly when its
    # discriminant vanishes mod p
    rng = random.Random(19)
    singular = 0
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        d = rng.randrange(2, 5)
        g = tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p),)
        if d == 4 and rng.random() < 0.5:
            a = rng.randrange(p)
            g = fp_mul(fp_mul((-a % p, 1), (-a % p, 1), p), g[2:], p)
        if d == 2:
            with pytest.raises(DegreeError):
                field_disc(g, Fp(p))
        elif d == 3:
            assert field_disc(g, Fp(p)) == fp_disc(g, p)
        elif fp_disc(g, p) == 0:
            singular += 1
            with pytest.raises(NotSquarefree):
                Genus1Model(Fp(p), g)
        else:
            assert Genus1Model(Fp(p), g).g == g
    assert singular >= 20
    with pytest.raises(DegreeError):
        field_disc((1, 0, 0, 0, 1), Fp(5))


def test_fp2_quartic_gate_on_planted_quartics():
    # over F_{p^2}, u1 != 0: lc (x - a)^2 h and lc q^2 with q irreducible
    # are refused; lc (x - a)(x - b) q, lc q r and lc (x - a) c with q != r
    # irreducible quadratics and c an irreducible cubic are accepted; and a
    # quartic with F_p coefficients is refused exactly when fp_disc is 0
    rng = random.Random(21)
    for p in (3, 5, 7):
        F = fp2_with_u1(p, rng)
        elements = _elements(F)

        def monic(d, rootless=False):
            while True:
                g = tuple(rng.choice(elements) for _ in range(d)) + (F.one,)
                if not rootless or all(not F.is_zero(_eval(g, x, F)) for x in elements):
                    return g

        for _ in range(10):
            a, b = rng.sample(elements, 2)
            q, r = monic(2, True), monic(2, True)
            lc = (rng.choice(elements[1:]),)
            for g in (_times(_power(a, 2, F, lc[0]), monic(2), F),
                      _times(_times(lc, q, F), q, F)):
                with pytest.raises(NotSquarefree):
                    Genus1Model(F, g)
            squarefree = [_times(_times_linear(_times_linear(lc, a, F), b, F), q, F),
                          _times(_times_linear(lc, a, F), monic(3, True), F)]
            if q != r:
                squarefree.append(_times(_times(lc, q, F), r, F))
            for g in squarefree:
                assert Genus1Model(F, g).degree == 4
            g = tuple(rng.randrange(p) for _ in range(4)) + (rng.randrange(1, p),)
            embedded = tuple((c, 0) for c in g)
            if fp_disc(g, p) == 0:
                with pytest.raises(NotSquarefree):
                    Genus1Model(F, embedded)
            else:
                Genus1Model(F, embedded)


def _sparse_poly(rng, F, d):
    """A polynomial of degree d over F, () for d < 0, whose lower
    coefficients are 0 a third of the time, so that remainder steps meet
    zero leading coefficients."""
    if d < 0:
        return ()
    lc = F.random(rng)
    while F.is_zero(lc):
        lc = F.random(rng)
    return tuple(F.zero if rng.random() < 1 / 3 else F.random(rng) for _ in range(d)) + (lc,)


def _times(f, g, F):
    """f g over F, schoolbook."""
    if not f or not g:
        return ()
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return tuple(out)


@pytest.mark.parametrize("p", (3, 5, 7, 8191, 2**31 - 1))
def test_field_gcd_over_fp_matches_fp_gcd(p):
    rng = random.Random(p)
    F = Fp(p)
    for _ in range(150):
        a = _sparse_poly(rng, F, rng.randrange(-1, 9))
        b = _sparse_poly(rng, F, rng.randrange(-1, 7))
        assert field_gcd(a, b, F) == fp_gcd(a, b, p), (a, b)
        c = _sparse_poly(rng, F, rng.randrange(0, 4))
        ac, bc = _times(a, c, F), _times(b, c, F)
        assert field_gcd(ac, bc, F) == fp_gcd(ac, bc, p)


@pytest.mark.parametrize("p", (3, 5, 7, 8191))
def test_field_gcd_over_fp2(p):
    # gcd(a c, b c) = monic(c) gcd(a, b) with u1 != 0, and on polynomials
    # with F_p coefficients the gcd is fp_gcd's, as a field extension
    # leaves gcds unchanged
    rng = random.Random(p)
    F = fp2_with_u1(p, rng)
    for _ in range(100):
        a = _sparse_poly(rng, F, rng.randrange(-1, 7))
        b = _sparse_poly(rng, F, rng.randrange(-1, 6))
        c = _sparse_poly(rng, F, rng.randrange(0, 4))
        g = field_gcd(a, b, F)
        assert not g or g[-1] == F.one
        monic_c = fp2_scale(c, F.inv(c[-1]), F)
        assert field_gcd(_times(a, c, F), _times(b, c, F), F) == _times(monic_c, g, F)
        ra = tuple(rng.randrange(p) for _ in range(rng.randrange(0, 7)))
        rb = tuple(rng.randrange(p) for _ in range(rng.randrange(0, 6)))
        want = fp_gcd(ra, rb, p)
        assert field_gcd([(x, 0) for x in ra], [(x, 0) for x in rb], F) == tuple(
            (x, 0) for x in want)


# ---------------------------------------------------------------- shift_scale


def test_shift_scale_examples():
    Z3, Z5 = Integers(3), Integers(5)
    assert shift_scale((0, 0, 1), 0, 2, Z5) == (0, 0, 1)
    assert shift_scale(poly_mul(poly_mul((-1, 1), (-1, 1)), (-1, 1)), 1, 3, Z3) == (0, 0, 0, 1)
    assert shift_scale((5, 0, 1), 0, 1, Z5) == (1, 0, 5)


def test_shift_scale_inexact():
    with pytest.raises(InexactDivision):
        shift_scale((1, 0, 1), 0, 1, Integers(5))  # x^2 + 1 at 5x: constant 1 not divisible


def test_shift_scale_exactness_witness():
    rng = random.Random(18)
    for _ in range(60):
        p = rng.choice((3, 5, 7))
        r = rng.randrange(0, p**2)
        f = tuple(rng.randrange(-99, 100) for _ in range(7))
        if not trim(f):
            continue
        Z = Integers(p)
        g = shift_scale(f, r, 0, Z)
        # p^k * shift_scale(..., k) has the expanded coefficients of f(p x + r)
        k = 0
        if trim(g):
            from g2lpoly.polyring import min_vp

            k = min(min_vp(g, p), 3)
        scaled = shift_scale(f, r, k, Z)
        assert tuple(c * p**k for c in scaled) == g


def _taylor_shift_by_rebuilds(f, r, R=None):
    """f(x + r) by Horner in the shifted variable, acc -> acc (x + r) + c,
    rebuilding the polynomial at each step: the formula the in-place shifts
    replaced.  Over Z, trimmed, or over the residue ring R at the length of f."""
    if R is None:
        acc = ()
        for c in reversed(f):
            acc = poly_add((0,) + acc, poly_add(poly_scale(acc, r), (c,)))
        return acc
    acc = []
    for c in reversed(f):
        acc = ([R.add(R.mul(r, acc[0]), c)]
               + [R.add(a, R.mul(r, b)) for a, b in zip(acc, acc[1:])]
               + acc[-1:]) if acc else [c]
    return tuple(acc)


def test_taylor_shifts_match_rebuild_formula():
    rng = random.Random(21)
    for i in range(600):
        bits = (3, 64, 256)[i % 3]
        f = tuple(0 if rng.random() < 0.3 else rng.randrange(-(1 << bits), 1 << bits)
                  for _ in range(rng.randrange(0, 8)))
        r = 0 if i % 10 == 0 else rng.randrange(-(1 << bits), 1 << bits)
        want = _taylor_shift_by_rebuilds(f, r)
        assert taylor_shift(f, r) == want
        # over Z and over O = Z[z]/(u): f(p x + r) / p^k, or InexactDivision,
        # as the rebuild gives
        p = (3, 7, 8191)[i // 3 % 3]
        order = QuadOrder(p * rng.randrange(-(1 << bits), 1 << bits) - least_nonsquare(p),
                          p * rng.randrange(-(1 << bits), 1 << bits), p)
        k = rng.randrange(4)
        scale = p**k if i % 4 < 2 else 1  # exact at every k, else exact only at k = 0
        fo = [(scale * c, scale * rng.randrange(-(1 << bits), 1 << bits)) for c in f]
        ro = (r, rng.randrange(-(1 << bits), 1 << bits))
        assert taylor_shift(fo, ro, order) == _taylor_shift_by_rebuilds(fo, ro, order)
        for R, g, s in ((Integers(p), [scale * c for c in f], r), (order, fo, ro)):
            outcomes = []
            for shift in (shift_scale, shift_scale_by_rebuilds):
                try:
                    outcomes.append(shift(g, s, k, R))
                except InexactDivision:
                    outcomes.append(InexactDivision)
            assert outcomes[0] == outcomes[1]


# -------------------------------------------------------------------- reduce


def test_reduce_degree_drop():
    assert reduce_mod((3, 7), 7) == (3,)


def test_order_reduce_example():
    o = QuadOrder(2, 0, 5)
    fhat = ((0, -1), (1, 0))  # x - z
    assert reduce_poly(fhat, o) == ((0, 4), (1, 0))


# -------------------------------------------------------------- square model


def test_complete_square_h_zero():
    f = (1, 0, 0, 0, 0, 1)
    assert complete_square(f, ()) == (4, 0, 0, 0, 0, 4)


def test_complete_square_x5():
    assert complete_square((0, 0, 0, 0, 0, 1), (1,)) == (1, 0, 0, 0, 0, 4)


def test_complete_square_conductor_270761_curve():
    f = (-24854569174209566, 50048078951052415, 3989955132045666,
         -3052943051575761, -1266273619292236, -23062462482396, -144061786290072)
    h = (0, 1, 1, 1)
    F = complete_square(f, h)
    assert deg(F) == 6
    d = disc(F)
    assert d != 0
    from g2lpoly.polyring import vp

    assert vp(d, 14556001) == 22  # the almost good prime divides to order 22


def test_complete_square_rejections():
    # complete_square only adds; p_normalize rejects what is not a squarefree
    # quintic or sextic
    with pytest.raises(NotSquarefree):
        p_normalize(complete_square(poly_mul((0, 0, 1), (1, 1, 1, 1)), ()), 5)  # x^2 (x^3 + ...)
    with pytest.raises(DegreeError):
        p_normalize(complete_square((1, 1, 1), ()), 5)


# ------------------------------------------------------------ squarefree part


def test_squarefree_part_examples():
    p = 7
    cube = fp_mul(fp_mul((6, 1), (6, 1), p), (6, 1), p)
    f = fp_mul(fp_mul(cube, (1, 1, 0, 1), p), (3,), p)
    assert fp_squarefree_part(f, p) == fp_mul(fp_mul((6, 1), (1, 1, 0, 1), p), (3,), p)
    g = (1, 2, 0, 1)
    assert fp_squarefree_part(g, p) == g
    x5x1 = fp_mul((0, 0, 0, 0, 0, 1), (6, 1), p)
    assert fp_squarefree_part(x5x1, p) == fp_mul((0, 1), (6, 1), p)


def test_squarefree_part_small_characteristic():
    # (x^2+1)^3 = x^6 + 1 over F_3: derivative vanishes, exhaustive path needed
    f = (1, 0, 0, 0, 0, 0, 1)
    assert fp_squarefree_part(f, 3) == (1, 0, 1)


def test_vp_matches_repeated_division():
    # six single divisions, then squares of p: valuations around the switch
    # and far above it (height-256 discriminants reach 132)
    rng = random.Random(61)
    for _ in range(3000):
        p = rng.choice((3, 5, 7, 97, 8191, (1 << 61) - 1))
        k = rng.choice((0, 1, 5, 6, 7, 8, 15, 16, 17, 52, 132, rng.randrange(300)))
        n = rng.choice((1, -1)) * rng.randrange(1, 10 ** rng.randrange(1, 60)) * p**k
        want, m = 0, n
        while m % p == 0:
            m //= p
            want += 1
        assert vp(n, p) == want >= k
    with pytest.raises(ValueError):
        vp(0, 5)
