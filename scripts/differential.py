"""Compare euler_factor outcomes between this tree and another checkout.

    python3 scripts/differential.py --checkout ../parent-clone

Draws tests/test_golden.golden_inputs(seed, 600) for seeds 1-6 (3,600
inputs) and runs euler_factor_with_stats on each, in both trees: each tree
runs in its own interpreter with its own src/ and tests/ on the path.  Per
input it compares the input itself, then the coefficients, cluster type,
loop_iters and normalize_v, or the class of the exception raised.

Those inputs have p <= 61 and small coefficients, so five seeded sections
follow.  The singular-curve section checks where the separability gate sits,
which the golden inputs seldom reach: per golden prime (3, 5, 7, 13, 31, 61)
and type it plants two models at each depth 1-4 whose genus 1 curve has a
double root mod p, for each curve the descents find the bottom cubic of its
cluster, and the loose cubic of type 1 and type 4 (singular_plant, 336
runs), compared as above.  The height section runs euler_factor_with_stats,
compared as above, on oracle.perturb models at 256 and 1024 bits, two per
type and golden prime, each also scaled as ELL^6 f(x / ELL), the same curve
with ELL^30 | disc for the word prime ELL = 2^31 - 1 of p_normalize's
squarefree check.  Per prime and height it adds two squarefree sextics with
roots a and a + ELL (ELL^2 | disc), one with ELL | lc and one g^2 h, and it
runs every model with max_iters None, 1 and 2 (720 runs).  The BSGS section
runs group_order_bsgs on 336 random cubics, 24 per field size, over F_p with
p of about 14, 20, 30, 34, 40, 48 and 61 bits (half of them with p = 1 and
half with p = 2 mod 3, the two branches of the class mod 3) and over F_{p^2}
with p of about 7, 10, 13 and 16 bits, then over F_{p^2} with p from 97 to
131 and over F_p with p from 2^14 to 2^16, where a walk is one round of a
lane count that is mostly not a power of two; compared by the order found or
the exception class.  The kernel section runs count_points_naive on 3 random
cubics and 3 random quartics per field: over F_p for every odd p <= 61 (the
plain loop), with p drawn from each [2^(b-1), 2^b) for b = 7 ... 13 and p =
65521, and over F_{p^2} for every odd p <= 61 and p = 257 (258 counts),
compared count by count.  It then puts Genus1Model's separability gate to
two each of planted singular models, lc (x - a)^2 (x - b), lc (x - a)^2 h
and lc q^2 with h and q random monic quadratics, and of unscreened random
cubics and quartics, per field (430 models), compared by the degree of the
model accepted or the exception class.  The polynomial section runs
fp_gcd_k (k = 3 and 5, the pair (deg gcd(f, f'), kernel)), fp_gcd(f, f')
and power_root(f, 6) on 90 seeded sextics per prime, p = 3, 5, 7, 11 and
8191: ten each of lc (x - a)^3 u, (x - a)^5 (x - b), lc (x - a)^6, lc g^3 with g
a monic quadratic, g^2 h with g and h monic quadratics, lc x (x - a) g^2,
lc c^2 with c a monic cubic, random sextics redrawn until they have no root
in F_p, and random sextics; it also runs classify(p_normalize()) on a lift
of each to Z, f plus p times a random sextic, recording the type and kernel
or the exception's class and message; then power_root(g, k) for k = 3, 5
and 6 on 10 planted lc (x - r)^k per k, half of them with one coefficient
changed, over each of those fields and over F_{5^2} and F_{3^2}, where
k = 3 and 6 take the Frobenius route (2,460 outputs in all), compared
output by output.  The square-root section runs find_nonsquare and
sqrt_mod_p at one prime of each 2-adic depth 1-16 (p = 2^e m + 1, m odd)
and at three primes near 2^30 and three near 2^61, 2^61 - 1 among them: per
prime a nonsquare from each of four seeds with the rng's next draw after it,
and sqrt_mod_p of 0, of 8 squares and of 4 nonsquares, each with that
witness, with none, with the square 4 and with p, then of 0 and 1 at the
moduli -3, 0, 1, 2, 4 and 9 (1,244 outputs), compared by the root or the
exception class.  The class-read section runs, on 24 seeded random curves
y^2 = x^3 + Ax + B per field size, the two reads that fix N mod 4 and mod 3
before a BSGS walk: _order_class(F, A, B), _three_class(F, A, B), and the
xq_mod values they start from, x^q mod the cubic x^3 + Ax + B and mod
psi_3/3 = x^4 + 2Ax^2 + 4Bx - A^2/3.  It
covers F_p with p of about 14, 20, 30 and 40 bits, half of them with p = 1
and half with p = 2 mod 3, and F_{p^2} = F_p[z]/(z^2 + u1 z + u0) with
u1 != 0 and p from 97 to 127 and of about 10, 13 and 16 bits (768
outputs), compared output by output.  The oracle section checks the
generators that perfbench builds its inputs from: per type and each of
oracle_mixed's 13 primes (3 ... 8191) it draws four oracle.random_instance
models with compute_expected=False and oracle.perturb of each at 256 bits
(416 instances), compared by f, type and depths.  Prints the first mismatch and the number of mismatches; exits
1 if there are any.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 7)
COUNT = 600
# (field, lo, hi): p is the first prime from a draw in [lo, hi); the last
# three fields take walks of one round whose lane count is not a power of two
BSGS_FIELDS = ([("fp", 1 << (b - 1), 1 << b) for b in (14, 20, 30, 34, 40, 48, 61)]
               + [("fp2", 1 << (b - 1), 1 << b) for b in (7, 10, 13, 16)]
               + [("fp2", 97, 132), ("fp", 1 << 14, 1 << 15), ("fp", 1 << 15, 1 << 16)])
BSGS_CUBICS = 24
# over F_p, every odd prime to 61, one prime drawn as for BSGS_FIELDS per bit
# size above, then 65521, the largest prime below 2^16; over F_{p^2}, every
# odd prime to 61, and 257
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
KERNEL_FP_BITS = range(7, 14)
KERNEL_PRIMES = ([("fp", 65521)] + [("fp2", p) for p in SMALL_PRIMES + (257,)])
KERNEL_MODELS = 3  # cubics, and as many quartics, per field
GATE_MODELS = 2  # per field and shape put to Genus1Model's separability gate
POLY_PRIMES = (3, 5, 7, 11, 8191)
POLY_SEXTICS = 10  # per pattern and prime
POWERS = 10  # planted lc (x - r)^k per k and field
SQRT_DEPTHS = range(1, 17)  # one prime p = 2^e m + 1, m odd, per depth e
SQRT_BITS = (30, 61)  # and primes near 2^30 and 2^61
SQRT_SEEDS = 4  # find_nonsquare draws per prime
SQRT_VALUES = 4  # nonsquares per prime, and twice as many squares
# (field, lo, hi) as for BSGS_FIELDS; over F_{p^2} the modulus has u1 != 0
CLASS_FIELDS = ([("fp", 1 << (b - 1), 1 << b) for b in (14, 20, 30, 40)]
                + [("fp2", 97, 128)] + [("fp2", 1 << (b - 1), 1 << b) for b in (10, 13, 16)])
CLASS_CURVES = 24
SINGULAR_DEPTHS = range(1, 5)
SINGULAR_MODELS = 2  # per golden prime, type, curve and depth
HEIGHT_BITS = (256, 1024)
HEIGHT_MODELS = 2  # perturbed oracle models per type, golden prime and height
ELL = 2**31 - 1  # the word prime of p_normalize's squarefree check
ORACLE_PRIMES = (3, 5, 7, 13, 31, 61, 127, 251, 509, 1021, 2039, 4093, 8191)  # oracle_mixed's
ORACLE_MODELS = 4  # per type and prime


def factor_outcome(case, i):
    """euler_factor_with_stats on one {f, p, h, max_iters} case with Random(i)."""
    from g2lpoly.eulercore import EulerInput, euler_factor_with_stats

    inp = EulerInput(tuple(case["f"]), case["p"],
                     h=None if case["h"] is None else tuple(case["h"]),
                     max_iters=case["max_iters"])
    try:
        lp, stats = euler_factor_with_stats(inp, random.Random(i))
    except Exception as exc:  # the exception class is part of the outcome
        return {"exc": type(exc).__name__}
    return {"lp": list(lp.coefficients()), "type": stats.cluster_type.value,
            "loop_iters": list(stats.loop_iters), "normalize_v": stats.normalize_v}


def outcomes():
    """(input, outcome) for every input, from the g2lpoly on sys.path."""
    from test_golden import golden_inputs

    out = []
    for seed in SEEDS:
        for i, case in enumerate(golden_inputs(seed, COUNT)):
            out.append((dict(case, seed=seed), factor_outcome(case, i)))
    return (out + singular_outcomes() + height_outcomes() + bsgs_outcomes()
            + kernel_outcomes() + poly_outcomes() + sqrt_outcomes() + class_outcomes()
            + oracle_outcomes())


def _double_root_cubic(p, rng, avoid=()):
    """A monic integer cubic whose reduction mod p is (x - a)^2 (x - b) with
    a != b, neither in avoid."""
    from g2lpoly.polyring import poly_mul

    a, b = rng.sample([r for r in range(p) if r not in avoid], 2)
    g = poly_mul(poly_mul((-a, 1), (-a, 1)), (-b, 1))
    return tuple(c + p * rng.randrange(p) for c in g[:3]) + (1,)


def singular_plant(typ, curve, p, depth, rng):
    """A squarefree sextic with the reduction pattern of type typ whose
    genus 1 curve number curve (1 or 2, in the order euler_factor_with_stats
    counts them) is singular mod p.  That is the bottom cubic of its cluster,
    planted at the given depth (type 4: the pair's depth, with the inner
    cluster two levels below it), or for curve 1 of type 1 and type 4 the
    loose cubic."""
    from g2lpoly.clusterclassify import ClusterType
    from g2lpoly.modarith import QuadOrder, legendre
    from g2lpoly.oracle import (
        _planted_conjugate_pair,
        _planted_cubic,
        _random_sqfree_cubic,
        build_type2a,
    )
    from g2lpoly.polyring import disc, fp_eval, order_poly_mul, poly_mul, poly_scale

    while True:
        if typ is ClusterType.T1:
            s1 = rng.randrange(p)
            if curve == 1:
                h0, h1 = _double_root_cubic(p, rng, (s1,)), _random_sqfree_cubic(p, rng)
            else:
                h0, h1 = _random_sqfree_cubic(p, rng), _double_root_cubic(p, rng)
            if fp_eval(h0, s1, p) == 0:
                continue
            f = poly_mul(h0, _planted_cubic(h1, s1, depth, p))
        elif typ is ClusterType.T2A:  # curve 1 sits at the smaller center
            s1, s2 = sorted(rng.sample(range(p), 2))
            hs = [_random_sqfree_cubic(p, rng)]
            hs.insert(curve - 1, _double_root_cubic(p, rng))
            f = build_type2a(p, depth, depth, s1, s2, *hs, depth % 2, False).f
        elif typ is ClusterType.T2B:
            u0 = next(c for c in range(1, p) if legendre(-4 * c, p) == -1)
            order = QuadOrder(u0, 0, p)
            a, b = rng.sample([(x, y) for x in range(p) for y in range(p)], 2)
            hh = ((1, 0),)
            for r in (a, a, b):
                hh = order_poly_mul(hh, (order.neg(r), (1, 0)), order)
            hh = tuple(order.add(c, (p * rng.randrange(p), p * rng.randrange(p)))
                       for c in hh[:3]) + ((1, 0),)
            f = poly_scale(_planted_conjugate_pair(hh, depth, order), p ** (depth % 2))
        else:
            n = depth
            s0, s1 = rng.sample(range(p), 2)
            a1, a2 = rng.sample(range(1, p), 2)
            if curve == 1:  # the pair collides again one level down
                a2 = a1 + p
                h2 = _random_sqfree_cubic(p, rng)
            else:
                h2 = _double_root_cubic(p, rng)
            f = poly_mul(poly_mul((-s0, 1), (-(s1 + p**n * a1), 1)),
                         poly_mul((-(s1 + p**n * a2), 1), _planted_cubic(h2, s1, n + 2, p)))
            f = poly_scale(f, p ** (n % 2))
        if disc(f) != 0:
            return f


def singular_outcomes():
    """(input, outcome) for euler_factor_with_stats on models with a singular
    genus 1 curve, every (type, curve) at every golden prime and depth."""
    from g2lpoly.clusterclassify import ClusterType
    from test_golden import PRIMES

    rng = random.Random(2028)
    out = []
    for p in PRIMES:
        for typ in ClusterType:
            for curve in (1,) if typ is ClusterType.T2B else (1, 2):
                for depth in SINGULAR_DEPTHS:
                    for _ in range(SINGULAR_MODELS):
                        case = {"kind": "singular", "type": typ.value, "curve": curve,
                                "f": list(singular_plant(typ, curve, p, depth, rng)), "p": p,
                                "h": None, "max_iters": None}
                        out.append((case, factor_outcome(case, len(out))))
    return out


def height_outcomes():
    """(input, outcome) for euler_factor_with_stats on tall models and on
    sextics whose discriminant or leading coefficient ELL divides."""
    from g2lpoly.clusterclassify import ClusterType
    from g2lpoly.oracle import perturb, random_instance
    from g2lpoly.polyring import poly_mul
    from test_golden import PRIMES

    def product(roots, lc):
        f = (lc,)
        for r in roots:
            f = poly_mul(f, (-r, 1))
        return f

    rng = random.Random(2027)
    models = []
    for p in PRIMES:
        for bits in HEIGHT_BITS:
            for typ in ClusterType:
                for _ in range(HEIGHT_MODELS):
                    inst = random_instance(p, typ, rng, max_depth=6, compute_expected=False)
                    f = perturb(inst, rng, bits).f
                    models += [(f, p), (tuple(c * ELL ** (6 - i) for i, c in enumerate(f)), p)]
            size = 1 << (bits // 6)
            for _ in range(2):
                a = rng.randrange(-size, size)
                roots = [a, a + ELL] + [rng.randrange(-size, size) for _ in range(4)]
                models.append((product(roots, rng.randrange(1, size)), p))
            f = tuple(rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(6))
            models.append((f + (ELL * rng.randrange(1, 100),), p))
            g = tuple(rng.getrandbits(bits // 6) for _ in range(3))
            models.append((poly_mul(poly_mul(g, g), f[:3]), p))
    out = []
    for f, p in models:
        for max_iters in (None, 1, 2):
            case = {"kind": "height", "f": list(f), "p": p, "h": None, "max_iters": max_iters}
            out.append((case, factor_outcome(case, len(out))))
    return out


def _random_field(kind, p, rng):
    from g2lpoly.modarith import Fp, Fp2

    if kind == "fp":
        return Fp(p)
    while True:
        try:
            return Fp2(p, rng.randrange(p), rng.randrange(p))
        except ValueError:  # z^2 + u1 z + u0 reducible mod p
            pass


def bsgs_outcomes():
    """(cubic, outcome) for group_order_bsgs on the seeded random cubics."""
    from g2lpoly.errors import NotSquarefree
    from g2lpoly.genus1 import Genus1Model, group_order_bsgs
    from g2lpoly.modarith import is_prime

    rng = random.Random(2024)
    out = []
    for kind, lo, hi in BSGS_FIELDS:
        for i in range(BSGS_CUBICS):
            p = rng.randrange(lo, hi) | 1
            # over F_p, cubic i takes p = 1 + i % 2 (mod 3)
            while not is_prime(p) or kind == "fp" and p % 3 != 1 + i % 2:
                p += 2
            F = _random_field(kind, p, rng)
            while True:
                g = (F.random(rng), F.random(rng), F.random(rng), F.one)
                try:
                    model = Genus1Model(F, g)
                    break
                except NotSquarefree:
                    continue
            try:
                got = {"order": group_order_bsgs(model, random.Random(i))}
            except Exception as exc:  # the exception class is part of the outcome
                got = {"exc": type(exc).__name__}
            out.append(({"field": repr(F), "g": g}, got))
    return out


def kernel_outcomes():
    """(model, outcome) for count_points_naive on the seeded random models,
    then for Genus1Model on planted singular and unscreened random ones."""
    from g2lpoly.errors import DegreeError, NotSquarefree
    from g2lpoly.genus1 import Genus1Model, count_points_naive
    from g2lpoly.modarith import is_prime

    rng = random.Random(2025)
    out = []
    drawn = [("fp", p) for p in SMALL_PRIMES]
    for bits in KERNEL_FP_BITS:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        while not is_prime(p):
            p += 2
        drawn.append(("fp", p))
    for kind, p in drawn + KERNEL_PRIMES:
        F = _random_field(kind, p, rng)
        for degree in [3] * KERNEL_MODELS + [4] * KERNEL_MODELS:
            while True:
                g = tuple(F.random(rng) for _ in range(degree + 1))
                try:
                    model = Genus1Model(F, g)
                    break
                except (DegreeError, NotSquarefree):
                    continue
            try:
                got = {"count": count_points_naive(model, limit=1 << 17)}
            except Exception as exc:  # the exception class is part of the outcome
                got = {"exc": type(exc).__name__}
            out.append(({"field": repr(F), "g": g}, got))
    gate = random.Random(2032)  # its own draws, so that the counts above keep theirs
    for kind, p in drawn + KERNEL_PRIMES:
        F = _random_field(kind, p, gate)

        def monic(d):
            return tuple(F.random(gate) for _ in range(d)) + (F.one,)

        for _ in range(GATE_MODELS):
            lc = (F.random(gate),)
            while F.is_zero(lc[0]):
                lc = (F.random(gate),)
            a, q = monic(1), monic(2)
            square = _times(lc, _times(a, a, F), F)
            for g in (_times(square, monic(1), F), _times(square, monic(2), F),
                      _times(lc, _times(q, q, F), F),
                      tuple(F.random(gate) for _ in range(4)),
                      tuple(F.random(gate) for _ in range(5))):
                try:
                    got = {"gate": Genus1Model(F, g).degree}
                except Exception as exc:  # the exception class is part of the outcome
                    got = {"exc": type(exc).__name__}
                out.append(({"op": "gate", "field": repr(F), "g": g}, got))
    return out


def _times(f, g, F):
    """f g over the field F, schoolbook, coefficients as F keeps them."""
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return tuple(out)


def _planted_sextic(pattern, F, rng):
    """A sextic over F_p of one of the repeated-factor patterns classify reads."""
    from g2lpoly.polyring import fp_eval

    def lin():
        return (F.neg(F.random(rng)), F.one)

    def monic(d):
        return tuple(F.random(rng) for _ in range(d)) + (F.one,)

    lc = (F.random(rng) % (F.p - 1) + 1,)
    if pattern == "cube":  # lc (x - a)^3 u
        a = lin()
        factors = [lc, a, a, a, monic(3)]
    elif pattern == "fifth":  # (x - a)^5 (x - b)
        a = lin()
        factors = [a] * 5 + [lin()]
    elif pattern == "sixth":
        factors = [lc] + [lin()] * 6
    elif pattern == "quad_cube":  # lc g^3, g irreducible or split
        factors = [lc] + [monic(2)] * 3
    elif pattern == "squares":  # g^2 h
        g = monic(2)
        factors = [g, g, monic(2)]
    elif pattern == "roots_square":  # x (x - a) g^2: g^2 beside two roots
        g = monic(2)
        factors = [lc, (F.zero, F.one), lin(), g, g]
    elif pattern == "cubic_square":  # lc c^2
        c = monic(3)
        factors = [lc, c, c]
    else:
        while True:  # "random", and "rootless": redrawn until no a in F_p is a root
            f = tuple(F.random(rng) for _ in range(6)) + lc
            if pattern == "random" or all(fp_eval(f, a, F.p) for a in range(F.p)):
                return f
    out = (F.one,)
    for g in factors:
        out = _times(out, g, F)
    return out


def poly_outcomes():
    """(input, outcome) for the F_p polynomial layer on seeded sextics and
    planted k-th powers."""
    from g2lpoly.clusterclassify import classify, p_normalize
    from g2lpoly.modarith import Fp
    from g2lpoly.polyring import fp_derivative, fp_gcd, fp_gcd_k, power_root

    def run(fn, *args):
        try:
            return {"out": fn(*args)}
        except Exception as exc:  # the exception class is part of the outcome
            return {"exc": type(exc).__name__}

    def classified(f, p):
        try:
            c = classify(p_normalize(f, p))
        except Exception as exc:  # so are the class and message of a rejection
            return {"exc": type(exc).__name__, "msg": str(exc)}
        return {"type": c.type.value, "kernel": list(c.kernel)}

    rng = random.Random(2026)
    out = []
    for p in POLY_PRIMES:
        F = Fp(p)
        for pattern in ("cube", "fifth", "sixth", "quad_cube", "squares", "roots_square",
                        "cubic_square", "rootless", "random"):
            for _ in range(POLY_SEXTICS):
                f = _planted_sextic(pattern, F, rng)
                for name, fn, args in (("gcd_k3", fp_gcd_k, (f, 3, p)),
                                       ("gcd_k5", fp_gcd_k, (f, 5, p)),
                                       ("gcd_df", fp_gcd, (f, fp_derivative(f, p), p)),
                                       ("root6", power_root, (f, 6, F))):
                    out.append(({"op": name, "p": p, "f": f}, run(fn, *args)))
                # a lift to Z with the same reduction, so that p_normalize accepts it
                lift = [c + p * rng.randrange(p) for c in f]
                out.append(({"op": "classify", "p": p, "f": lift}, classified(lift, p)))
    for F in [Fp(p) for p in POLY_PRIMES] + [_random_field("fp2", q, rng) for q in (5, 3)]:
        for k in (3, 5, 6):
            for i in range(POWERS):
                g = (F.random(rng),)
                while F.is_zero(g[0]):
                    g = (F.random(rng),)
                r = F.random(rng)
                for _ in range(k):
                    g = _times(g, (F.neg(r), F.one), F)
                if i % 2:
                    j = rng.randrange(k)
                    g = g[:j] + (F.add(g[j], F.one),) + g[j + 1:]
                out.append(({"op": f"root{k}", "field": repr(F), "g": g},
                            run(power_root, g, k, F)))
    return out


def sqrt_outcomes():
    """(input, outcome) for find_nonsquare and sqrt_mod_p at primes of each
    2-adic depth and near 2^30 and 2^61, witness misuse and bad moduli."""
    from g2lpoly.modarith import find_nonsquare, is_prime, sqrt_mod_p

    def root(a, p, s):
        try:
            return {"root": sqrt_mod_p(a, p, s)}
        except Exception as exc:  # the exception class is part of the outcome
            return {"exc": type(exc).__name__}

    rng = random.Random(2030)
    primes = []
    for e in SQRT_DEPTHS:
        m = rng.randrange(1 << 10) | 1
        while not is_prime((m << e) + 1):
            m += 2
        primes.append((m << e) + 1)
    for bits in SQRT_BITS:  # the first primes from 2^bits - 1 and from two draws above it
        for lo in [(1 << bits) - 1] + [rng.randrange(1 << bits, (1 << bits) + (1 << 20)) | 1
                                       for _ in range(2)]:
            while not is_prime(lo):
                lo += 2
            primes.append(lo)
    out = []
    for p in primes:
        for seed in range(SQRT_SEEDS):
            draws = random.Random(seed)
            s = find_nonsquare(p, draws)
            out.append(({"op": "nonsquare", "p": p, "seed": seed},
                        {"s": s, "next": draws.randrange(p)}))
        xs = [rng.randrange(p) for _ in range(2 * SQRT_VALUES)]
        values = [0] + [x * x % p for x in xs] + [s * x * x % p for x in xs[:SQRT_VALUES]]
        for a in values:
            for witness in (s, None, 4, p):
                out.append(({"op": "sqrt", "a": a, "p": p, "s": witness}, root(a, p, witness)))
    for p in (-3, 0, 1, 2, 4, 9):
        for a in (0, 1):
            out.append(({"op": "sqrt", "a": a, "p": p, "s": None}, root(a, p, None)))
    return out


def class_outcomes():
    """(curve, outcome) for the class reads before a BSGS walk and the
    x^q mod the cubic and mod psi_3/3 that they read."""
    from g2lpoly.genus1 import _order_class, _three_class
    from g2lpoly.modarith import Fp, Fp2, is_prime

    rng = random.Random(2031)
    out = []
    for kind, lo, hi in CLASS_FIELDS:
        for i in range(CLASS_CURVES):
            p = rng.randrange(lo, hi) | 1
            # over F_p, curve i takes p = 1 + i % 2 (mod 3)
            while not is_prime(p) or kind == "fp" and p % 3 != 1 + i % 2:
                p += 2
            F = Fp(p)
            while kind == "fp2":
                try:
                    F = Fp2(p, rng.randrange(p), rng.randrange(1, p))
                    break
                except ValueError:  # z^2 + u1 z + u0 reducible mod p
                    pass
            A, B = F.random(rng), F.random(rng)
            psi = (F.neg(F.mul(F.mul(A, A), F.inv(F.from_int(3)))), F.smul(4, B), F.smul(2, A))
            out.append(({"op": "class", "field": repr(F), "A": A, "B": B},
                        {"mod4": _order_class(F, A, B), "mod3": _three_class(F, A, B),
                         "xq_cubic": F.xq_mod((B, A)), "xq_psi3": F.xq_mod(psi)}))
    return out


def oracle_outcomes():
    """(draw, instance) for oracle.random_instance at every oracle_mixed
    prime and type, and for oracle.perturb of each at 256 bits."""
    from g2lpoly.clusterclassify import ClusterType
    from g2lpoly.oracle import perturb, random_instance

    def planted(inst):
        # the planted model, not the whole record, whose fields may differ between trees
        return {"f": list(inst.f), "type": inst.type.value, "depths": list(inst.depths)}

    rng = random.Random(2029)
    out = []
    for p in ORACLE_PRIMES:
        for typ in ClusterType:
            for i in range(ORACLE_MODELS):
                inst = random_instance(p, typ, rng, compute_expected=False)
                out.append(({"op": "oracle", "p": p, "type": typ.value, "i": i}, planted(inst)))
                out.append(({"op": "perturb", "p": p, "type": typ.value, "i": i},
                            planted(perturb(inst, rng, 256))))
    return out


def run_tree(tree: Path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "tests")]))
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(tree)],
                         cwd=tree, env=env, capture_output=True, text=True)
    if res.returncode:
        sys.exit(f"differential: the run in {tree} failed:\n{res.stderr}")
    return json.loads(res.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path,
                    help="the other tree, e.g. a clone of the parent commit")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        import g2lpoly

        if Path(g2lpoly.__file__).resolve().parent != args.child.resolve() / "src" / "g2lpoly":
            sys.exit(f"differential: imported g2lpoly from {g2lpoly.__file__}")
        json.dump(outcomes(), sys.stdout)
        return 0
    if args.checkout is None:
        ap.error("--checkout is required")
    here, there = run_tree(ROOT), run_tree(args.checkout.resolve())
    if len(here) != len(there):
        print(f"differential: {len(here)} inputs here, {len(there)} in {args.checkout}")
        return 1
    mismatches = [(a, b) for a, b in zip(here, there) if a != b]
    if mismatches:
        (case, got), (case_there, want) = mismatches[0]
        print(f"first mismatch: {json.dumps(case)}\n  here:  {json.dumps(got)}\n"
              f"  there: {json.dumps(want)}"
              + ("" if case == case_there else f"\n  input there: {json.dumps(case_there)}"))
    print(f"{len(mismatches)} mismatches in {len(here)} inputs")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
