"""Compare euler_factor outcomes between this tree and another checkout.

    python3 scripts/differential.py --checkout ../parent-clone

Each tree runs SECTIONS in its own interpreter, with its own src/ and tests/
on the path.  A section draws its inputs from its own seeded rng and yields
(input, outcome) pairs; an outcome is what the call returned, or the class
of the exception it raised.  The sections, in order:

- golden: euler_factor_with_stats on tests/test_golden's inputs, seeds 1-6
- singular: euler_factor_with_stats on models with a singular genus 1 curve
- height: euler_factor_with_stats on tall models and on sextics that the
  word prime ELL divides badly, at max_iters None, 1 and 2
- bsgs: group_order_bsgs on random cubics over F_p and F_{p^2}
- kernel: count_points_naive on random cubics and quartics, and
  Genus1Model's separability gate on planted singular and random models
- poly: fp_gcd_k, fp_gcd, power_root and classify(p_normalize()) on planted
  sextics, and power_root on planted k-th powers
- sqrt: find_nonsquare and sqrt_mod_p, with witness misuse and bad moduli
- class: the reads of #E mod 4 and mod 3 before a BSGS walk
- oracle: oracle.random_instance and oracle.perturb, perfbench's generators
- cli: cli.process_line on the golden inputs written as job lines, and on
  one line per reject token

Compares the two trees pair by pair, prints the first mismatch and the
number of mismatches, and exits 1 if there are any.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from itertools import product
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
PATTERNS = ("cube", "fifth", "sixth", "quad_cube", "squares", "roots_square",
            "cubic_square", "rootless", "random")  # of _planted_sextic
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
# one line per token that names a rejected line: parse, not-prime,
# not-odd-prime, degree and good-reduction
REJECT_LINES = ("5:[1,2", "9:[1,0,0,0,0,0,1]", "2:[1,0,0,0,0,0,1]", "5:[1,2,3]",
                "11:[0,-1,0,0,0,0,1]")


def attempt(key, fn, *args, msg=False):
    """{key: fn(*args)}, or {"exc": the class name of what it raised}, with
    the exception's message under "msg" if msg."""
    try:
        return {key: fn(*args)}
    except Exception as exc:  # the exception class is part of the outcome
        got = {"exc": type(exc).__name__}
        if msg:
            got["msg"] = str(exc)
        return got


def _prime(n, ok=lambda p: True, step=2):
    """The first prime p with ok(p) in n | 1, n | 1 + step, ..."""
    from g2lpoly.modarith import is_prime

    p = n | 1
    while not (is_prime(p) and ok(p)):
        p += step
    return p


def _field(kind, p, rng, u1_from=0):
    """F_p ("fp"), or F_p[z]/(z^2 + u1 z + u0) ("fp2") with u0 and u1 >= u1_from
    drawn until it is a field."""
    from g2lpoly.modarith import Fp, Fp2

    while kind == "fp2":
        try:
            return Fp2(p, rng.randrange(p), rng.randrange(u1_from, p))
        except ValueError:  # z^2 + u1 z + u0 reducible mod p
            pass
    return Fp(p)


def _model(F, draw):
    """(g, Genus1Model(F, g)) for the first g = draw() that the model accepts."""
    from g2lpoly.errors import DegreeError, NotSquarefree
    from g2lpoly.genus1 import Genus1Model

    while True:
        g = draw()
        try:
            return g, Genus1Model(F, g)
        except (DegreeError, NotSquarefree):
            pass


def _monic(F, d, rng):
    """A random monic polynomial of degree d over F."""
    return tuple(F.random(rng) for _ in range(d)) + (F.one,)


def _nonzero(F, rng):
    """A random nonzero element of F."""
    x = F.random(rng)
    while F.is_zero(x):
        x = F.random(rng)
    return x


def _times(f, g, F):
    """f g over the field F, schoolbook, coefficients as F keeps them."""
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return tuple(out)


def _factors(cases):
    """(case, outcome) of euler_factor_with_stats on each {f, p, h, max_iters}
    case, the i-th with Random(i)."""
    from g2lpoly.eulercore import EulerInput, euler_factor_with_stats

    for i, case in enumerate(cases):
        inp = EulerInput(tuple(case["f"]), case["p"],
                         h=None if case["h"] is None else tuple(case["h"]),
                         max_iters=case["max_iters"])
        got = attempt("lp", euler_factor_with_stats, inp, random.Random(i))
        if "lp" in got:
            lp, stats = got["lp"]
            got = {"lp": list(lp.coefficients()), "type": stats.cluster_type.value,
                   "loop_iters": list(stats.loop_iters), "normalize_v": stats.normalize_v}
        yield case, got


def golden_outcomes():
    """tests/test_golden.golden_inputs(seed, COUNT) for each seed."""
    from test_golden import golden_inputs

    for seed in SEEDS:
        yield from _factors(dict(case, seed=seed) for case in golden_inputs(seed, COUNT))


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
    """singular_plant models, SINGULAR_MODELS per golden prime, type, curve
    (type 2b has one) and depth."""
    from g2lpoly.clusterclassify import ClusterType
    from test_golden import PRIMES

    def cases(rng):
        for p, typ in product(PRIMES, ClusterType):
            for curve in (1,) if typ is ClusterType.T2B else (1, 2):
                for depth, _ in product(SINGULAR_DEPTHS, range(SINGULAR_MODELS)):
                    f = singular_plant(typ, curve, p, depth, rng)
                    yield {"kind": "singular", "type": typ.value, "curve": curve,
                           "f": list(f), "p": p, "h": None, "max_iters": None}

    yield from _factors(cases(random.Random(2028)))


def height_outcomes():
    """Per golden prime and height: oracle.perturb models, HEIGHT_MODELS per
    type, each also as ELL^6 f(x / ELL) (ELL^30 | disc); two sextics with
    roots a and a + ELL (ELL^2 | disc), one with ELL | lc and one g^2 h."""
    from g2lpoly.clusterclassify import ClusterType
    from g2lpoly.oracle import perturb, random_instance
    from g2lpoly.polyring import poly_mul
    from test_golden import PRIMES

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
                f = (rng.randrange(1, size),)
                for r in roots:
                    f = poly_mul(f, (-r, 1))
                models.append((f, p))
            f = tuple(rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(6))
            models.append((f + (ELL * rng.randrange(1, 100),), p))
            g = tuple(rng.getrandbits(bits // 6) for _ in range(3))
            models.append((poly_mul(poly_mul(g, g), f[:3]), p))
    yield from _factors({"kind": "height", "f": list(f), "p": p, "h": None, "max_iters": m}
                        for f, p in models for m in (None, 1, 2))


def bsgs_outcomes():
    """BSGS_CUBICS monic cubics per BSGS_FIELDS entry, redrawn until
    squarefree; over F_p, cubic i takes p = 1 + i % 2 (mod 3)."""
    from g2lpoly.genus1 import group_order_bsgs

    rng = random.Random(2024)
    for kind, lo, hi in BSGS_FIELDS:
        for i in range(BSGS_CUBICS):
            p = _prime(rng.randrange(lo, hi), lambda p: kind == "fp2" or p % 3 == 1 + i % 2)
            F = _field(kind, p, rng)
            g, model = _model(F, lambda: _monic(F, 3, rng))
            got = attempt("order", group_order_bsgs, model, random.Random(i))
            yield {"field": repr(F), "g": g}, got


def kernel_outcomes():
    """KERNEL_MODELS cubics and as many quartics per field, redrawn until
    Genus1Model accepts them; then, from their own rng, GATE_MODELS each of
    lc (x - a)^2 (x - b), lc (x - a)^2 h, lc q^2 and unscreened random
    cubics and quartics per field, h and q monic quadratics."""
    from g2lpoly.genus1 import Genus1Model, count_points_naive

    rng = random.Random(2025)
    fields = [("fp", p) for p in SMALL_PRIMES]
    fields += [("fp", _prime(rng.randrange(1 << (b - 1), 1 << b))) for b in KERNEL_FP_BITS]
    fields += KERNEL_PRIMES
    for kind, p in fields:
        F = _field(kind, p, rng)
        for degree in [3] * KERNEL_MODELS + [4] * KERNEL_MODELS:
            g, model = _model(F, lambda: tuple(F.random(rng) for _ in range(degree + 1)))
            yield {"field": repr(F), "g": g}, attempt("count", count_points_naive, model, 1 << 17)
    gate = random.Random(2032)  # its own draws, so that the counts above keep theirs
    for kind, p in fields:
        F = _field(kind, p, gate)
        for _ in range(GATE_MODELS):
            lc = (_nonzero(F, gate),)
            a, q = _monic(F, 1, gate), _monic(F, 2, gate)
            square = _times(lc, _times(a, a, F), F)
            for g in (_times(square, _monic(F, 1, gate), F),
                      _times(square, _monic(F, 2, gate), F),
                      _times(lc, _times(q, q, F), F),
                      tuple(F.random(gate) for _ in range(4)),
                      tuple(F.random(gate) for _ in range(5))):
                got = attempt("gate", lambda: Genus1Model(F, g).degree)
                yield {"op": "gate", "field": repr(F), "g": g}, got


def _planted_sextic(pattern, F, rng):
    """A sextic over F_p of one of the repeated-factor patterns classify reads."""
    from g2lpoly.polyring import fp_eval

    def lin():
        return (F.neg(F.random(rng)), F.one)

    lc = (F.random(rng) % (F.p - 1) + 1,)
    if pattern == "cube":  # lc (x - a)^3 u
        factors = [lc] + [lin()] * 3 + [_monic(F, 3, rng)]
    elif pattern == "fifth":  # (x - a)^5 (x - b)
        factors = [lin()] * 5 + [lin()]
    elif pattern == "sixth":
        factors = [lc] + [lin()] * 6
    elif pattern == "quad_cube":  # lc g^3, g irreducible or split
        factors = [lc] + [_monic(F, 2, rng)] * 3
    elif pattern == "squares":  # g^2 h
        factors = [_monic(F, 2, rng)] * 2 + [_monic(F, 2, rng)]
    elif pattern == "roots_square":  # x (x - a) g^2: g^2 beside two roots
        g = _monic(F, 2, rng)
        factors = [lc, (F.zero, F.one), lin(), g, g]
    elif pattern == "cubic_square":  # lc c^2
        factors = [lc] + [_monic(F, 3, rng)] * 2
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
    """POLY_SEXTICS sextics per PATTERNS entry and POLY_PRIMES prime, each
    also lifted to Z as f plus p times a random sextic for classify; then
    POWERS planted lc (x - r)^k per k = 3, 5, 6 over those fields and over
    F_{5^2} and F_{3^2}, every other one with a coefficient changed."""
    from g2lpoly.clusterclassify import classify, p_normalize
    from g2lpoly.modarith import Fp
    from g2lpoly.polyring import fp_derivative, fp_gcd, fp_gcd_k, power_root

    rng = random.Random(2026)
    for p in POLY_PRIMES:
        F = Fp(p)
        for pattern in PATTERNS:
            for _ in range(POLY_SEXTICS):
                f = _planted_sextic(pattern, F, rng)
                for name, fn, args in (("gcd_k3", fp_gcd_k, (f, 3, p)),
                                       ("gcd_k5", fp_gcd_k, (f, 5, p)),
                                       ("gcd_df", fp_gcd, (f, fp_derivative(f, p), p)),
                                       ("root6", power_root, (f, 6, F))):
                    yield {"op": name, "p": p, "f": f}, attempt("out", fn, *args)
                # a lift to Z with the same reduction, so that p_normalize accepts it
                lift = [c + p * rng.randrange(p) for c in f]
                # a rejection's message is part of the outcome too
                got = attempt("c", lambda: classify(p_normalize(lift, p)), msg=True)
                if "c" in got:
                    got = {"type": got["c"].type.value, "kernel": list(got["c"].kernel)}
                yield {"op": "classify", "p": p, "f": lift}, got
    for F in [Fp(p) for p in POLY_PRIMES] + [_field("fp2", q, rng) for q in (5, 3)]:
        for k in (3, 5, 6):
            for i in range(POWERS):
                g = (_nonzero(F, rng),)
                r = F.random(rng)
                for _ in range(k):
                    g = _times(g, (F.neg(r), F.one), F)
                if i % 2:
                    j = rng.randrange(k)
                    g = g[:j] + (F.add(g[j], F.one),) + g[j + 1:]
                got = attempt("out", power_root, g, k, F)
                yield {"op": f"root{k}", "field": repr(F), "g": g}, got


def sqrt_outcomes():
    """One prime p = 2^e m + 1 (m odd) per SQRT_DEPTHS entry, and per
    SQRT_BITS entry 2^bits - 1 and two draws above 2^bits, each moved to the
    first prime; per prime SQRT_SEEDS nonsquares with the rng's next draw
    after each, and sqrt_mod_p of 0, of squares and of nonsquares with four
    witnesses; then 0 and 1 at bad moduli."""
    from g2lpoly.modarith import find_nonsquare, sqrt_mod_p

    rng = random.Random(2030)
    primes = []
    for e in SQRT_DEPTHS:  # m steps by 2, p by 2^(e + 1)
        m = rng.randrange(1 << 10) | 1
        primes.append(_prime((m << e) + 1, step=2 << e))
    for bits in SQRT_BITS:
        primes.append(_prime((1 << bits) - 1))
        primes += [_prime(rng.randrange(1 << bits, (1 << bits) + (1 << 20))) for _ in range(2)]
    for p in primes:
        for seed in range(SQRT_SEEDS):
            draws = random.Random(seed)
            s = find_nonsquare(p, draws)
            yield {"op": "nonsquare", "p": p, "seed": seed}, {"s": s, "next": draws.randrange(p)}
        xs = [rng.randrange(p) for _ in range(2 * SQRT_VALUES)]
        values = [0] + [x * x % p for x in xs] + [s * x * x % p for x in xs[:SQRT_VALUES]]
        for a in values:
            for witness in (s, None, 4, p):
                got = attempt("root", sqrt_mod_p, a, p, witness)
                yield {"op": "sqrt", "a": a, "p": p, "s": witness}, got
    for p, a in product((-3, 0, 1, 2, 4, 9), (0, 1)):
        yield {"op": "sqrt", "a": a, "p": p, "s": None}, attempt("root", sqrt_mod_p, a, p, None)


def class_outcomes():
    """CLASS_CURVES curves y^2 = x^3 + Ax + B per CLASS_FIELDS entry, p drawn
    as for bsgs_outcomes: _order_class, _three_class, and x^q mod the cubic
    and mod psi_3/3 = x^4 + 2Ax^2 + 4Bx - A^2/3, which they start from."""
    from g2lpoly.genus1 import _order_class, _three_class

    rng = random.Random(2031)
    for kind, lo, hi in CLASS_FIELDS:
        for i in range(CLASS_CURVES):
            p = _prime(rng.randrange(lo, hi), lambda p: kind == "fp2" or p % 3 == 1 + i % 2)
            F = _field(kind, p, rng, u1_from=1)
            A, B = F.random(rng), F.random(rng)
            psi = (F.neg(F.mul(F.mul(A, A), F.inv(F.from_int(3)))), F.smul(4, B), F.smul(2, A))
            yield ({"op": "class", "field": repr(F), "A": A, "B": B},
                   {"mod4": _order_class(F, A, B), "mod3": _three_class(F, A, B),
                    "xq_cubic": F.xq_mod((B, A)), "xq_psi3": F.xq_mod(psi)})


def oracle_outcomes():
    """ORACLE_MODELS oracle.random_instance models per type and ORACLE_PRIMES
    prime, and oracle.perturb of each at 256 bits."""
    from g2lpoly.clusterclassify import ClusterType
    from g2lpoly.oracle import perturb, random_instance

    def planted(inst):
        # the planted model, not the whole record, whose fields may differ between trees
        return {"f": list(inst.f), "type": inst.type.value, "depths": list(inst.depths)}

    rng = random.Random(2029)
    for p in ORACLE_PRIMES:
        for typ in ClusterType:
            for i in range(ORACLE_MODELS):
                inst = random_instance(p, typ, rng, compute_expected=False)
                yield {"op": "oracle", "p": p, "type": typ.value, "i": i}, planted(inst)
                yield ({"op": "perturb", "p": p, "type": typ.value, "i": i},
                       planted(perturb(inst, rng, 256)))


def cli_outcomes():
    """process_line on tests/test_golden.golden_inputs(seed, COUNT) for each
    seed, as p:[f] or p:[f]:[h] job lines, and on REJECT_LINES."""
    from g2lpoly.cli import process_line
    from test_golden import golden_inputs

    def job(case):
        lists = [case["f"]] + ([] if case["h"] is None else [case["h"]])
        return ":".join([str(case["p"])] + [f"[{','.join(map(str, c))}]" for c in lists])

    lines = [job(case) for seed in SEEDS for case in golden_inputs(seed, COUNT)]
    for line in lines + list(REJECT_LINES):
        yield {"op": "cli", "line": line}, {"out": process_line(line)}


SECTIONS = (golden_outcomes, singular_outcomes, height_outcomes, bsgs_outcomes, kernel_outcomes,
            poly_outcomes, sqrt_outcomes, class_outcomes, oracle_outcomes, cli_outcomes)


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
        json.dump([pair for section in SECTIONS for pair in section()], sys.stdout)
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
