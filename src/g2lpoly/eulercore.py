"""Degree-4 local L-polynomials of genus 2 curves at odd primes where the
Jacobian keeps good reduction.

Each reduction type descends into the inner clusters with substitutions
x -> p*x + r followed by exact division (clusterclassify.recentre), until
the reduced cubic is no longer a cube; types 1 and 4 read their loose
cubic off fbar(x + r) at the triple root r.  A handler returns the field, the
genus 1 cubics found there and its loop counts.  euler_factor_with_stats
builds a Genus1Model of each, the one separability check of a genus 1
curve, before it counts any: p_normalize has proved f squarefree, so a
singular curve means the almost-good hypothesis fails, and NotSquarefree
becomes NotAlmostGood.  It then multiplies their factors out to the
answer.  LPoly2, EulerInput and RunStats are immutable named tuples.
"""

import random
from collections import namedtuple

from .clusterclassify import Classification, ClusterType, classify, p_normalize, recentre
from .clusterclassify import which_type  # noqa: F401  only a hook target for perfbench/tracing.py
from .errors import HasseViolation, NotAlmostGood, NotSquarefree
from .genus1 import Genus1Model, lpoly1
from .modarith import Integers, QuadOrder, legendre, sqrt_mod_p
from .polyring import disc, shift_scale  # noqa: F401  only hook targets for perfbench/tracing.py
from .polyring import (
    complete_square,
    deg,
    fp_gcd_k,
    power_root,
    reduce_mod,
    taylor_shift,
    trim,
)


class LPoly2(namedtuple("LPoly2", "a1 a2 p")):
    """1 + a1*T + a2*T^2 + p*a1*T^3 + p^2*T^4."""

    __slots__ = ()

    @classmethod
    def from_traces(cls, t1: int, t2: int, p: int) -> "LPoly2":
        """(1 - t1*T + p*T^2)(1 - t2*T + p*T^2)."""
        return cls(-(t1 + t2), t1 * t2 + 2 * p, p)

    def coefficients(self):
        return (1, self.a1, self.a2, self.p * self.a1, self.p * self.p)


class EulerInput(namedtuple("EulerInput", "f p h max_iters", defaults=(None, None))):
    """A curve y^2 + h(x) y = f(x) (h optional) and an odd prime p."""

    __slots__ = ()


class RunStats(namedtuple("RunStats", "cluster_type loop_iters normalize_v",
                          defaults=(None, (), 0))):
    """Loop-iteration diagnostics; counts equal the cluster depths."""

    __slots__ = ()


def validate_lpoly2(lp: LPoly2) -> bool:
    """Weil/functional-equation gate: both quadratic factors of the quartic
    must have real trace of absolute value at most 2*sqrt(p)."""
    p, a1, a2 = lp.p, lp.a1, lp.a2
    if a1 * a1 > 16 * p:
        return False
    if abs(a2) > 6 * p:
        return False
    # traces s1, s2 solve s^2 + a1 s + (a2 - 2p) = 0
    if a1 * a1 - 4 * (a2 - 2 * p) < 0:
        return False
    c = 2 * p + a2  # c >= |2 a1| sqrt(p) puts both traces in [-2 sqrt p, 2 sqrt p]
    if c < 0 or c * c < 4 * a1 * a1 * p:
        return False
    return True


def _cut(f, fbar, g, Z, max_iters):
    """Type 1's or type 4's two curves at the root r of g = x - r, where the
    reduction fbar of f is lc (x - r)^3 w: fbar(x + r) from x^2 up is
    x w(x + r), the first cubic for a quadratic w and for a cubic w reversed
    into x^3 w(1/x + r); the depth-3 descent from r gives the second."""
    r = -g[0] % Z.p
    _, g2bar, iters = recentre(f, r, 3, Z, max_iters)
    xw = reduce_mod(taylor_shift(fbar, r), Z.p)[2:]
    return (xw if len(xw) == 4 else xw[:0:-1], g2bar), iters


def euler_type1(c: Classification, max_iters: int):
    """Type 1: one loose triple cluster.

    With f mod p = (x - r)^3 u(x), the first curve is y^2 = (x - r) u(x);
    the descent into the depth-n cluster gives the second.
    """
    Z = Integers(c.nf.p)
    cubics, iters = _cut(c.nf.ftilde, c.fbar, c.kernel, Z, max_iters)
    return Z.kappa, cubics, (iters,)


def euler_type2a(c: Classification, max_iters: int):
    """Type 2a: two rational triple clusters, centers from the quadratic
    formula (at p = 1 mod 4, the least nonsquare is the root's witness)."""
    p, Z = c.nf.p, Integers(c.nf.p)
    u = c.kernel  # monic, split over F_p
    s = next(s for s in range(2, p) if legendre(s, p) < 0) if p % 4 == 1 else None
    root = sqrt_mod_p(u[1] * u[1] - 4 * u[0], p, s)
    inv2 = (p + 1) // 2
    # smaller center first; the product is symmetric
    r1, r2 = sorted(((-u[1] + root) * inv2 % p, (-u[1] - root) * inv2 % p))
    _, g1bar, it1 = recentre(c.nf.ftilde, r1, 3, Z, max_iters)
    _, g2bar, it2 = recentre(c.nf.ftilde, r2, 3, Z, max_iters)
    return Z.kappa, (g1bar, g2bar), (it1, it2)


def euler_type2b(c: Classification, max_iters: int):
    """Type 2b: Frobenius-conjugate triple clusters.

    The descent runs over the order Z[z]/(u) with u the canonical lift of the
    irreducible quadratic kernel, starting from the center z.  The single
    curve lives over F_{p^2} and contributes 1 - a T^2 + p^2 T^4.
    """
    p, u = c.nf.p, c.kernel
    order = QuadOrder(u[0], u[1], p)
    fo = tuple(order.from_int(a) for a in c.nf.ftilde)
    _, gbar, iters = recentre(fo, order.gen, 3, order, max_iters)
    return order.kappa, (gbar,), (iters,)


def euler_type4(c: Classification, max_iters: int):
    """Type 4: nested clusters under a quintuple root.

    The outer recentring divides by p^5 while the reduction keeps the five
    inner roots together as lc (x - r)^5; once only a triple cluster
    remains, its cofactor is the first curve and an ordinary
    depth-3 descent finds the second.
    """
    Z = Integers(c.nf.p)
    r = power_root(c.kernel, 3, Z.kappa)  # the kernel of (x - r)^5 (x - s) is (x - r)^3
    ftilde, fbar, outer = recentre(c.nf.ftilde, r, 5, Z, max_iters)
    _, g3 = fp_gcd_k(fbar, 3, Z.p)
    if deg(g3) != 1:
        raise NotAlmostGood(f"type 4 kernel of degree {deg(g3)}")
    cubics, inner = _cut(ftilde, fbar, g3, Z, max_iters)
    return Z.kappa, cubics, (outer, inner)


def euler_factor_with_stats(inp: EulerInput, rng=random):
    """euler_factor plus loop-iteration diagnostics."""
    f = trim(inp.f)
    h = trim(inp.h or ())
    nf = p_normalize(complete_square(f, h) if h else f, inp.p)
    c = classify(nf)
    # default cap: a descent past vdisc_bound + 1 steps needs v_p(disc) > 6 * vdisc_bound
    max_iters = nf.vdisc_bound + 1 if inp.max_iters is None else inp.max_iters
    handler = {
        ClusterType.T1: euler_type1,
        ClusterType.T2A: euler_type2a,
        ClusterType.T2B: euler_type2b,
        ClusterType.T4: euler_type4,
    }[c.type]
    field, cubics, iters = handler(c, max_iters)
    models = []
    for i, g in enumerate(cubics, 1):
        try:
            models.append(Genus1Model(field, g))
        except NotSquarefree as exc:
            raise NotAlmostGood(f"type {c.type.value} curve {i} is singular: y^2 = {g}") from exc
    traces = [lpoly1(m, rng).a for m in models]
    if len(traces) == 2:
        lp = LPoly2.from_traces(*traces, nf.p)
    else:
        # type 2b's one curve over F_{p^2}: L(E/F_{p^2}, T^2) = 1 - t T^2 + p^2 T^4
        lp = LPoly2(0, -traces[0], nf.p)
    if not validate_lpoly2(lp):
        raise HasseViolation(f"Weil bounds fail for {lp}")
    return lp, RunStats(c.type, iters, nf.v)


def euler_factor(inp: EulerInput, rng=random) -> LPoly2:
    """The main entry point: normalize, classify, and dispatch.

    rng feeds only the group-order search (no genus 1 field below 2^13 draws),
    whose points change how long a call takes, never its answer.  Without one
    they come from the random module's stream, so random.seed(n) repeats a run.
    GoodReduction propagates so batch callers can reroute those primes.
    """
    return euler_factor_with_stats(inp, rng)[0]
