import dataclasses
import math
import sys
from collections import Counter

import numpy as np
import pytest

from ostrowski_frac import fracint
from ostrowski_frac.corpus import exp_decay_spec, power_decay_spec
from ostrowski_frac.fracint import (
    CC_DEGREE,
    MAX_TOL,
    ConvergenceError,
    DomainError,
    FracParams,
    QuadConfig,
    adaptive_gauss,
    clenshaw_curtis_many,
    gamma,
    mexp_integral,
    rl_lower,
    rl_many,
    rl_upper,
)
from ostrowski_frac.report import DEFAULT_MUS

import mp_oracle
from conftest import simpson

SQRT_PI = 1.7724538509055160


class TestGamma:
    def test_anchor_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-12)

    def test_recurrence(self):
        rng = np.random.default_rng(42)
        for z in rng.uniform(0.1, 40.0, size=200):
            lhs = gamma(z + 1.0)
            assert abs(lhs - z * gamma(z)) / lhs <= 1e-11

    @pytest.mark.parametrize("z", [0.0, -1.0, float("nan"), float("inf"), 171.63, 401.0])
    def test_domain_errors(self, z):
        # Above about 171.62, math.gamma raises OverflowError.
        with pytest.raises(DomainError):
            gamma(z)


class TestFracParams:
    def test_valid(self):
        FracParams(0.0, 2.0, 1.0, 0.5)

    @pytest.mark.parametrize(
        "a,b,x,mu",
        [(-0.1, 1, 0.5, 1), (1, 1, 1, 1), (0, 1, 1.5, 1), (0, 1, 0.5, 0), (0, 1, 0.5, -2),
         (0, 1, 0.5, 170.63), (0, 1, 0.5, 400)],
    )
    def test_invalid(self, a, b, x, mu):
        with pytest.raises(DomainError):
            FracParams(a, b, x, mu)

    def test_largest_mu(self):
        # Gamma(171.62) is still finite.
        FracParams(0.0, 1.0, 0.5, 170.62)


class TestQuadConfig:
    def test_defaults(self):
        cfg = QuadConfig()
        assert cfg.abs_tol == 1e-10 and cfg.rel_tol == 1e-9

    def test_invalid(self):
        with pytest.raises(DomainError):
            QuadConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadConfig(max_subdivisions=0)

    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [math.inf, 1e300, 1.0001e-8, math.nan, 0.0, -1e-10])
    def test_tolerance_outside_range(self, name, value):
        # 100 * abs_tol is the slack a verdict is granted: a loose tolerance
        # would let it pass any violation.
        with pytest.raises(DomainError) as got:
            QuadConfig(**{name: value})
        assert str(got.value) == f"{name} in (0, 1e-08] required"

    def test_tolerance_cap_is_accepted(self):
        cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
        assert cfg.abs_tol == cfg.rel_tol == MAX_TOL == 1e-8


class TestAdaptiveGauss:
    def test_polynomial_exact(self):
        got = adaptive_gauss(lambda s: s**3 - 2 * s, 0.0, 2.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_empty_interval(self):
        assert adaptive_gauss(np.exp, 1.0, 1.0) == 0.0

    def test_reversed_bounds(self):
        with pytest.raises(DomainError):
            adaptive_gauss(np.exp, 1.0, 0.0)

    def test_convergence_error(self):
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
        with pytest.raises(ConvergenceError):
            adaptive_gauss(lambda s: np.abs(s - 1 / 3) ** 0.05, 0.0, 1.0, cfg)


def recursive_cc(phi, mu, cfg=QuadConfig()):
    """`clenshaw_curtis_many` of one integral as a depth-first recursion, one
    panel per call of phi: an oracle for the breadth-first levels, which
    must give the same bits or the same ConvergenceError."""
    nodes = fracint._cc_basis()[0]

    def panel(i, depth):
        # (value, |fine - coarse|) on [i h, (i + 1) h]
        h = 0.5**depth
        u = i * h + h * nodes
        vals = np.asarray(phi(u), dtype=float)
        if i == 0:
            fine, diff = fracint._rule_pair(vals[None, :], fracint._cc_rules(mu))
            scale = h**mu
        else:
            weighted = (mu * u ** (mu - 1.0) * vals)[None, :]
            fine, diff = fracint._rule_pair(weighted, fracint._cc_rules(1.0))
            scale = h
        return fine[0] * scale, diff[0] * scale

    whole, err = panel(0, 0)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(whole))  # abs_tol if whole is nan
    if err <= tol:
        return float(whole)

    def refine(i, depth):
        value, err = panel(i, depth)
        h = 0.5**depth
        where = f"[{i * h}, {(i + 1) * h}]"
        if not math.isfinite(value):
            raise ConvergenceError(f"integrand not finite on {where}")
        if err <= tol * h:
            return value
        if depth == cfg.max_subdivisions:
            raise ConvergenceError(
                f"quadrature on {where} not converged at depth {depth} (disagreement {err:.3g})")
        return refine(2 * i, depth + 1) + refine(2 * i + 1, depth + 1)

    return float(refine(0, 1) + refine(1, 1))


def batch_of(gs):
    """One g(s, k) that evaluates gs[k] on the points of integral k."""

    def g(s, k):
        out = np.empty_like(s)
        for i, gi in enumerate(gs):
            sel = k == i
            if sel.any():
                out[sel] = gi(s[sel])
        return out

    return g


def outcome(integrate):
    """integrate()'s value, or its ConvergenceError's message."""
    try:
        return integrate()
    except ConvergenceError as exc:
        return f"ConvergenceError: {exc}"


def assert_bitwise(gs, mu, cfg=QuadConfig()):
    """The integrals of gs under the density mu u^(mu-1), each alone and all
    in one batch, against the recursion: the same bits, or the same
    ConvergenceError, the lowest-index one for the batch."""
    want = [outcome(lambda g=g: recursive_cc(g, mu, cfg)) for g in gs]
    for g, v in zip(gs, want):
        alone = outcome(lambda: float(clenshaw_curtis_many(lambda u, k: g(u), 1, (mu,), cfg)[0, 0]))
        assert alone == v
    failed = [v for v in want if isinstance(v, str)]
    got = outcome(lambda: clenshaw_curtis_many(batch_of(gs), len(gs), (mu,), cfg)[0].tolist())
    assert got == (failed[0] if failed else want)


def rl_integrand(f, c, e):
    """phi of the fractional integral between anchor c and end e,
    f(c + (e - c) u): its mean under the density mu u^(mu-1) times
    |e - c|^mu / Gamma(mu + 1) is the fractional integral."""
    return lambda u: f(c + (e - c) * u)


# |rl_many - closed form|: the rule is within a few ulps of values up to
# 73 in size (2.8e-14 at worst, on the refined sides of STEEP_MEMBERS).
RL_ORACLE_BOUND = 1e-13


def assert_near_oracle(got, fid, anchors, ends, mu):
    family, params = mp_oracle.CORPUS[fid]
    for value, c, e in zip(got, anchors, ends):
        want = mp_oracle.rl(family, params, c, e, mu)
        assert abs(value - float(want)) <= RL_ORACLE_BOUND, (fid, c, e, mu, value, want)


def panels_per_depth(phi, mu, cfg=QuadConfig()):
    """The number of panels the recursion evaluates at each depth, from 0:
    the panels a level of the batched refinement evaluates for phi."""
    widths = Counter()

    def panel(u):
        widths[round(math.log2(np.ptp(u)))] += 1
        return phi(u)

    outcome(lambda: recursive_cc(panel, mu, cfg))
    return [count for _, count in sorted(widths.items(), reverse=True)]


# Integrals whose panel trees differ: refinement depths, leftmost failing
# panels and panels accepted at the cap all come out of the same tree walk.
CORNER_CFGS = [
    QuadConfig(),
    QuadConfig(abs_tol=1e-13, rel_tol=1e-13),
    QuadConfig(max_subdivisions=40),
]

# Integrands that level 0 leaves unresolved and the refinement resolves at
# mu = 2.5: a boundary layer, a kink, and a corner that the weight's u^1.5
# damps.
STEEP = [
    lambda u: np.exp(-450.0 * u),
    lambda u: np.abs(u - 0.3),
    lambda u: u**0.1,
]

CORNERS = [
    lambda t: t**0.1,
    lambda t: (1.0 - t) ** 0.1,
    lambda t: np.abs(t - 0.3) ** 0.1,
    lambda t: t**0.1 * np.exp(-t),
]


class TestBatchedRefinerMatchesRecursion:
    """The breadth-first refinement of `clenshaw_curtis_many` against the
    depth-first recursion: equal to the last bit, not approximately."""

    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_polynomials(self, cfg):
        # Degree 48 and below is exact at level 0; s^60 is not.
        gs = [lambda s: s**3 - 2 * s, lambda s: 7.0 * s**20 + s, lambda s: 1.0 + 0.0 * s,
              lambda s: s**60 + s]
        for mu in (0.5, 2.5):
            assert_bitwise(gs, mu, cfg)

    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_algebraic_corners(self, cfg):
        # At mu = 2.5 the corners at 0 converge, damped by the weight; the
        # weight does not hold the corners at 1 and at 0.3, and at mu = 0.5
        # it does not damp the one at 0, so those fail at the depth cap.
        for mu in (0.5, 2.5):
            assert_bitwise(CORNERS, mu, cfg)

    @pytest.mark.parametrize("mu", [0.1, 0.25, 0.5, 1.0, 2.5])
    def test_corpus_rl_integrands(self, corpus, mu):
        # The corpus' fractional integrals: their integrands batched against
        # the recursion, and `rl_many` against their closed forms.
        for fid, spec in corpus.items():
            a, b = spec.domain
            xs = [a + frac * (b - a) for frac in (0.05, 0.5, 0.95)]
            anchors, ends = [a, b] * 3, [x for x in xs for _ in "ab"]
            assert_bitwise([rl_integrand(spec.f, c, e) for c, e in zip(anchors, ends)], mu)
            assert_near_oracle(rl_many(spec, anchors, ends, (mu,))[0], fid, anchors, ends, mu)

    @pytest.mark.parametrize("mu", [0.1, 0.5, 2.5])
    def test_rl_entry_points(self, corpus, mu):
        spec = corpus["powdecay"]
        a, b = spec.domain
        x = 1.37
        lower, upper = rl_lower(spec, a, x, mu), rl_upper(spec, x, b, mu)
        assert_near_oracle([lower, upper], "powdecay", [x, x], [a, b], mu)
        assert rl_many(spec, [x, x, a], [a, b, a], (mu,)).tolist() == [[lower, upper, 0.0]]

    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_arrays_given_to_g_are_never_written(self, cfg):
        # g keeps every u and k it is given and returns read-only values:
        # the refinement may compute in place only in arrays of its own.
        gs = STEEP * 6
        batch = batch_of(gs)
        kept = []  # (an array g was given or returned, its copy at the time)

        def g(u, k):
            vals = batch(u, k)
            vals.flags.writeable = False
            kept.extend((array, array.copy()) for array in (u, k, vals))
            return vals

        (got,) = clenshaw_curtis_many(g, len(gs), (2.5,), cfg)
        assert got.tolist() == [recursive_cc(gi, 2.5, cfg) for gi in STEEP] * 6
        assert len(kept) > 3 * 10
        for array, copy in kept:
            assert np.array_equal(array, copy)

    def test_empty_and_nonempty_mixed(self):
        # The integrand of an empty interval (`rl_many`'s end == anchor) is
        # constant: level 0 resolves it, with the smooth ones, and the
        # refinement evaluates only the integrals whose rules disagree.
        calls = []
        gs = [lambda u: 1.0 + 0.0 * u, STEEP[0], np.exp, STEEP[1], lambda u: 2.0 + 0.0 * u]
        batch = batch_of(gs)

        def g(u, k):
            calls.append(set(k.tolist()))
            return batch(u, k)

        (got,) = clenshaw_curtis_many(g, len(gs), (0.5,))
        assert got.tolist() == [recursive_cc(gi, 0.5) for gi in gs]
        assert got[0] == 1.0 and got[4] == 2.0
        assert calls[0] == {0, 1, 2, 3, 4}
        assert set().union(*calls[1:]) == {1, 3}

    def test_all_empty_makes_no_call(self):
        def g(s):
            raise AssertionError("integrand called on an empty interval")

        assert adaptive_gauss(g, 1.0, 1.0) == adaptive_gauss(g, 2.0, 2.0) == 0.0

    def test_one_call_per_level(self):
        n = 17
        calls = []

        def g(u, k):
            calls.append(u.size)
            return np.abs(u - 0.3)

        clenshaw_curtis_many(g, n, (0.5,))
        # One call for level 0, then one per bisection level, covering
        # exactly the panels the recursion evaluates one at a time.
        per_depth = panels_per_depth(lambda u: np.abs(u - 0.3), 0.5)
        assert calls == [n * (CC_DEGREE + 1) * count for count in per_depth]
        assert len(calls) > 10

    @pytest.mark.parametrize(
        "order",
        [[0, 1, 2], [0, 2, 1], [2, 1, 0], [1, 0, 2]],
    )
    def test_convergence_error_names_first_failing_integral(self, order):
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
        pool = [
            lambda s: s**2,  # converges
            lambda s: np.abs(s - 1 / 3) ** 0.05,  # fails near 1/3
            lambda s: np.abs(s - 0.8) ** 0.05 + np.abs(s - 0.6) ** 0.05,  # fails twice
        ]
        gs = [pool[i] for i in order]
        first = next(i for i in order if i != 0)
        with pytest.raises(ConvergenceError) as want:
            recursive_cc(pool[first], 1.0, cfg)
        with pytest.raises(ConvergenceError) as single:
            adaptive_gauss(pool[first], 0.0, 1.0, cfg)
        with pytest.raises(ConvergenceError) as batch:
            clenshaw_curtis_many(batch_of(gs), len(gs), (1.0,), cfg)
        assert str(single.value) == str(batch.value) == str(want.value)
        assert batch.value.index == order.index(first)


def recorded(g, sizes):
    """g, appending the number of points of each call to sizes."""

    def h(s, k):
        sizes.append(s.size)
        return g(s, k)

    return h


class TestSmallLevels:
    """The level schedule: one call of phi for level 0 on every integral,
    then one per depth on the halves of the panels still active there,
    whether few or many, and bit for bit the recursion, at odd and even
    depth caps and where a deeper level is not finite."""

    def test_schedule(self):
        # One integral: one call for level 0, then one per depth, on the
        # panels the recursion evaluates at that depth.
        sizes = []
        kept = []  # (an array g was given or returned, its copy at the time)

        def g(u, k):
            sizes.append(u.size)
            vals = np.abs(u - 0.3)
            vals.flags.writeable = False
            kept.extend((array, array.copy()) for array in (u, k, vals))
            return vals

        (got,) = clenshaw_curtis_many(g, 1, (0.5,))
        assert got.tolist() == [recursive_cc(lambda u: np.abs(u - 0.3), 0.5)]
        per_depth = panels_per_depth(lambda u: np.abs(u - 0.3), 0.5)
        assert per_depth[0] == 1 and len(per_depth) > 10  # level 0, then depths 1, 2, ...
        assert sizes == [count * (CC_DEGREE + 1) for count in per_depth]
        for array, copy in kept:
            assert np.array_equal(array, copy)

    @pytest.mark.parametrize("cap", [4, 5, 6, 7])
    def test_schedule_at_the_depth_cap(self, cap):
        # s^2.5 at tolerance 1e-14 needs depth 5: it fails at cap 4, is
        # accepted at the cap at 5 and below it at 6 and 7, with one call
        # per depth in each case.
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=cap)
        sizes = []
        got = outcome(lambda: clenshaw_curtis_many(
            recorded(lambda s, k: s**2.5, sizes), 1, (1.0,), cfg)[0].tolist())
        want = outcome(lambda: [recursive_cc(lambda s: s**2.5, 1.0, cfg)])
        assert got == want
        assert isinstance(want, str) == (cap < 5)
        # The recursion stops at its first failure, so the schedule is that
        # of its tree without a cap, cut at the cap: level 0, then depths 1
        # to 5 or to the cap.
        per_depth = panels_per_depth(lambda s: s**2.5, 1.0, dataclasses.replace(cfg, max_subdivisions=7))
        assert len(per_depth) == 6
        assert sizes == [count * (CC_DEGREE + 1) for count in per_depth[:cap + 1]]

    @pytest.mark.parametrize("n", [15, 16, 17])
    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_batch_sizes_around_the_threshold(self, n, cfg):
        gs = [STEEP[i % len(STEEP)] for i in range(n)]
        assert_bitwise(gs, 2.5, cfg)
        # Depth 1 bisects [0, 1] for each of the n integrals, whatever n.
        sizes = []
        clenshaw_curtis_many(recorded(batch_of(gs), sizes), n, (2.5,), cfg)
        assert sizes[:2] == [n * (CC_DEGREE + 1), 2 * n * (CC_DEGREE + 1)]

    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_levels_fall_into_the_small_path(self, cfg):
        # 17 polynomials converge at level 0; the three steep integrands
        # refine on, 6 active panels at depth 1 and no more below.
        gs = [lambda s, i=i: s**2 + i for i in range(17)] + STEEP
        n = len(gs)
        assert_bitwise(gs, 2.5, cfg)
        sizes = []
        clenshaw_curtis_many(recorded(batch_of(gs), sizes), n, (2.5,), cfg)
        assert sizes[:2] == [n * (CC_DEGREE + 1), 2 * 3 * (CC_DEGREE + 1)]
        assert max(sizes[2:]) <= sizes[1]

    def test_levels_rise_out_of_the_small_path(self):
        # sin(200 s + i) splits every panel down to depth 3: 5 active
        # panels at level 0, 10 at depth 1, 20 at depth 2, 40 at depth 3.
        gs = [lambda s, i=i: np.sin(200.0 * s + i) for i in range(5)]
        assert_bitwise(gs, 1.0)
        sizes = []
        clenshaw_curtis_many(recorded(batch_of(gs), sizes), 5, (1.0,))
        assert sizes == [count * (CC_DEGREE + 1) for count in (5, 10, 20, 40, 12)]

    @pytest.mark.parametrize("cap", [3, 4, 5, 6])
    @pytest.mark.parametrize("tol", [1e-14, 1e-10])
    def test_lookahead_pair_at_the_depth_cap(self, cap, tol):
        # Odd and even caps: each integral converges, is accepted at the
        # cap or fails there, as the recursion does, in either order.
        cfg = QuadConfig(abs_tol=tol, rel_tol=tol, max_subdivisions=cap)
        pool = CORNERS + STEEP + [lambda s: s**2, lambda s: np.abs(s - 1 / 3) ** 0.05]
        for order in (pool, pool[::-1]):
            assert_bitwise(order, 2.5, cfg)

    def test_nonfinite_half_and_cap_failure_in_a_lookahead_level(self):
        # spiked is nan only at one node of the quarter [0.25, 0.5], so
        # [0, 1] splits at level 0, [0, 0.5] at depth 1 (its kink), and
        # [0.25, 0.5] is found not finite at depth 2.
        spike = 0.25 + 0.25 * fracint._cc_basis()[0][5]

        def spiked(s):
            return np.where(np.abs(s - spike) < 1e-12, np.nan, np.abs(s - 0.3))

        capped = lambda s: np.abs(s - 1 / 3) ** 0.05  # noqa: E731
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
        with pytest.raises(ConvergenceError) as want:
            recursive_cc(capped, 1.0, cfg)
        assert "not converged at depth 3" in str(want.value)
        nonfinite = "ConvergenceError: integrand not finite on [0.25, 0.5]"
        assert outcome(lambda: recursive_cc(spiked, 1.0, cfg)) == nonfinite
        errors = [outcome(lambda gs=gs: clenshaw_curtis_many(batch_of(gs), 2, (1.0,), cfg))
                  for gs in ([capped, spiked], [spiked, capped])]
        assert errors == [f"ConvergenceError: {want.value}", nonfinite]


def forbid_refinement(monkeypatch):
    """Make any refinement past level 0 of `clenshaw_curtis_many` fail the
    test."""

    def refine(phi, ks, tol, mu, cfg):
        raise AssertionError("refinement taken")

    monkeypatch.setattr(fracint, "_refine", refine)


def spy_refinement(monkeypatch):
    """A list that gets the number of integrals of each refinement
    `clenshaw_curtis_many` makes."""
    calls = []
    refine = fracint._refine

    def spy(phi, ks, tol, mu, cfg):
        calls.append(ks.size)
        return refine(phi, ks, tol, mu, cfg)

    monkeypatch.setattr(fracint, "_refine", spy)
    return calls


class TestClosedFormOracle:
    """`mp_oracle.rl`'s hypergeometric closed forms against 40-digit
    quadrature of the bounded integrand after u = w^(1/mu)."""

    @pytest.mark.parametrize("fid", ["powdecay", "expdecay"])
    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 2.5])
    def test_decay_forms_match_quadrature(self, fid, mu):
        family, params = mp_oracle.CORPUS[fid]
        for anchor, end in ((1.0, 1.7), (2.0, 1.3), (1.0, 2.0), (2.0, 1.0)):
            closed = mp_oracle.rl(family, params, anchor, end, mu)
            quad = mp_oracle.rl_quad(family, params, anchor, end, mu)
            with mp_oracle.mp.workdps(mp_oracle.DPS):
                assert abs(closed - quad) <= 1e-30 * abs(closed), (anchor, end)


def cc_rule(n, mu):
    """(nodes, weights, their sum) of the rule of degree n = CC_DEGREE (the
    fine rule) or CC_DEGREE / 2 (the coarse rule) that `clenshaw_curtis_many`
    takes for mu."""
    nodes = fracint._cc_basis()[0]
    fine_w, fine_sum, coarse_w, coarse_sum = fracint._cc_rules(mu)
    if n == CC_DEGREE // 2:
        return nodes[0::2], coarse_w, coarse_sum
    assert n == CC_DEGREE
    return nodes, fine_w, fine_sum


class TestJacobiRules:
    """The Clenshaw-Curtis product rules for the Jacobi weight mu u^(mu-1):
    fixed nodes, and weights from the Chebyshev moments of that weight."""

    MUS = (
        sorted(set(np.random.default_rng(22).uniform(0.1, 3.0, size=200).tolist()))
        + list(DEFAULT_MUS) + [0.1, 0.25, 0.5, 1.0, 1.5, 2.5]  # the dense sweep's
    )

    def test_moments_match_oracle(self):
        # The forward recurrence against the terminating 3F2 at 40 digits,
        # on the scale of r_0 = 2^mu / mu that the weights C^T r carry: the
        # odd moments vanish at mu = 1, and others pass near 0.
        for mu in self.MUS:
            r = fracint._cc_moments(mu)
            assert len(r) == CC_DEGREE + 1
            for k, got in enumerate(r):
                want = mp_oracle.cheb_moment(mu, k)
                assert abs(got - float(want)) <= 2e-15 * r[0], (mu, k, got, want)

    def test_coarse_nodes_are_even_fine_nodes(self):
        nodes = fracint._cc_basis()[0]
        n = CC_DEGREE // 2
        coarse = 0.5 + 0.5 * np.cos(np.arange(n + 1) * (math.pi / n))
        assert nodes.size == CC_DEGREE + 1
        assert nodes[0::2].tobytes() == coarse.tobytes()
        assert nodes[0] == 1.0 and nodes[-1] == 0.0 and np.all(np.diff(nodes) < 0)

    def test_no_linalg_call(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("numpy.linalg called")

        for name in dir(np.linalg):
            if callable(getattr(np.linalg, name)) and not name[0].isupper():
                monkeypatch.setattr(np.linalg, name, refuse)
        fracint._cc_rules.cache_clear()
        fracint._cc_basis.cache_clear()
        for mu in (0.37, 0.37, 1.9, 0.37, 1.9):
            clenshaw_curtis_many(lambda u, k: np.exp(u), 3, (mu,))
        assert fracint._cc_rules.cache_info().misses == 2

    def test_cache_holds_128_mu(self):
        assert fracint._cc_rules.cache_info().maxsize == 128


class TestGaussJacobi:
    """The rule pair every weakly singular integral takes on [0, 1], and
    the refinement an integral falls back to where the pair disagrees."""

    @pytest.mark.parametrize("beta", [-0.9, -0.5, 0.0, 1.5])
    @pytest.mark.parametrize("n", [CC_DEGREE // 2, CC_DEGREE])
    def test_nodes_integrate_monomials(self, n, beta):
        # A product rule on n + 1 nodes is exact through degree n: with the
        # weight u^beta, sum w_i u_i^k = 1/(beta + k + 1).
        mu = beta + 1.0
        nodes, weights, total = cc_rule(n, mu)
        assert nodes.size == n + 1 and np.all((0.0 <= nodes) & (nodes <= 1.0))
        for k in range(n + 1):
            got = float(np.add.reduce(weights * nodes**k) / total[0]) / mu
            assert got == pytest.approx(1.0 / (beta + k + 1.0), rel=5e-14), k

    def test_batch_equals_alone(self, monkeypatch):
        # Two integrals the rule resolves and two it refines (a kink, and a
        # boundary layer 49 nodes cannot follow), bit for bit.
        gs = [np.exp, lambda u: u**3, STEEP[1], STEEP[0]]
        calls = spy_refinement(monkeypatch)
        for mu in (0.1, 0.7, 2.5):
            calls.clear()
            (batch,) = clenshaw_curtis_many(batch_of(gs), len(gs), (mu,))
            assert calls == [2]
            alone = [clenshaw_curtis_many(lambda u, k, g=g: g(u), 1, (mu,))[0, 0] for g in gs]
            assert calls == [2, 1, 1]
            assert batch.tolist() == alone
            assert batch[1] == pytest.approx(mu / (mu + 3.0), rel=1e-14)

    @pytest.mark.parametrize("mu", [0.3, 1.0, 2.5])
    def test_result_is_the_finer_rule(self, monkeypatch, mu):
        # e^(28 u): the coarse rule is off by 4.2e-12 to 1.4e-10 relative,
        # inside tolerance, the fine one by rounding.  The mean is
        # 1F1(mu; mu+1; 28).
        forbid_refinement(monkeypatch)
        ((got,),) = clenshaw_curtis_many(lambda u, k: np.exp(28.0 * u), 1, (mu,))
        assert mp_oracle.rel_err(got, mp_oracle.mp.hyp1f1(mu, mu + 1, 28)) <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrand_raises(self, bad):
        with pytest.raises(ConvergenceError, match=r"^integrand not finite on "):
            clenshaw_curtis_many(lambda u, k: np.where(u > 0.5, bad, u), 1, (0.5,))

    def test_failure_index_is_the_batch_index(self):
        # Integral 0 resolves; 1, 2 and 3 are refined, where 1 converges and
        # 2 and 3 fail: the refinement sees them as its 1 and 2, the error
        # is 2's.
        bad = lambda u: np.where(u > 0.5, np.nan, u)  # noqa: E731
        gs = [np.exp, lambda u: np.abs(u - 0.3), bad, bad]
        with pytest.raises(ConvergenceError, match=r"^integrand not finite on ") as got:
            clenshaw_curtis_many(batch_of(gs), len(gs), (0.5,))
        assert got.value.index == 2

    def test_rows_equal_one_mu_at_a_time(self, monkeypatch):
        # One level-0 evaluation serves every mu, repeated ones too; each
        # row, refined or not, is bit for bit the call with its mu alone.
        gs = [np.exp, lambda u: u**3, STEEP[1], STEEP[0]]
        mus = (0.1, 2.5, 0.7, 0.1)
        sizes = []
        calls = spy_refinement(monkeypatch)
        got = clenshaw_curtis_many(recorded(batch_of(gs), sizes), len(gs), mus)
        assert got.shape == (len(mus), len(gs)) and calls == [2] * len(mus)
        want = [len(gs) * (CC_DEGREE + 1)]  # level 0, then each mu's levels
        for mu, row in zip(mus, got.tolist()):
            alone = []
            assert row == clenshaw_curtis_many(
                recorded(batch_of(gs), alone), len(gs), (mu,))[0].tolist()
            assert alone[0] == want[0]
            want += alone[1:]
        assert sizes == want

    def test_failure_index_counts_rows(self):
        # t^0.1 converges at mu = 2.5, where the weight damps its corner,
        # and fails at the depth cap at mu = 0.5: the error is the mu = 0.5
        # row's, and its index is its position in the flattened result.
        gs = [np.exp, CORNERS[0]]
        with pytest.raises(ConvergenceError) as alone:
            clenshaw_curtis_many(batch_of(gs), 2, (0.5,))
        assert alone.value.index == 1
        clenshaw_curtis_many(batch_of(gs), 2, (2.5,))
        with pytest.raises(ConvergenceError) as got:
            clenshaw_curtis_many(batch_of(gs), 2, (2.5, 2.5, 0.5, 0.5))
        assert str(got.value) == str(alone.value) and got.value.index == 2 * 2 + 1

    @pytest.mark.parametrize("mu", [0.5, 1.0])
    def test_unresolved_side_falls_back(self, monkeypatch, mu):
        # exp_decay with lam = 50 over [1, 10]: the side anchored at 1 is
        # e^(-450 u) in u, past what 49 nodes resolve, so it is refined, to
        # the closed form's rounding.
        spec = exp_decay_spec("steep", M=0.5, lam=50.0, lo=1.0, hi=10.0)
        calls = spy_refinement(monkeypatch)
        ((got,),) = rl_many(spec, [1.0], [10.0], (mu,))
        assert calls == [1]
        want = mp_oracle.rl("exp_decay", {"M": 0.5, "lam": 50.0, "lo": 1.0, "offset": 1.0},
                            1.0, 10.0, mu)
        assert abs(got - float(want)) <= RL_ORACLE_BOUND

    @pytest.mark.parametrize("lam,hi", [(5.0, 10.0), (50.0, 2.0)])
    @pytest.mark.parametrize("mu", [0.25, 1.0, 2.5])
    def test_steep_members_resolve_without_fallback(self, monkeypatch, lam, hi, mu):
        # Moderately steep user members: e^(-45 u) and e^(-50 u) at worst in
        # u, which the fine rule resolves alone, to the closed form's rounding.
        forbid_refinement(monkeypatch)
        spec = exp_decay_spec("steep", M=0.5, lam=lam, lo=1.0, hi=hi)
        xs = [1.0 + frac * (hi - 1.0) for frac in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)]
        anchors, ends = [1.0] * 6 + [hi] * 6, xs + [1.0 + hi - x for x in xs]
        (got,) = rl_many(spec, anchors, ends, (mu,))
        params = {"M": 0.5, "lam": lam, "lo": 1.0, "offset": 1.0}
        for value, c, e in zip(got, anchors, ends):
            want = mp_oracle.rl("exp_decay", params, c, e, mu)
            assert abs(value - float(want)) <= RL_ORACLE_BOUND, (c, e, value, want)

    def test_resolved_sides_make_no_fallback(self, corpus, monkeypatch):
        forbid_refinement(monkeypatch)
        for fid, spec in corpus.items():
            a, b = spec.domain
            for mu in (0.1, 0.25, 0.5, 1.0, 1.5, 2.5):
                rl_many(spec, [a, b, a, b], [b, a, (a + b) / 2, (a + b) / 2], (mu,))

    # User members over [1, 10] steep enough to be refined, each with the
    # closed form's parameters; the refiner this rule replaced was off by
    # up to 1.4e-5 on them.
    STEEP_MEMBERS = {
        "exp_decay lam=20": (exp_decay_spec, dict(lam=20.0), dict(lam=20.0, lo=1.0, offset=1.0)),
        "exp_decay lam=50": (exp_decay_spec, dict(lam=50.0), dict(lam=50.0, lo=1.0, offset=1.0)),
        "power_decay r=8": (power_decay_spec, dict(r=8.0), dict(r=8.0, offset=0.1)),
        "power_decay r=20": (power_decay_spec, dict(r=20.0), dict(r=20.0, offset=0.1)),
    }

    @pytest.mark.parametrize("member", sorted(STEEP_MEMBERS))
    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 2.5])
    def test_refined_sides_match_closed_forms(self, member, mu):
        # Sides anchored at both ends, whole and up to x = 9: the refined
        # values against the closed forms, and the batch against each side
        # alone, bit for bit.
        build, kw, params = self.STEEP_MEMBERS[member]
        spec = build("steep", M=0.5, lo=1.0, hi=10.0, **kw)
        family = build.__name__.removesuffix("_spec")
        anchors, ends = [1.0, 10.0, 1.0, 10.0], [10.0, 1.0, 9.0, 9.0]
        (got,) = rl_many(spec, anchors, ends, (mu,))
        for value, c, e in zip(got, anchors, ends):
            want = mp_oracle.rl(family, {"M": 0.5, **params}, c, e, mu)
            assert abs(value - float(want)) <= RL_ORACLE_BOUND, (c, e, value, want)
            assert rl_many(spec, [c], [e], (mu,)).tolist() == [[value]]


class TestNonFiniteIntegrand:
    """A panel whose value is not finite fails its integral at once, at
    depth 1 at the latest, rather than splitting down to the depth cap."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fails_at_once(self, bad):
        points = []

        def g(s, k):
            points.append(s.size)
            return np.where(s > 0.3, bad, s)

        cfg = QuadConfig(max_subdivisions=12)
        with pytest.raises(ConvergenceError, match=r"^integrand not finite on \[0\.0, 0\.5\]$"):
            clenshaw_curtis_many(g, 1, (1.0,), cfg)
        # Level 0 and depth 1 only: splitting the panels that are not finite
        # down to depth 12 would evaluate 49 * 2^13 points.
        assert points == [CC_DEGREE + 1, 2 * (CC_DEGREE + 1)]

    def test_inf_at_an_odd_node_is_refined_to_abs_tol(self, monkeypatch):
        # An inf at nodes[1], which only the fine rule sums, made the error
        # estimate and the tolerance rel_tol * |inf| both inf, and the test
        # `inf <= inf` accepted the value inf.  It is refined now, to
        # abs_tol.  No refined panel evaluates that one float, so the value
        # is phi's integral elsewhere: the mean of u, mu / (mu + 1).
        nodes = fracint._cc_basis()[0]
        tols, refine = [], fracint._refine

        def spy(phi, ks, tol, mu, cfg):
            tols.extend(tol.tolist())
            return refine(phi, ks, tol, mu, cfg)

        monkeypatch.setattr(fracint, "_refine", spy)
        spiked = lambda u, k: np.where(u == nodes[1], np.inf, u)  # noqa: E731
        ((got,),) = clenshaw_curtis_many(spiked, 1, (0.5,))
        assert tols == [QuadConfig().abs_tol]
        assert abs(got - 1.0 / 3.0) <= 1e-15

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.5])
    def test_spiked_steep_integrand_is_refined_as_without_the_spike(self, mu):
        # e^(-450 u), past what level 0 resolves, with an inf at nodes[1]:
        # refined to abs_tol it is bit for bit the integral without the
        # inf.  The inf tolerance would accept any finite panel; at mu = 1
        # that stops at depth 1, off by more than abs_tol.
        nodes = fracint._cc_basis()[0]
        spiked = lambda u, k: np.where(u == nodes[1], np.inf, np.exp(-450.0 * u))  # noqa: E731
        ((got,),) = clenshaw_curtis_many(spiked, 1, (mu,))
        ((want,),) = clenshaw_curtis_many(lambda u, k: np.exp(-450.0 * u), 1, (mu,))
        assert got.hex() == want.hex()
        if mu == 1.0:
            (loose,) = fracint._refine(spiked, np.array([0]), np.array([np.inf]), mu, QuadConfig())
            assert abs(loose - got) > QuadConfig().abs_tol

    def test_index_counts_empty_intervals(self):
        # `rl_many`'s integral 0 is over an empty interval (end == anchor),
        # 1 is finite, 2 meets the nan above t = 1.5.
        f = lambda t: np.where(t > 1.5, np.nan, t)  # noqa: E731
        with pytest.raises(ConvergenceError, match=(
                r"^fractional integral anchored at 1\.0 with end 2\.0, mu = 0\.5: "
                r"integrand not finite on ")) as got:
            rl_many(f, [1.0, 1.0, 1.0], [1.0, 1.2, 2.0], (0.5,))
        assert got.value.index == 2

    def test_lower_index_cap_failure_wins(self):
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
        capped = lambda s: np.abs(s - 1 / 3) ** 0.05  # noqa: E731
        gs = [capped, lambda s: np.where(s > 0.5, np.nan, s)]
        with pytest.raises(ConvergenceError) as alone:
            adaptive_gauss(capped, 0.0, 1.0, cfg)
        assert "not converged at depth 3" in str(alone.value)
        with pytest.raises(ConvergenceError) as batch:
            clenshaw_curtis_many(batch_of(gs), 2, (1.0,), cfg)
        assert str(batch.value) == str(alone.value)
        with pytest.raises(ConvergenceError, match=r"^integrand not finite on \[0\.5, 1\.0\]$"):
            clenshaw_curtis_many(batch_of(gs[::-1]), 2, (1.0,), cfg)


class TestRlLower:
    def test_constant_half_order(self):
        # J of the constant 1 is (x-a)^mu / Gamma(mu+1)
        got = rl_lower(lambda t: np.ones_like(t), 0.0, 1.0, 0.5)
        assert got == pytest.approx(1.1283791670955126, abs=1e-10)

    def test_identity_function_classical(self):
        got = rl_lower(lambda t: t, 0.0, 1.0, 1.0)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_square_frozen_oracle(self):
        # 10,000-panel composite rule on the substituted integrand
        got = rl_lower(lambda t: t**2, 0.0, 2.0, 0.5)
        assert got == pytest.approx(3.4043074594255588, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rl_lower(lambda t: t, 1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            rl_lower(lambda t: t, 0.0, 1.0, 0.0)

    def test_reduction_to_classical(self, corpus):
        rng = np.random.default_rng(7)
        for spec in corpus.values():
            lo, hi = spec.domain
            for _ in range(50):
                a, x = sorted(rng.uniform(lo, hi, size=2))
                if x - a < 1e-3:
                    continue
                got = rl_lower(spec, a, x, 1.0)
                want = simpson(spec.f, a, x, panels=2000)
                assert abs(got - want) <= 1e-9

    def test_linearity(self):
        f = lambda t: np.sin(t)
        g = lambda t: t**2
        mix = lambda t: 2.0 * np.sin(t) + 3.0 * t**2
        got = rl_lower(mix, 0.0, 1.5, 0.7)
        want = 2.0 * rl_lower(f, 0.0, 1.5, 0.7) + 3.0 * rl_lower(g, 0.0, 1.5, 0.7)
        assert abs(got - want) <= 1e-9

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("mu", [0.3, 0.5, 1.0, 1.7, 2.5])
    def test_power_rule(self, p, mu):
        a, x = 0.5, 2.0
        got = rl_lower(lambda t: (t - a) ** p, a, x, mu)
        want = math.gamma(p + 1) / math.gamma(p + 1 + mu) * (x - a) ** (p + mu)
        assert abs(got - want) <= 1e-9


class TestRlUpper:
    def test_constant_symmetry(self):
        got = rl_upper(lambda t: np.ones_like(t), 0.0, 1.0, 0.5)
        assert got == pytest.approx(1.1283791670955126, abs=1e-10)

    def test_identity_function_classical(self):
        got = rl_upper(lambda t: t, 0.0, 1.0, 1.0)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_exp_frozen_oracle(self):
        got = rl_upper(np.exp, 0.0, 1.0, 0.75)
        assert got == pytest.approx(1.7475526813924685, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rl_upper(lambda t: t, 1.0, 1.0, 0.5)

    def test_mirror_of_lower(self):
        # reflecting f about the midpoint swaps the two operators
        f = lambda t: np.cos(t) + t
        a, b, mu = 0.2, 1.8, 0.6
        refl = lambda t: np.cos(a + b - t) + (a + b - t)
        assert rl_upper(f, a, b, mu) == pytest.approx(
            rl_lower(refl, a, b, mu), abs=1e-9
        )


class TestMexpIntegral:
    def test_c_one(self):
        assert mexp_integral(1.0, 3.0) == 0.25
        for mu in (0.5, 1.0, 2.7):
            assert mexp_integral(1.0, mu) == 1.0 / (mu + 1.0)

    def test_closed_form_mu1(self):
        c = 0.5
        ln = math.log(c)
        want = c / ln - (c - 1.0) / ln**2
        assert mexp_integral(0.5, 1.0) == pytest.approx(want, rel=1e-13)
        # frozen brute-force value of int_0^1 t 0.5^t dt
        assert mexp_integral(0.5, 1.0) == pytest.approx(0.3193369700583222, abs=1e-12)

    def test_integer_mu_matches_quadrature(self):
        for c in (0.1, 0.5, 0.9):
            for mu in (1.0, 2.0, 4.0):
                want = simpson(lambda t: t**mu * c**t, 0.0, 1.0)
                assert mexp_integral(c, mu) == pytest.approx(want, abs=1e-11)

    def test_noninteger_mu_against_oracle(self):
        # composite Simpson converges too slowly on the t^mu corner for
        # mu < 1, so the oracle here is arbitrary-precision quadrature
        import mpmath as mp

        for c in (0.2, 0.7):
            for mu in (0.5, 1.3, 3.7):
                want = float(mp.quad(lambda t: t**mu * mp.mpf(c) ** t, [0, 1]))
                assert mexp_integral(c, mu) == pytest.approx(want, abs=1e-10)

    def test_continuity_at_one(self):
        mu = 1.4
        limit = 1.0 / (mu + 1.0)
        errs = [
            abs(mexp_integral(1.0 - eps, mu) - limit)
            for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
        ]
        assert errs[-1] < 1e-9
        assert all(e2 <= e1 + 1e-15 for e1, e2 in zip(errs, errs[1:]))

    def test_series_against_gammainc(self):
        # the series against gammainc(mu+1, 0, lam) / lam^(mu+1) at 40 digits,
        # c log-uniform; below 1e-6 the running product's rounding grows with
        # the ~lam terms it takes
        rng = np.random.default_rng(13)
        for lo, hi, bound in ((1e-6, 1.0, 4e-15), (sys.float_info.min, 1e-6, 1e-13)):
            worst = 0.0
            for _ in range(300):
                c = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                mu = rng.uniform(0.1, 7.3)
                worst = max(worst, mp_oracle.rel_err(mexp_integral(c, mu), mp_oracle.mexp(c, mu)))
            assert worst <= bound, (lo, hi, worst)
        for mu in (0.1, 1.0, 7.3):  # the largest lam the series accepts
            c = sys.float_info.min
            assert mp_oracle.rel_err(mexp_integral(c, mu), mp_oracle.mexp(c, mu)) <= 1e-13

    def test_domain_errors(self):
        for c in (0.0, -0.5, 1.5, 5e-324, math.nan):
            with pytest.raises(DomainError):
                mexp_integral(c, 1.0)
        with pytest.raises(DomainError):
            mexp_integral(0.5, 0.0)
