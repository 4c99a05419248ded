import math
import sys
from collections import Counter

import numpy as np
import pytest

from ostrowski_frac import fracint
from ostrowski_frac.corpus import exp_decay_spec
from ostrowski_frac.fracint import (
    CC_DEGREE,
    MAX_TOL,
    ConvergenceError,
    DomainError,
    FracParams,
    QuadConfig,
    adaptive_gauss,
    adaptive_gauss_many,
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

    @pytest.mark.parametrize("z", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, z):
        with pytest.raises(DomainError):
            gamma(z)


class TestFracParams:
    def test_valid(self):
        FracParams(0.0, 2.0, 1.0, 0.5)

    @pytest.mark.parametrize(
        "a,b,x,mu",
        [(-0.1, 1, 0.5, 1), (1, 1, 1, 1), (0, 1, 1.5, 1), (0, 1, 0.5, 0), (0, 1, 0.5, -2)],
    )
    def test_invalid(self, a, b, x, mu):
        with pytest.raises(DomainError):
            FracParams(a, b, x, mu)


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
        with pytest.raises(DomainError):
            adaptive_gauss_many(lambda s, k: np.exp(s), [0.0, 1.0], [1.0, 0.0])

    def test_convergence_error(self):
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
        with pytest.raises(ConvergenceError):
            adaptive_gauss(lambda s: np.abs(s - 1 / 3) ** 0.05, 0.0, 1.0, cfg)


def recursive_gauss(g, lo, hi, cfg=QuadConfig()):
    """The depth-first refiner the batched one replaced, frozen as an oracle:
    one numpy call per panel, acceptance tested parent by parent."""
    if hi < lo:
        raise DomainError("integration bounds reversed")
    if hi == lo:
        return 0.0
    ref, w = np.polynomial.legendre.leggauss(cfg.base_nodes)

    def panel(a, b):
        edges = np.linspace(a, b, 2)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        pts = mid[:, None] + half[:, None] * ref[None, :]
        vals = np.asarray(g(pts.ravel()), dtype=float).reshape(1, cfg.base_nodes)
        return float(np.sum(vals * w[None, :] * half[:, None]))

    whole = panel(lo, hi)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(whole))
    total = hi - lo
    floor = 0.01 * cfg.abs_tol
    cap_accept = 10.0 * cfg.abs_tol

    def refine(a, b, est, depth):
        mid = 0.5 * (a + b)
        left = panel(a, mid)
        right = panel(mid, b)
        err = abs(left + right - est)
        if err <= max(tol * (b - a) / total, floor):
            return left + right
        if depth >= cfg.max_subdivisions:
            if err <= cap_accept:
                return left + right
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] not converged at depth "
                f"{cfg.max_subdivisions} (disagreement {err:.3g})"
            )
        return refine(a, mid, left, depth + 1) + refine(mid, b, right, depth + 1)

    return refine(lo, hi, whole, 0)


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


def assert_bitwise(gs, los, his, cfg=QuadConfig()):
    want = [recursive_gauss(g, lo, hi, cfg) for g, lo, hi in zip(gs, los, his)]
    for g, lo, hi, v in zip(gs, los, his, want):
        assert adaptive_gauss(g, lo, hi, cfg) == v
    assert adaptive_gauss_many(batch_of(gs), los, his, cfg).tolist() == want


def rl_integrand(f, c, e, mu):
    """The fallback's integrand of the fractional integral between anchor c
    and end e: f(c + (e - c) s^(1/mu)) on [0, 1], whose integral times
    |e - c|^mu / Gamma(mu + 1) is the fractional integral."""
    inv = 1.0 / mu
    return lambda s: f(c + (e - c) * s**inv)


# |rl_many - closed form|: the rule is within a few ulps of values up to
# 27 in size (1.5e-14 at worst on the corpus).
RL_ORACLE_BOUND = 1e-13


def assert_near_oracle(got, fid, anchors, ends, mu):
    family, params = mp_oracle.CORPUS[fid]
    for value, c, e in zip(got, anchors, ends):
        want = mp_oracle.rl(family, params, c, e, mu)
        assert abs(value - float(want)) <= RL_ORACLE_BOUND, (fid, c, e, mu, value, want)


# Integrals whose panel trees differ: refinement depths, leftmost failing
# panels and accepted-at-cap panels all come out of the same tree walk.
CORNER_CFGS = [
    QuadConfig(),
    QuadConfig(abs_tol=1e-13, rel_tol=1e-13),
    QuadConfig(base_nodes=5, max_subdivisions=40),
]


class TestBatchedRefinerMatchesRecursion:
    """The breadth-first refiner against the recursion it replaced: equal
    to the last bit, not approximately."""

    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_polynomials(self, cfg):
        gs = [lambda s: s**3 - 2 * s, lambda s: 7.0 * s**20 + s, lambda s: 1.0 + 0.0 * s]
        assert_bitwise(gs, [0.0, -1.0, 0.5], [2.0, 1.5, 3.25], cfg)

    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_algebraic_corners(self, cfg):
        # t^0.1 grades the panels dozens of levels into 0 (and into 1 for
        # its mirror), the regime small-mu fractional integrals produce.
        gs = [
            lambda t: t**0.1,
            lambda t: (1.0 - t) ** 0.1,
            lambda t: np.abs(t - 0.3) ** 0.1,
            lambda t: t**0.1 * np.exp(-t),
        ]
        assert_bitwise(gs, [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 2.0], cfg)

    @pytest.mark.parametrize("mu", [0.1, 0.25, 0.5, 1.0, 2.5])
    def test_corpus_rl_integrands(self, corpus, mu):
        # The refiner on the integrands a fallback of the corpus' fractional
        # integrals would give it, and `rl_many` on the integrals themselves
        # against their closed forms.
        for fid, spec in corpus.items():
            a, b = spec.domain
            xs = [a + frac * (b - a) for frac in (0.05, 0.5, 0.95)]
            anchors, ends = [a, b] * 3, [x for x in xs for _ in "ab"]
            gs = [rl_integrand(spec.f, c, e, mu) for c, e in zip(anchors, ends)]
            assert_bitwise(gs, [0.0] * len(gs), [1.0] * len(gs))
            assert_near_oracle(rl_many(spec, anchors, ends, mu), fid, anchors, ends, mu)

    @pytest.mark.parametrize("mu", [0.1, 0.5, 2.5])
    def test_rl_entry_points(self, corpus, mu):
        spec = corpus["powdecay"]
        a, b = spec.domain
        x = 1.37
        lower, upper = rl_lower(spec, a, x, mu), rl_upper(spec, x, b, mu)
        assert_near_oracle([lower, upper], "powdecay", [x, x], [a, b], mu)
        assert rl_many(spec, [x, x, a], [a, b, a], mu) == [lower, upper, 0.0]

    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_arrays_given_to_g_are_never_written(self, cfg):
        # g keeps every s and k it is given and returns read-only values:
        # the refiner may compute in place only in arrays of its own.
        corners = [lambda t: t**0.1, lambda t: (1.0 - t) ** 0.1, lambda t: np.abs(t - 0.3) ** 0.1]
        gs = corners * 6
        batch = batch_of(gs)
        kept = []  # (an array g was given or returned, its copy at the time)

        def g(s, k):
            vals = batch(s, k)
            vals.flags.writeable = False
            kept.extend((array, array.copy()) for array in (s, k, vals))
            return vals

        got = adaptive_gauss_many(g, [0.0] * len(gs), [1.0] * len(gs), cfg)
        assert got.tolist() == [recursive_gauss(gi, 0.0, 1.0, cfg) for gi in corners] * 6
        assert len(kept) > 3 * 20
        for array, copy in kept:
            assert np.array_equal(array, copy)

    def test_empty_and_nonempty_mixed(self):
        calls = []

        def g(s, k):
            calls.append(set(k.tolist()))
            return np.sqrt(s) + k

        gs = [lambda s, i=i: np.sqrt(s) + i for i in range(5)]
        los = [0.0, 0.5, 0.0, 2.0, 1.0]
        his = [0.0, 1.5, 1.0, 2.0, 1.0]
        want = [recursive_gauss(gi, lo, hi) for gi, lo, hi in zip(gs, los, his)]
        got = adaptive_gauss_many(g, los, his)
        assert got.tolist() == want
        assert want[0] == want[3] == want[4] == 0.0
        # Empty intervals are never evaluated.
        assert set().union(*calls) == {1, 2}

    def test_all_empty_makes_no_call(self):
        def g(s, k):
            raise AssertionError("integrand called on an empty batch")

        assert adaptive_gauss_many(g, [1.0, 2.0], [1.0, 2.0]).tolist() == [0.0, 0.0]
        assert adaptive_gauss_many(g, [], []).tolist() == []

    def test_one_call_per_level(self):
        n = 17
        calls = []

        def g(s, k):
            calls.append(s.size)
            return s**0.1

        adaptive_gauss_many(g, [0.0] * n, [1.0] * n)
        points, widths = [], set()

        def panel(s):
            points.append(s.size)
            widths.add(round(math.log2(np.ptp(s))))
            return s**0.1

        recursive_gauss(panel, 0.0, 1.0)
        # One call for the whole-interval estimates, then one per bisection
        # level (each level has its own panel width), covering exactly the
        # points the recursion evaluates one panel at a time.
        assert len(calls) == len(widths) > 20
        assert sum(calls) == n * sum(points)

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
        his = [1.0] * len(gs)
        first = next(i for i in order if i != 0)
        with pytest.raises(ConvergenceError) as want:
            recursive_gauss(pool[first], 0.0, 1.0, cfg)
        with pytest.raises(ConvergenceError) as single:
            adaptive_gauss(pool[first], 0.0, 1.0, cfg)
        with pytest.raises(ConvergenceError) as batch:
            adaptive_gauss_many(batch_of(gs), [0.0] * len(gs), his, cfg)
        assert str(single.value) == str(batch.value) == str(want.value)


def outcome(integrate):
    """integrate()'s value, or its ConvergenceError's message."""
    try:
        return integrate()
    except ConvergenceError as exc:
        return f"ConvergenceError: {exc}"


def recorded(g, sizes):
    """g, appending the number of points of each call to sizes."""

    def h(s, k):
        sizes.append(s.size)
        return g(s, k)

    return h


CORNERS = [
    lambda t: t**0.1,
    lambda t: (1.0 - t) ** 0.1,
    lambda t: np.abs(t - 0.3) ** 0.1,
    lambda t: t**0.1 * np.exp(-t),
]


class TestSmallLevels:
    """Levels of few active panels, as the fallback of one or two integrals
    has them: one call of g per depth, evaluating the halves of the active
    panels, and bit for bit the recursion, at odd and even depth caps and
    where a deeper level is not finite."""

    def test_schedule(self):
        # One integral: one call for the whole interval, then one per depth,
        # on the panels the recursion evaluates at that depth.
        sizes, panels = [], []
        kept = []  # (an array g was given or returned, its copy at the time)

        def g(s, k):
            sizes.append(s.size)
            vals = s**0.1
            vals.flags.writeable = False
            kept.extend((array, array.copy()) for array in (s, k, vals))
            return vals

        def panel(s):
            panels.append(round(math.log2(np.ptp(s))))
            return s**0.1

        got = adaptive_gauss_many(g, [0.0], [1.0])
        assert got.tolist() == [recursive_gauss(panel, 0.0, 1.0)]
        nodes = QuadConfig().base_nodes
        per_depth = [count for _, count in sorted(Counter(panels).items(), reverse=True)]
        assert per_depth[0] == 1 and len(per_depth) > 20  # the whole interval, then depths 0, 1, ...
        assert sizes == [count * nodes for count in per_depth]
        for array, copy in kept:
            assert np.array_equal(array, copy)

    @pytest.mark.parametrize("cap", [4, 5, 6, 7])
    def test_schedule_at_the_depth_cap(self, cap):
        # s^2.5 at tolerance 1e-14 refines down to the cap and is accepted
        # there, one call per depth.
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=cap)
        sizes, panels = [], []

        def panel(s):
            panels.append(round(math.log2(np.ptp(s))))
            return s**2.5

        got = adaptive_gauss_many(recorded(lambda s, k: s**2.5, sizes), [0.0], [1.0], cfg)
        assert got.tolist() == [recursive_gauss(panel, 0.0, 1.0, cfg)]
        per_depth = [count for _, count in sorted(Counter(panels).items(), reverse=True)]
        assert len(per_depth) == cap + 2  # the whole interval, then depths 0 to cap
        assert sizes == [count * cfg.base_nodes for count in per_depth]

    @pytest.mark.parametrize("n", [15, 16, 17])
    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_batch_sizes_around_the_threshold(self, n, cfg):
        gs = [CORNERS[i % len(CORNERS)] for i in range(n)]
        assert_bitwise(gs, [0.0] * n, [1.0] * n, cfg)
        # Depth 0 bisects the n whole intervals, whatever n.
        sizes = []
        adaptive_gauss_many(recorded(batch_of(gs), sizes), [0.0] * n, [1.0] * n, cfg)
        assert sizes[1] == 2 * n * cfg.base_nodes

    @pytest.mark.parametrize("cfg", CORNER_CFGS)
    def test_levels_fall_into_the_small_path(self, cfg):
        # 17 polynomials converge at depth 0; the corners refine on, 6
        # active panels at depth 1 and fewer below.
        gs = [lambda s, i=i: s**2 + i for i in range(17)] + CORNERS[:3]
        n = len(gs)
        assert_bitwise(gs, [0.0] * n, [1.0] * n, cfg)
        sizes = []
        adaptive_gauss_many(recorded(batch_of(gs), sizes), [0.0] * n, [1.0] * n, cfg)
        assert sizes[1] == 2 * n * cfg.base_nodes
        assert sizes[2] == 2 * 6 * cfg.base_nodes

    def test_levels_rise_out_of_the_small_path(self):
        # sin(60 s + i) splits every panel down to depth 1: 5 active panels
        # at depth 0, 10 at depth 1, 20 at depth 2.
        gs = [lambda s, i=i: np.sin(60.0 * s + i) for i in range(5)]
        assert_bitwise(gs, [0.0] * 5, [1.0] * 5)
        sizes = []
        adaptive_gauss_many(recorded(batch_of(gs), sizes), [0.0] * 5, [1.0] * 5)
        assert sizes == [5 * 16, 2 * 5 * 16, 2 * 10 * 16, 2 * 20 * 16]

    @pytest.mark.parametrize("cap", [3, 4, 5, 6])
    @pytest.mark.parametrize("tol", [1e-14, 1e-10])
    def test_lookahead_pair_at_the_depth_cap(self, cap, tol):
        # Odd and even caps: each integral converges, is accepted at the
        # cap or fails there, as the recursion does.
        cfg = QuadConfig(abs_tol=tol, rel_tol=tol, max_subdivisions=cap)
        pool = CORNERS + [lambda s: s**2, lambda s: np.abs(s - 1 / 3) ** 0.05]
        want = [outcome(lambda g=g: recursive_gauss(g, 0.0, 1.0, cfg)) for g in pool]
        for g, v in zip(pool, want):
            assert outcome(lambda: adaptive_gauss(g, 0.0, 1.0, cfg)) == v
        for order in (pool, pool[::-1]):
            wants = [want[pool.index(g)] for g in order]
            failed = [v for v in wants if isinstance(v, str)]
            got = outcome(lambda: adaptive_gauss_many(
                batch_of(order), [0.0] * len(order), [1.0] * len(order), cfg).tolist())
            assert got == (failed[0] if failed else wants)

    def test_nonfinite_half_and_cap_failure_in_a_lookahead_level(self):
        # spiked is nan only at one Gauss point of the quarter [0.25, 0.5],
        # so [0, 1] splits at depth 0 and [0, 0.5] is found not finite at
        # depth 1.
        ref, _ = np.polynomial.legendre.leggauss(16)
        spike = 0.375 + 0.125 * ref[4]

        def spiked(s):
            return np.where(np.abs(s - spike) < 1e-12, np.nan, s**0.1)

        capped = lambda s: np.abs(s - 1 / 3) ** 0.05  # noqa: E731
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
        with pytest.raises(ConvergenceError) as want:
            recursive_gauss(capped, 0.0, 1.0, cfg)
        assert "not converged at depth 3" in str(want.value)
        nonfinite = "ConvergenceError: integrand not finite on [0.0, 0.5]"
        errors = [outcome(lambda gs=gs: adaptive_gauss_many(batch_of(gs), [0.0] * 2, [1.0] * 2, cfg))
                  for gs in ([capped, spiked], [spiked, capped])]
        assert errors == [f"ConvergenceError: {want.value}", nonfinite]


def forbid_fallback(monkeypatch):
    """Make `clenshaw_curtis_many`'s fallback to the refiner fail the test."""

    def refine(g, los, his, cfg):
        raise AssertionError("fallback taken")

    monkeypatch.setattr(fracint, "adaptive_gauss_many", refine)


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
            clenshaw_curtis_many(lambda u, k: np.exp(u), 3, mu)
        assert fracint._cc_rules.cache_info().misses == 2

    def test_cache_holds_128_mu(self):
        assert fracint._cc_rules.cache_info().maxsize == 128


class TestGaussJacobi:
    """The rule pair every weakly singular integral takes, and its fallback
    to the refiner."""

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
        # Two integrals the rule resolves and two that fall back (a kink
        # and a corner the polynomial rule cannot follow), bit for bit.
        gs = [np.exp, lambda u: u**3, lambda u: np.abs(u - 0.3), lambda u: u**0.01]
        fallbacks = []
        refine = fracint.adaptive_gauss_many
        monkeypatch.setattr(fracint, "adaptive_gauss_many",
                            lambda g, los, his, cfg: fallbacks.append(len(los)) or refine(g, los, his, cfg))
        for mu in (0.1, 0.7, 2.5):
            fallbacks.clear()
            batch = clenshaw_curtis_many(batch_of(gs), len(gs), mu)
            assert fallbacks == [2]
            alone = [clenshaw_curtis_many(lambda u, k, g=g: g(u), 1, mu)[0] for g in gs]
            assert fallbacks == [2, 1, 1]
            assert batch.tolist() == alone
            assert batch[1] == pytest.approx(mu / (mu + 3.0), rel=1e-14)

    @pytest.mark.parametrize("mu", [0.3, 1.0, 2.5])
    def test_result_is_the_finer_rule(self, monkeypatch, mu):
        # e^(28 u): the coarse rule is off by 4.2e-12 to 1.4e-10 relative,
        # inside tolerance, the fine one by rounding.  The mean is
        # 1F1(mu; mu+1; 28).
        forbid_fallback(monkeypatch)
        (got,) = clenshaw_curtis_many(lambda u, k: np.exp(28.0 * u), 1, mu)
        assert mp_oracle.rel_err(got, mp_oracle.mp.hyp1f1(mu, mu + 1, 28)) <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrand_raises(self, bad):
        with pytest.raises(ConvergenceError, match=r"^integrand not finite on "):
            clenshaw_curtis_many(lambda u, k: np.where(u > 0.5, bad, u), 1, 0.5)

    def test_failure_index_is_the_batch_index(self):
        # Integral 0 resolves; 1, 2 and 3 fall back, where 1 converges and 2
        # and 3 fail: the refiner sees them as its 1 and 2, the error is 2's.
        bad = lambda u: np.where(u > 0.5, np.nan, u)  # noqa: E731
        gs = [np.exp, lambda u: np.abs(u - 0.3), bad, bad]
        with pytest.raises(ConvergenceError, match=r"^integrand not finite on ") as got:
            clenshaw_curtis_many(batch_of(gs), len(gs), 0.5)
        assert got.value.index == 2

    @pytest.mark.parametrize("mu", [0.5, 1.0])
    def test_unresolved_side_falls_back(self, monkeypatch, mu):
        # exp_decay with lam = 50 over [1, 10]: the side anchored at 1 is
        # e^(-450 u) in u, past what 49 nodes resolve, so the refiner
        # integrates it, to the closed form's rounding.
        spec = exp_decay_spec("steep", M=0.5, lam=50.0, lo=1.0, hi=10.0)
        calls = []
        refine = fracint.adaptive_gauss_many
        monkeypatch.setattr(fracint, "adaptive_gauss_many",
                            lambda g, los, his, cfg: calls.append(len(los)) or refine(g, los, his, cfg))
        (got,) = rl_many(spec, [1.0], [10.0], mu)
        assert calls == [1]
        want = mp_oracle.rl("exp_decay", {"M": 0.5, "lam": 50.0, "lo": 1.0, "offset": 1.0},
                            1.0, 10.0, mu)
        assert abs(got - float(want)) <= RL_ORACLE_BOUND

    @pytest.mark.parametrize("lam,hi", [(5.0, 10.0), (50.0, 2.0)])
    @pytest.mark.parametrize("mu", [0.25, 1.0, 2.5])
    def test_steep_members_resolve_without_fallback(self, monkeypatch, lam, hi, mu):
        # Moderately steep user members: e^(-45 u) and e^(-50 u) at worst in
        # u, which the fine rule resolves alone, to the closed form's rounding.
        forbid_fallback(monkeypatch)
        spec = exp_decay_spec("steep", M=0.5, lam=lam, lo=1.0, hi=hi)
        xs = [1.0 + frac * (hi - 1.0) for frac in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)]
        anchors, ends = [1.0] * 6 + [hi] * 6, xs + [1.0 + hi - x for x in xs]
        got = rl_many(spec, anchors, ends, mu)
        params = {"M": 0.5, "lam": lam, "lo": 1.0, "offset": 1.0}
        for value, c, e in zip(got, anchors, ends):
            want = mp_oracle.rl("exp_decay", params, c, e, mu)
            assert abs(value - float(want)) <= RL_ORACLE_BOUND, (c, e, value, want)

    def test_resolved_sides_make_no_fallback(self, corpus, monkeypatch):
        forbid_fallback(monkeypatch)
        for fid, spec in corpus.items():
            a, b = spec.domain
            for mu in (0.1, 0.25, 0.5, 1.0, 1.5, 2.5):
                rl_many(spec, [a, b, a, b], [b, a, (a + b) / 2, (a + b) / 2], mu)


class TestNonFiniteIntegrand:
    """A panel whose half-sum is not finite fails its integral at once; it
    used to split at every level, doubling its panels down to the cap."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fails_at_once(self, bad):
        points = []

        def g(s, k):
            points.append(s.size)
            return np.where(s > 0.3, bad, s)

        cfg = QuadConfig(max_subdivisions=12)
        with pytest.raises(ConvergenceError, match=r"^integrand not finite on \[0\.0, 1\.0\]$"):
            adaptive_gauss_many(g, [0.0], [1.0], cfg)
        # Bisecting the nan panels to depth 12 evaluated 183,856 points.
        assert sum(points) < 1000

    def test_index_counts_empty_intervals(self):
        gs = [np.exp, np.exp, lambda s: np.where(s > 0.5, np.nan, s)]
        with pytest.raises(ConvergenceError) as got:
            adaptive_gauss_many(batch_of(gs), [0.0, 0.0, 0.0], [0.0, 1.0, 1.0])
        assert got.value.index == 2

    def test_lower_index_cap_failure_wins(self):
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
        capped = lambda s: np.abs(s - 1 / 3) ** 0.05  # noqa: E731
        gs = [capped, lambda s: np.where(s > 0.5, np.nan, s)]
        with pytest.raises(ConvergenceError) as alone:
            adaptive_gauss(capped, 0.0, 1.0, cfg)
        assert "not converged at depth 3" in str(alone.value)
        with pytest.raises(ConvergenceError) as batch:
            adaptive_gauss_many(batch_of(gs), [0.0, 0.0], [1.0, 1.0], cfg)
        assert str(batch.value) == str(alone.value)
        with pytest.raises(ConvergenceError, match=r"^integrand not finite on \[0\.0, 1\.0\]$"):
            adaptive_gauss_many(batch_of(gs[::-1]), [0.0, 0.0], [1.0, 1.0], cfg)


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
