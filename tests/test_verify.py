import dataclasses
import itertools
import random
import re

import numpy as np
import pytest

from ostrowski_frac import bounds as bnd
from ostrowski_frac import fracint
from ostrowski_frac.bounds import BoundParams
from ostrowski_frac.corpus import FunctionSpec, affine_spec, exp_decay_spec, power_decay_spec
from ostrowski_frac.fracint import (
    ConvergenceError,
    DomainError,
    FracParams,
    QuadConfig,
    clenshaw_curtis_many,
)
from ostrowski_frac.report import (
    DEFAULT_MUS, DEFAULT_X_FRACS, SweepConfig, _points, parse_config, resolve_corpus, run_sweep,
)
from ostrowski_frac.verify import (
    THEOREM_IDS,
    THEOREMS,
    HypothesisError,
    _check_hypotheses,
    lemma_identity_residual,
    ostrowski_lhs,
    ostrowski_signed,
    ostrowski_signed_many,
    verify_classical,
    verify_theorem,
)

import sweep_oracle
import test_cli
from conftest import simpson
from test_fracint import forbid_refinement, spy_refinement


def plain_spec(id, f, fprime, domain):
    """Ad-hoc FunctionSpec for expression-level tests; membership is
    irrelevant because only ostrowski_signed / residual functions are
    exercised."""
    return FunctionSpec(
        id=id, f=f, fprime=fprime, domain=domain, M=1.0,
    )


class TestOstrowskiSigned:
    def test_constant_vanishes(self, corpus):
        for fid in ("const1", "const2"):
            for x in (0.0, 0.5, 1.3, 2.0):
                got = ostrowski_signed(corpus[fid], FracParams(0.0, 2.0, x, 0.7))
                assert abs(got) <= 1e-10

    def test_linear_mu1_closed_form(self, corpus):
        # for f(t) = t, a = 0, b = 1, mu = 1 the expression is x - 1/2
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            got = ostrowski_signed(corpus["linear"], FracParams(0.0, 1.0, x, 1.0))
            assert got == pytest.approx(x - 0.5, abs=1e-10)

    def test_square_frozen_oracle(self):
        # f(t) = t^2 on [0, 2], x = 1, mu = 0.5: exact value is 8/15
        spec = plain_spec("sq", lambda t: t**2, lambda t: 2 * t, (0.0, 2.0))
        got = ostrowski_signed(spec, FracParams(0.0, 2.0, 1.0, 0.5))
        assert got == pytest.approx(-8.0 / 15.0, abs=1e-9)
        assert ostrowski_lhs(spec, FracParams(0.0, 2.0, 1.0, 0.5)) == pytest.approx(
            8.0 / 15.0, abs=1e-9
        )

    def test_mu1_reduces_to_point_minus_mean(self, corpus):
        rng = np.random.default_rng(17)
        for spec in corpus.values():
            lo, hi = spec.domain
            for _ in range(20):
                a, x, b = np.sort(rng.uniform(lo, hi, size=3))
                if b - a < 1e-2:
                    continue
                got = ostrowski_signed(spec, FracParams(a, b, x, 1.0))
                mean = simpson(spec.f, a, b, panels=2000) / (b - a)
                assert got == pytest.approx(float(spec.f(x)) - mean, abs=1e-8)

    @pytest.mark.parametrize("fid", ["powdecay", "expdecay"])
    @pytest.mark.parametrize("mu", [0.1, 2.5])
    def test_dense_batch_equals_alone(self, corpus, fid, mu):
        # A quad-dense-shaped batch: 198 fractional integrals, whose levels
        # hold hundreds of panels, against each instance integrated alone.
        spec = corpus[fid]
        a, b = spec.domain
        xs = [a + (0.005 + 0.01 * i) * (b - a) for i in range(99)]
        (batch,) = ostrowski_signed_many(spec, a, b, xs, (mu,))
        for x, got in zip(xs, batch.tolist()):
            assert got == ostrowski_signed(spec, FracParams(a, b, x, mu)), x

    def test_outside_domain_rejected(self, corpus):
        with pytest.raises(DomainError):
            ostrowski_signed(corpus["affine08"], FracParams(0.5, 2.0, 1.0, 1.0))


def signed_one_at_a_time(f, a, b, x, mu):
    """The signed LHS of one instance as it was computed before the columns:
    its two sides as one `rl_many` batch, f(x) from a one-point array, and
    the expression in Python floats."""
    ((left, right),) = fracint.rl_many(f, [a, b], [x, x], (mu,)).tolist()
    fx = float(np.asarray(f.f(np.array([x])), dtype=float)[0])
    return (
        ((x - a) ** mu + (b - x) ** mu) / (b - a) * fx
        - fracint.gamma(mu + 1.0) / (b - a) * (left + right)
    )


class TestColumnarSigned:
    """`ostrowski_signed_many` over columns against one instance at a time,
    by `.hex()`: the one-row call and the scalar expression."""

    DENSE_FRACS = tuple(0.005 + 0.01 * i for i in range(99))
    DENSE_MUS = (0.1, 0.25, 0.5, 1.0, 1.5, 2.5)

    @staticmethod
    def assert_bitwise(spec, a, b, xs, mu):
        got = [v.hex() for v in ostrowski_signed_many(spec, a, b, xs, (mu,))[0].tolist()]
        assert got == [ostrowski_signed(spec, FracParams(a, b, x, mu)).hex() for x in xs]
        assert got == [signed_one_at_a_time(spec, a, b, x, mu).hex() for x in xs]

    @pytest.mark.parametrize("grid", ["default", "dense"])
    def test_grid(self, corpus, grid):
        fracs, mus = ((DEFAULT_X_FRACS, DEFAULT_MUS) if grid == "default"
                      else (self.DENSE_FRACS, self.DENSE_MUS))
        for spec in corpus.values():
            a, b = spec.domain
            for mu in mus:
                self.assert_bitwise(spec, a, b, [a + t * (b - a) for t in fracs], mu)

    # Configs whose every (mu, x) table is checked: the default, a dense
    # one shaped like quad-dense's (t22 and set, 99 x-fractions, mu from
    # 0.1 to 2.5), and steep members on [1, 10] whose sides are refined.
    MU_TABLES = {
        "default": "",
        "dense": ("theorems = t22,set\nx_fracs = "
                  + ",".join(repr(t) for t in DENSE_FRACS)
                  + "\nmu = " + ",".join(repr(mu) for mu in DENSE_MUS) + "\n"),
        "refined": (
            "functions = e50,p20\nx_fracs = 0.0,0.1,0.5,0.9,1.0\nmu = 0.1,0.5,1.0,2.5\n"
            "function.e50 = exp_decay M=0.5 lam=50 lo=1 hi=10\n"
            "function.p20 = power_decay M=0.5 r=20 lo=1 hi=10\n"),
    }

    @pytest.mark.parametrize("case", sorted(MU_TABLES))
    def test_mu_table_equals_one_instance_at_a_time(self, monkeypatch, case):
        # Each function's (mu, x) table from one call, as the sweep makes
        # it, against each instance alone, by `.hex()`.
        cfg = parse_config(self.MU_TABLES[case])
        refined = spy_refinement(monkeypatch)
        for spec in resolve_corpus(cfg):
            a, b = spec.domain
            xs = [a + t * (b - a) for t in cfg.x_fracs]
            table = ostrowski_signed_many(spec, a, b, xs, cfg.mus, cfg.quad)
            assert table.shape == (len(cfg.mus), len(xs))
            want = [[ostrowski_signed(spec, FracParams(a, b, x, mu), cfg.quad).hex() for x in xs]
                    for mu in cfg.mus]
            assert [[v.hex() for v in row] for row in table.tolist()] == want, spec.id
        assert bool(refined) == (case == "refined")

    @pytest.mark.parametrize("mu", [0.25, 1.0, 2.5])
    def test_endpoints_and_repeats(self, corpus, mu):
        for spec in corpus.values():
            a, b = spec.domain
            mid = 0.5 * (a + b)
            xs = [a, b, mid, a, mid, b, mid]
            self.assert_bitwise(spec, a, b, xs, mu)
            # The empty side of each endpoint is 0.
            assert fracint.rl_many(spec, [a, b], [a, b], (mu,)).tolist() == [[0.0, 0.0]]
            (got,) = ostrowski_signed_many(spec, a, b, xs, (mu,)).tolist()
            assert got[3] == got[0] and got[5] == got[1] and got[2] == got[4] == got[6]

    def test_columns_broadcast(self, corpus):
        # a, b and x per instance, or shared as scalars.
        spec = corpus["powdecay"]
        a, b = spec.domain
        xs = [1.2, 1.5, 1.9]
        want = ostrowski_signed_many(spec, a, b, xs, (0.7,)).tolist()
        assert ostrowski_signed_many(spec, [a] * 3, [b] * 3, np.array(xs), (0.7,)).tolist() == want
        assert ostrowski_signed_many(spec, a, b, 1.5, (0.7,)).tolist() == [want[0][1:2]]
        assert ostrowski_signed_many(spec, a, b, [], (0.7,)).tolist() == [[]]

    def test_x_rounded_past_b(self):
        # a + 1.0 * (b - a) rounds past b on [0.7, 2.9]: the text FracParams
        # gives, from the columns, and from a sweep after the function's id.
        spec = affine_spec("p", slope=0.5, intercept=0.25, lo=0.7, hi=2.9)
        a, b = spec.domain
        x = a + 1.0 * (b - a)
        assert x > b
        with pytest.raises(DomainError) as want:
            FracParams(a, b, x, 1.0)
        assert str(want.value) == "x in [a, b] required"
        with pytest.raises(DomainError, match=r"^x in \[a, b\] required$"):
            ostrowski_signed_many(spec, a, b, [a + 0.5 * (b - a), x], (1.0,))
        cfg = parse_config("functions = p\nx_fracs = 0.5,1.0\n"
                           "function.p = affine slope=0.5 intercept=0.25 lo=0.7 hi=2.9\n")
        with pytest.raises(DomainError, match=r"^'p': x in \[a, b\] required$"):
            run_sweep(cfg)

    @pytest.mark.parametrize("a,b,x,mu,message", [
        ([1.0, 1.0], [2.0, 2.0], [1.5, np.nan], 1.0, "x must be finite"),
        ([1.0, np.inf], [2.0, 2.0], [1.5, 1.5], 1.0, "a must be finite"),
        ([1.0, 1.0], [2.0, 2.0], [1.5, 1.5], np.nan, "mu must be finite"),
        ([1.0, 1.0], [2.0, 2.0], [1.5, 1.5], 0.0, "mu > 0 required"),
        ([1.0, 1.5], [2.0, 1.5], [1.5, 1.5], 1.0, "a < b required"),
        ([1.0, 0.5], [2.0, 2.0], [1.5, 1.5], 1.0, "[0.5, 2.0] outside domain of 'powdecay'"),
        ([1.0, 1.0, 0.5], [2.0, 2.0, 2.0], [1.5, 2.5, 1.5], 1.0, "x in [a, b] required"),
        ([-1.0], [2.0], [1.5], 1.0, "a >= 0 required"),
        ([1.0], [2.5], [1.5], 1.0, "[1.0, 2.5] outside domain of 'powdecay'"),
    ])
    def test_first_bad_instance(self, corpus, a, b, x, mu, message):
        # The first rejected instance raises what FracParams and then
        # require_within raise for it alone.
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ostrowski_signed_many(corpus["powdecay"], a, b, x, (mu,))


class TestIdentityResidual:
    def test_linear_by_hand(self, corpus):
        # both sides reduce to x - 1/2 exactly for f(t) = t on [0, 1], mu = 1
        res = lemma_identity_residual(corpus["linear"], FracParams(0.0, 1.0, 0.3, 1.0))
        assert res <= 1e-10

    def test_random_draws_small(self, corpus):
        rng = np.random.default_rng(5)
        for spec in corpus.values():
            lo, hi = spec.domain
            for _ in range(25):
                a, x, b = np.sort(rng.uniform(lo, hi, size=3))
                if b - a < 1e-2:
                    continue
                mu = rng.uniform(0.2, 3.0)
                assert lemma_identity_residual(spec, FracParams(a, b, x, mu)) <= 1e-8

    def test_residual_at_rounding(self, corpus, monkeypatch):
        # Acceptance criterion 1's draws: the rule puts every residual near
        # rounding, far inside the criterion's 1e-8, with no refinement.
        forbid_refinement(monkeypatch)
        rng = np.random.default_rng(0)
        worst = 0.0
        for spec in corpus.values():
            lo, hi = spec.domain
            for _ in range(200):
                while True:
                    a, x, b = np.sort(rng.uniform(lo, hi, size=3))
                    if b - a >= 1e-2:
                        break
                frac = FracParams(a, b, x, rng.uniform(0.2, 3.0))
                worst = max(worst, lemma_identity_residual(spec, frac))
        assert worst <= 1e-11

    def test_endpoint_x_equals_a(self, corpus):
        res = lemma_identity_residual(corpus["linear"], FracParams(0.5, 2.0, 0.5, 0.8))
        assert res <= 1e-8

    @staticmethod
    def _two_batches(f, frac):
        """The residual from two batches, as computed before its four
        integrals shared one: the signed LHS, then the two moment integrals,
        the means of t f'(c + (x-c) t) under the density mu t^(mu-1)."""
        a, b, x, mu = frac.a, frac.b, frac.x, frac.mu
        lhs = ostrowski_signed(f, frac)
        c = np.array([a, b])
        d = np.array([x - a, x - b])
        i_a, i_b = (clenshaw_curtis_many(
            lambda t, k: t * f.fprime(c[k] + d[k] * t), 2, (mu,))[0] / mu).tolist()
        rhs = ((x - a) ** (mu + 1.0) * i_a - (b - x) ** (mu + 1.0) * i_b) / (b - a)
        return abs(lhs - rhs)

    def test_one_batch_equals_two_bit_for_bit(self, corpus):
        rng = np.random.default_rng(8)
        for spec in corpus.values():
            lo, hi = spec.domain
            fracs = [FracParams(lo, hi, lo, 0.7), FracParams(lo, hi, hi, 1.3)]
            while len(fracs) < 30:
                a, x, b = np.sort(rng.uniform(lo, hi, size=3)).tolist()
                if b - a >= 1e-2:
                    fracs.append(FracParams(a, b, x, float(rng.uniform(0.2, 3.0))))
            for frac in fracs:
                got = lemma_identity_residual(spec, frac)
                assert got.hex() == self._two_batches(spec, frac).hex(), (spec.id, frac)

    def test_points_per_call(self, corpus, monkeypatch):
        # Each of the four integrals takes the 49 nodes of the fine rule, the
        # coarse rule's among them; f is evaluated on the sides' points and
        # at x, f' on the moments' points alone.
        forbid_refinement(monkeypatch)
        sizes = {"f": [], "fprime": []}

        def counted(name, g):
            return lambda u: sizes[name].append(u.size) or g(u)

        for spec in corpus.values():
            a, b = spec.domain
            sizes["f"].clear()
            sizes["fprime"].clear()
            spy = dataclasses.replace(
                spec, f=counted("f", spec.f), fprime=counted("fprime", spec.fprime))
            lemma_identity_residual(spy, FracParams(a, b, 0.3 * a + 0.7 * b, 1.7))
            assert sum(sizes["f"]) == 2 * 49 + 1, spec.id
            assert sum(sizes["fprime"]) == 2 * 49, spec.id

    # Refinements of one residual's batch, and the kinds of integral in each
    # call of the integrand the refinement makes: only moments, only sides,
    # or both.
    FALLBACKS = {
        "moments": ("exp_decay", dict(M=0.5, lam=50.0), 3.0, 0.5, {"moments"}),
        "sides-and-both": ("power_decay", dict(M=0.5, r=20.0), 9.0, 2.5, {"sides", "both"}),
        "both": ("exp_decay", dict(M=0.5, lam=50.0), 5.0, 1.0, {"both"}),
        "lam20": ("exp_decay", dict(M=0.5, lam=20.0), 7.0, 2.5, {"both"}),
    }

    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_split_through_the_fallback(self, monkeypatch, case):
        family, params, x, mu, kinds = self.FALLBACKS[case]
        build = power_decay_spec if family == "power_decay" else exp_decay_spec
        spec = build("spy", lo=1.0, hi=10.0, **params)
        frac = FracParams(1.0, 10.0, x, mu)
        calls = []  # (f points, f' points) of each call the refinement makes
        refining = []
        refine = fracint._refine

        def spy_refine(phi, ks, tol, mu, cfg):
            refining.append(True)
            try:
                return refine(phi, ks, tol, mu, cfg)
            finally:
                refining.pop()

        def spy_f(u):
            if refining:
                calls.append([u.size, 0])
            return spec.f(u)

        def spy_fprime(u):
            if refining:
                calls[-1][1] = u.size
            return spec.fprime(u)

        monkeypatch.setattr(fracint, "_refine", spy_refine)
        spy = dataclasses.replace(spec, f=spy_f, fprime=spy_fprime)
        got = lemma_identity_residual(spy, frac)
        assert {"moments" if not n_f else "sides" if not n_fprime else "both"
                for n_f, n_fprime in calls} == kinds
        assert got.hex() == self._two_batches(spec, frac).hex()

    def test_refined_residual_within_criterion(self):
        # exp_decay lam = 20 over [1, 10]: its side at a and both moments are
        # refined.  The refiner this rule replaced left a residual of 5.2e-6
        # here, 500 times acceptance criterion 1's 1e-8.
        spec = exp_decay_spec("steep", M=0.5, lam=20.0, lo=1.0, hi=10.0)
        assert lemma_identity_residual(spec, FracParams(1.0, 10.0, 9.0, 2.5)) <= 1e-8

    # Members steep enough that the rule pair fails at depth 1: exp_decay's
    # |f'| falls off from a, so its side at a fails first; the mirror image
    # rises into b, and with f far from 0 its sides meet their relative
    # tolerance while the moment at b, whose value is small, fails.
    FAILING = {
        "side at a": exp_decay_spec("wide", M=0.5, lam=100.0, lo=1.0, hi=10.0),
        "moment at b": FunctionSpec("wide", lambda t: 100.0 + 0.01 * np.exp(50.0 * (t - 10.0)),
                                    lambda t: 0.5 * np.exp(50.0 * (t - 10.0)), (1.0, 10.0), 0.5),
    }

    @pytest.mark.parametrize("x,mu,name,index", [
        (7.75, 2.5, "side at a", 0), (1.5, 0.5, "moment at b", 3)])
    def test_failing_integral_named(self, x, mu, name, index):
        cfg = QuadConfig(max_subdivisions=1)
        with pytest.raises(ConvergenceError) as got:
            lemma_identity_residual(self.FAILING[name], FracParams(1.0, 10.0, x, mu), cfg)
        assert str(got.value).startswith(
            f"{name} of the identity for 'wide' at a = 1.0, b = 10.0, x = {x}, mu = {mu}: "
            "quadrature on [")
        assert got.value.index == index


class TestHypothesisChecking:
    FRAC = FracParams(1.0, 2.0, 1.5, 0.5)

    def kwargs(self, **kw):
        base = dict(M=0.5, alpha=0.5, m=0.5, q=2.0)
        base.update(kw)
        return base

    def test_t24_needs_q_above_one(self, corpus):
        f = corpus["powdecay"]
        bp = BoundParams(**self.kwargs(q=1.0))
        with pytest.raises(HypothesisError, match="q > 1"):
            verify_theorem("t24", f, self.FRAC, bp)

    def test_M_mismatch_rejected(self, corpus):
        f = corpus["powdecay"]  # f.M = 0.5
        bp = BoundParams(**self.kwargs(M=0.6))
        with pytest.raises(HypothesisError, match="differs"):
            verify_theorem("t26", f, self.FRAC, bp)

    def test_missing_claim_rejected(self, corpus):
        f = corpus["expdecay"]  # no geometric-convex claims
        bp = BoundParams(M=0.5, q=1.0)
        with pytest.raises(HypothesisError, match="geometric-convex"):
            verify_theorem("set", f, self.FRAC, bp)

    def test_unknown_theorem(self, corpus):
        bp = BoundParams(M=0.5)
        with pytest.raises(HypothesisError, match="unknown"):
            verify_theorem("t99", corpus["powdecay"], self.FRAC, bp)

    def test_mu1_requires_unit_order(self, corpus):
        f = corpus["powdecay"]
        bp = BoundParams(**self.kwargs())
        with pytest.raises(HypothesisError, match="mu = 1"):
            verify_theorem("mu1", f, self.FRAC, bp)


# A point inside every open box; a record's pins replace its values.
_BOX_POINT = {"mu": 0.5, "alpha": 0.5, "m": 0.5, "q": 2.0}


def _stated_conditions():
    """(theorem, message, change) for every condition a record states: the
    message naming it, and the change to one of the record's admitted
    points that breaks it."""
    out = []
    for theorem_id, record in THEOREMS.items():
        if record.M_below_1:
            out.append((theorem_id, "M < 1 required", {"M": 1.0}))
            if not record.geom_convex:
                out.append((theorem_id, "m < 1 required", {"m": 1.0}))
        out.append((theorem_id, "u, v required", {"u": None}) if record.young
                   else (theorem_id, "u, v not used", {"u": 0.5}))
        for name, rel, bound in record.box:
            broken = _BOX_POINT[name] if rel == "=" else bound
            out.append((theorem_id, f"{name} {rel} {bound:g} required", {name: broken}))
    return out


@pytest.mark.parametrize(
    "theorem_id, message, change", _stated_conditions(),
    ids=[f"{t}: {message}" for t, message, _ in _stated_conditions()],
)
def test_record_is_the_only_guard(theorem_id, message, change, corpus, monkeypatch):
    """A point factor assumes its record's hypotheses: `verify_theorem`
    rejects a point that breaks any of them, naming it, before a factor runs."""
    def boom(bp, mu):
        raise AssertionError("a point factor ran")

    for name in vars(bnd):
        if name.startswith("factor_"):
            monkeypatch.setattr(bnd, name, boom)
    record = THEOREMS[theorem_id]
    f = corpus["powdecay"]  # f.M = 0.5
    point = {**_BOX_POINT, **{name: bound for name, rel, bound in record.box if rel == "="}}
    point.update(M=0.5, u=0.5 if record.young else None)

    def instance(point):
        """(frac, bp) at point, a dict of mu and the keywords of BoundParams."""
        mu = point.pop("mu")
        return FracParams(1.0, 2.0, 1.4, mu), BoundParams(**point)

    frac, bp = instance(dict(point))
    _check_hypotheses(theorem_id, f, frac.b, frac.mu, bp)  # admitted
    with pytest.raises(HypothesisError, match=re.escape(message)):
        verify_theorem(theorem_id, f, *instance({**point, **change}))


# The claim table the membership certificates replaced, frozen with the
# oracle below: (alpha, m)-geometric claims at every (alpha, m, q) of the
# default sweep on the affine and decay members, and geometric-convex ones
# on all of them but expdecay; a constant has none.
_OLD_ALPHAS = (0.25, 0.5, 0.75, 1.0)
_OLD_MS = (0.25, 0.5, 0.75)
_OLD_QS = (1.0, 1.5, 2.0, 3.0)
_OLD_GEOMETRIC = {"linear": True, "affine08": True, "powdecay": True, "expdecay": False}


def _old_has_claim(f, kind, q):
    """kind: "geom" for the geometric-convex claim, else (alpha, m)."""
    if f.id not in _OLD_GEOMETRIC or q not in _OLD_QS:
        return False
    if kind == "geom":
        return _OLD_GEOMETRIC[f.id]
    alpha, m = kind
    return alpha in _OLD_ALPHAS and m in _OLD_MS


def _old_require(cond, failures, msg):
    if not cond:
        failures.append(msg)


def _old_check_hypotheses(theorem_id, f, b, mu, bp):
    """The per-id if/elif chain that the theorem registry replaced, frozen
    as an oracle."""
    failures = []
    _old_require(abs(f.M - bp.M) <= 1e-15, failures, f"f.M={f.M:g} differs from bp.M={bp.M:g}")
    _old_require(b >= 1.0, failures, "b >= 1 required")

    if theorem_id == "t22":
        _old_require(
            _old_has_claim(f, (bp.alpha, bp.m), 1.0),
            failures,
            f"no (alpha={bp.alpha:g}, m={bp.m:g})-geometric claim at q=1",
        )
    elif theorem_id in ("t24", "t26", "mu1", "mm", "remark_q1"):
        _old_require(bp.M < 1.0, failures, "M < 1 required")
        _old_require(bp.m < 1.0, failures, "m < 1 required")
        _old_require(
            _old_has_claim(f, (bp.alpha, bp.m), bp.q),
            failures,
            f"no (alpha={bp.alpha:g}, m={bp.m:g})-geometric claim at q={bp.q:g}",
        )
        if theorem_id == "t24":
            _old_require(bp.q > 1.0, failures, "q > 1 required")
            _old_require(bp.alpha < 1.0, failures, "alpha < 1 required")
        if theorem_id == "mu1":
            _old_require(mu == 1.0, failures, "mu = 1 required")
        if theorem_id in ("mm", "remark_q1"):
            _old_require(bp.u is not None, failures, "u, v required")
            if theorem_id == "remark_q1":
                _old_require(bp.q == 1.0, failures, "q = 1 required")
    elif theorem_id == "set":
        _old_require(bp.M < 1.0, failures, "M < 1 required")
        _old_require(
            _old_has_claim(f, "geom", bp.q),
            failures,
            f"no geometric-convex claim at q={bp.q:g}",
        )
    else:
        raise HypothesisError(f"unknown theorem id {theorem_id!r}")

    if failures:
        raise HypothesisError(f"{theorem_id} on {f.id!r}: " + "; ".join(failures))


def _outcome(check, theorem_id, f, b, mu, bp):
    """None if the hypotheses hold, else the HypothesisError message."""
    try:
        check(theorem_id, f, b, mu, bp)
    except HypothesisError as exc:
        return str(exc)
    return None


def _registry_check(theorem_id, f, b, mu, bp):
    """`_check_hypotheses` as the theorem registry wrote it before the
    hypotheses were one rule over columns, frozen as an oracle of its
    failure texts and their order."""
    theorem = THEOREMS.get(theorem_id)
    if theorem is None:
        raise HypothesisError(f"unknown theorem id {theorem_id!r}")
    failures = []
    if not abs(f.M - bp.M) <= 1e-15:
        failures.append(f"f.M={f.M:g} differs from bp.M={bp.M:g}")
    if not b >= 1.0:
        failures.append("b >= 1 required")
    if theorem.M_below_1:
        if not bp.M < 1.0:
            failures.append("M < 1 required")
        if not (theorem.geom_convex or bp.m < 1.0):
            failures.append("m < 1 required")
    if theorem.geom_convex:
        if not f.member(1.0, 1.0):
            failures.append(f"no geometric-convex claim at q={bp.q:g}")
    elif not f.member(bp.alpha, bp.m):
        failures.append(f"no (alpha={bp.alpha:g}, m={bp.m:g})-geometric claim at q={bp.q:g}")
    if theorem.young:
        if bp.u is None:
            failures.append("u, v required")
    elif bp.u is not None:
        failures.append("u, v not used")
    params = {"mu": mu, "alpha": bp.alpha, "m": bp.m, "q": bp.q}
    for name, rel, bound in theorem.box:
        if not {"<": params[name] < bound, ">": params[name] > bound,
                "=": params[name] == bound}[rel]:
            failures.append(f"{name} {rel} {bound:g} required")
    if failures:
        raise HypothesisError(f"{theorem_id} on {f.id!r}: " + "; ".join(failures))


class TestTheoremRegistry:
    """The registry states each theorem once; verify and the sweep grid read
    it.  Frozen copies of the per-id code it replaced are the oracles."""

    GRID_CONFIGS = {
        "default": "",
        **{f"sweep-{k}": v for k, v in test_cli.TestHypothesesCheckedOncePerPoint.CONFIGS.items()},
        "alpha-q-one-mixed": (
            "alpha = 1.0,0.3,0.75\nm = 0.5,1.0\nq = 2.0,1.0,1.5\nmu = 1.0,0.4\nu = 0.5,0.2\n"
        ),
    }

    @staticmethod
    def _assert_grid_equals_one_row_checks(cfg):
        """`_points` lists the points of the per-id grid that one
        `_check_hypotheses` call each admits, in its order, as the product
        of its mu values and its points, with one point factor per pair;
        returns how many it lists and rejects."""
        listed = rejected = 0
        for theorem in THEOREM_IDS:
            for f in resolve_corpus(cfg):
                b = f.domain[1]
                grid = list(sweep_oracle.grid(theorem, cfg))
                want = [p for p in grid if _outcome(
                    _check_hypotheses, theorem, f, b, p[0], BoundParams(f.M, *p[1:])) is None]
                mus, points, table = _points(theorem, f, cfg)
                got = [(mu, bp.alpha, bp.m, bp.q, bp.u) for mu in mus for bp in points]
                assert got == want, (theorem, f.id)
                assert table.shape == (len(mus), len(points))
                listed += len(got)
                rejected += len(grid) - len(got)
        return listed, rejected

    @pytest.mark.parametrize("case", sorted(GRID_CONFIGS))
    def test_grid_equals_per_id_grid(self, case):
        self._assert_grid_equals_one_row_checks(parse_config(self.GRID_CONFIGS[case]))

    # Family members on both sides of a certificate's threshold, an affine
    # one with M = 1, and one on a domain with b < 1.
    EXTRA = (
        ("power_decay", "pd004", (("M", 0.5), ("r", 0.04), ("lo", 1.0), ("hi", 2.0))),
        ("power_decay", "pd03", (("M", 0.5), ("r", 0.3), ("lo", 1.0), ("hi", 2.0))),
        ("power_decay", "pd2", (("M", 0.5), ("r", 2.0), ("lo", 1.0), ("hi", 3.0))),
        ("exp_decay", "ed002", (("M", 0.5), ("lam", 0.02), ("lo", 1.0), ("hi", 2.0))),
        ("exp_decay", "ed5", (("M", 0.5), ("lam", 5.0), ("lo", 1.0), ("hi", 2.0))),
        ("affine", "affM1", (("slope", 0.5), ("intercept", 0.25), ("lo", 1.0), ("hi", 2.0),
                             ("declared_M", 1.0))),
        ("affine", "below1", (("slope", 0.5), ("intercept", 0.1), ("lo", 0.2), ("hi", 0.8))),
    )

    @pytest.mark.parametrize("seed", range(6))
    def test_columnar_rule_equals_one_row_rule(self, seed):
        """On seeded random grids, the pins among their values and with
        repeated values, the hypotheses over columns admit exactly the
        points that the one-row rule admits one at a time, in grid order."""
        rng = random.Random(seed)

        def draw(pool, pin=None):
            values = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            if pin is not None and rng.random() < 0.5:
                values.insert(rng.randrange(len(values) + 1), pin)
            return tuple(values)

        cfg = SweepConfig(
            mus=draw((0.3, 0.5, 2.0, 3.5), 1.0), alphas=draw((0.2, 0.3, 0.5, 0.75), 1.0),
            ms=draw((0.1, 0.5, 0.75, 0.9), 1.0), qs=draw((1.5, 2.0, 4.0), 1.0),
            us=draw((0.2, 0.5, 0.8)), extra_functions=self.EXTRA)
        listed, rejected = self._assert_grid_equals_one_row_checks(cfg)
        assert listed and rejected

    def test_failure_texts_of_a_hand_built_spec(self):
        """The one-row rule names the failures of a hand-built spec, which
        certifies nothing, in the text and order of the registry's check
        before the rule was stated over columns (`_registry_check`)."""
        f = FunctionSpec("hand", lambda x: 0.5 * x, lambda x: 0.5 + 0.0 * x, (1.0, 2.0), 0.5)
        seen = set()
        for theorem_id, mu, alpha, m, q, u, M, b in itertools.product(
            THEOREM_IDS + ("t99",), (0.5, 1.0), (0.5, 1.0), (0.5, 1.0), (1.0, 2.5),
            (None, 0.5), (0.5, 1.0), (2.0, 0.9),
        ):
            bp = BoundParams(M, alpha, m, q, u)
            want = _outcome(_registry_check, theorem_id, f, b, mu, bp)
            assert want is not None
            assert _outcome(_check_hypotheses, theorem_id, f, b, mu, bp) == want
            seen.update(want.split(": ", 1)[-1].split("; "))
        # Every kind of failure text, the box's among them.
        assert {"b >= 1 required", "M < 1 required", "m < 1 required", "u, v required",
                "u, v not used", "q > 1 required", "alpha < 1 required", "mu = 1 required",
                "alpha = 1 required", "q = 1 required", "f.M=0.5 differs from bp.M=1",
                "no geometric-convex claim at q=2.5",
                "no (alpha=0.5, m=1)-geometric claim at q=1"} <= seen

    @staticmethod
    def _newly_broken(theorem_id, bp):
        """The rules an instance breaks that the per-id chain never checked:
        the pins, and a u, v given to a theorem without the Young split."""
        broken = []
        if theorem_id in THEOREMS and not THEOREMS[theorem_id].young and bp.u is not None:
            broken.append("u, v not used")
        if theorem_id == "t22" and bp.q != 1.0:
            broken.append("q = 1 required")
        if theorem_id == "set":
            broken += [f"{name} = 1 required" for name, value in (("alpha", bp.alpha), ("m", bp.m))
                       if value != 1.0]
        return broken

    @staticmethod
    def _newly_certified(fid, geometric, alpha, m, q):
        """The claims off the old table (q = 2.5, or m = 1 for an
        (alpha, m)-geometric claim) that a certificate admits: every one on
        an affine member, powdecay's but (0.5, 1), and expdecay's with m < 1."""
        if not (q == 2.5 or (not geometric and m == 1.0)):
            return False
        if fid in ("linear", "affine08"):
            return True
        if fid == "powdecay":
            return geometric or m < 1.0 or alpha == 1.0
        return fid == "expdecay" and not geometric and m < 1.0

    @staticmethod
    def _without_claim(message, theorem_id, f, bp):
        """The per-id chain's message with its missing-claim failure gone."""
        if theorem_id == "set":
            claim = f"no geometric-convex claim at q={bp.q:g}"
        else:
            q = 1.0 if theorem_id == "t22" else bp.q
            claim = f"no (alpha={bp.alpha:g}, m={bp.m:g})-geometric claim at q={q:g}"
        head, failures = message.split(": ", 1)
        rest = [msg for msg in failures.split("; ") if msg != claim]
        assert len(rest) < len(failures.split("; ")), (message, claim)
        return f"{head}: " + "; ".join(rest) if rest else None

    def test_hypotheses_equal_per_id_chain(self, corpus):
        functions = list(corpus.values())
        same = newly_rejected = parent_passed = certified = 0
        for theorem_id, f, mu, alpha, m, q, u, M, b in itertools.product(
            THEOREM_IDS + ("t99",), functions, (0.5, 1.0), (0.5, 1.0), (0.5, 1.0),
            (1.0, 2.0, 2.5), (None, 0.5), (None, 0.5, 1.0), (2.0, 0.9),
        ):
            bp = BoundParams(f.M if M is None else M, alpha, m, q, u)
            want = _outcome(_old_check_hypotheses, theorem_id, f, b, mu, bp)
            got = _outcome(_check_hypotheses, theorem_id, f, b, mu, bp)
            broken = self._newly_broken(theorem_id, bp)
            if not broken:
                # t22 on the per-id chain reads its claim at q = 1 (its pin).
                q = 1.0 if theorem_id == "t22" else bp.q
                if theorem_id in THEOREMS and self._newly_certified(
                        f.id, theorem_id == "set", alpha, m, q):
                    want = self._without_claim(want, theorem_id, f, bp)
                    certified += 1
                assert got == want, (theorem_id, f.id, bp)
                same += 1
                continue
            # The per-id chain let some of these through.
            assert got is not None, (theorem_id, f.id, bp)
            for rule in broken:
                assert rule in got, (theorem_id, f.id, bp, got)
            newly_rejected += 1
            parent_passed += want is None
        assert same + newly_rejected == 8 * len(functions) * 288
        # Of each theorem's 288 cases: t22 at q != 1 (2 of 3 q) or with u
        # (1 of 2), set off alpha = m = 1 (3 of 4 pairs) or with u, and t24,
        # t26 and mu1 with u.
        assert newly_rejected == len(functions) * (240 + 252 + 3 * 144)
        assert same and newly_rejected and parent_passed
        # The cases whose messages differ are exactly those whose claim the
        # old table lacked and a certificate admits (`_newly_certified`).
        assert certified == 2028


class TestVerdicts:
    def test_t22_holds_on_powdecay(self, corpus):
        f = corpus["powdecay"]
        bp = BoundParams(M=0.5, alpha=0.5, m=0.5, q=1.0)
        v = verify_theorem("t22", f, FracParams(1.0, 2.0, 1.4, 0.5), bp)
        assert v.holds and v.margin >= -v.tol_margin
        assert v.theorem_id == "t22"

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_every_theorem_yields_a_holding_verdict(self, corpus, theorem):
        f = corpus["powdecay"]
        record = THEOREMS[theorem]
        # a point inside every open box, with the record's pins substituted
        pins = {name: bound for name, rel, bound in record.box if rel == "="}
        point = {"mu": 0.5, "alpha": 0.5, "m": 0.5, "q": 2.0, **pins}
        frac = FracParams(1.0, 2.0, 1.4, point.pop("mu"))
        bp = BoundParams(M=0.5, u=0.5 if record.young else None, **point)
        v = verify_theorem(theorem, f, frac, bp)
        assert v.holds, (theorem, v.lhs, v.rhs)

    def test_endpoint_x_equals_a_and_b(self, corpus):
        f = corpus["powdecay"]
        bp = BoundParams(M=0.5, alpha=0.5, m=0.5, q=1.0)
        for x in (1.0, 2.0):
            v = verify_theorem("t22", f, FracParams(1.0, 2.0, x, 0.5), bp)
            assert v.holds


class TestClassical:
    def test_linear_midpoint(self, corpus):
        v = verify_classical(corpus["linear"], 0.0, 1.0, 0.5)
        assert v.holds
        assert v.lhs == pytest.approx(0.0, abs=1e-10)
        assert v.rhs == pytest.approx(0.25, rel=1e-15)

    def test_linear_endpoint_is_tight(self, corpus):
        v = verify_classical(corpus["linear"], 0.0, 1.0, 1.0)
        assert v.holds
        assert v.lhs == pytest.approx(0.5, abs=1e-10)
        assert v.rhs == pytest.approx(0.5, rel=1e-15)

    def test_tightness_ratio_approaches_one(self, corpus):
        # the 1/4 constant cannot be improved: the ratio lhs/rhs for the
        # extremal linear function tends to 1 as x -> b
        prev = 0.0
        for x in (0.9, 0.99, 0.999):
            v = verify_classical(corpus["linear"], 0.0, 1.0, x)
            ratio = v.lhs / v.rhs
            assert ratio > prev
            prev = ratio
        assert prev > 0.995

    def test_domain_guard(self, corpus):
        with pytest.raises(DomainError):
            verify_classical(corpus["affine08"], 0.0, 1.0, 0.5)

    def test_violation_detected_with_understated_M(self):
        # A family cannot understate its M, so this is built by hand.
        lying = FunctionSpec(
            id="lying", f=lambda u: 0.8 * np.asarray(u, float),
            fprime=lambda u: 0.8 * np.ones_like(np.asarray(u, float)), domain=(0.0, 1.0), M=0.1,
        )
        v = verify_classical(lying, 0.0, 1.0, 0.95)
        assert not v.holds and v.margin < 0
