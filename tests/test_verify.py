import dataclasses
import itertools

import numpy as np
import pytest

from ostrowski_frac.bounds import BoundParams
from ostrowski_frac.corpus import FunctionSpec, affine_spec
from ostrowski_frac.fracint import DomainError, FracParams, adaptive_gauss_many
from ostrowski_frac.report import _grid_for, parse_config
from ostrowski_frac.verify import (
    THEOREM_IDS,
    THEOREMS,
    HypothesisError,
    _check_hypotheses,
    lemma_identity_residual,
    ostrowski_lhs,
    ostrowski_signed,
    verify_classical,
    verify_theorem,
)

import test_cli
from conftest import simpson


def plain_spec(id, f, fprime, domain):
    """Ad-hoc FunctionSpec for expression-level tests; membership is
    irrelevant because only ostrowski_signed / residual functions are
    exercised."""
    return FunctionSpec(
        id=id, f=f, fprime=fprime, domain=domain, M=1.0, decreasing_abs_deriv=False,
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

    def test_outside_domain_rejected(self, corpus):
        with pytest.raises(DomainError):
            ostrowski_signed(corpus["affine08"], FracParams(0.5, 2.0, 1.0, 1.0))


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

    def test_endpoint_x_equals_a(self, corpus):
        res = lemma_identity_residual(corpus["linear"], FracParams(0.5, 2.0, 0.5, 0.8))
        assert res <= 1e-8

    @staticmethod
    def _two_batches(f, frac):
        """The residual as computed before its four integrals shared one
        batch: the signed LHS, then the two moment integrals."""
        a, b, x, mu = frac.a, frac.b, frac.x, frac.mu
        lhs = ostrowski_signed(f, frac)
        ends = np.array([a, b])
        i_a, i_b = adaptive_gauss_many(
            lambda t, k: t**mu * f.fprime(t * x + (1.0 - t) * ends[k]), [0.0, 0.0], [1.0, 1.0]
        ).tolist()
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


class TestHypothesisChecking:
    def kwargs(self, **kw):
        base = dict(M=0.5, alpha=0.5, m=0.5, q=2.0)
        base.update(kw)
        return base

    def test_t24_needs_q_above_one(self, corpus):
        f = corpus["powdecay"]
        bp = BoundParams(FracParams(1.0, 2.0, 1.5, 0.5), **self.kwargs(q=1.0))
        with pytest.raises(HypothesisError, match="q > 1"):
            verify_theorem("t24", f, bp)

    def test_M_mismatch_rejected(self, corpus):
        f = corpus["powdecay"]  # f.M = 0.5
        bp = BoundParams(FracParams(1.0, 2.0, 1.5, 0.5), **self.kwargs(M=0.6))
        with pytest.raises(HypothesisError, match="differs"):
            verify_theorem("t26", f, bp)

    def test_missing_claim_rejected(self, corpus):
        f = corpus["expdecay"]  # no geometric-convex claims
        bp = BoundParams(FracParams(1.0, 2.0, 1.5, 0.5), M=0.5, q=1.0)
        with pytest.raises(HypothesisError, match="geometric-convex"):
            verify_theorem("set", f, bp)

    def test_unknown_theorem(self, corpus):
        bp = BoundParams(FracParams(1.0, 2.0, 1.5, 0.5), M=0.5)
        with pytest.raises(HypothesisError, match="unknown"):
            verify_theorem("t99", corpus["powdecay"], bp)

    def test_mu1_requires_unit_order(self, corpus):
        f = corpus["powdecay"]
        bp = BoundParams(FracParams(1.0, 2.0, 1.5, 0.5), **self.kwargs())
        with pytest.raises(HypothesisError, match="mu = 1"):
            verify_theorem("mu1", f, bp)


# The claim table the membership certificates replaced, frozen with the
# oracle below: (alpha, m)-geometric claims at every (alpha, m, q) of the
# default sweep on the affine and decay members, and geometric-convex ones
# on all of them but expdecay; a constant has none.
_OLD_ALPHAS = (0.25, 0.5, 0.75, 1.0)
_OLD_MS = (0.25, 0.5, 0.75)
_OLD_QS = (1.0, 1.5, 2.0, 3.0)
_OLD_GEOMETRIC = {"linear": True, "affine08": True, "powdecay": True, "undeclared": True,
                  "expdecay": False}


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


def _old_check_hypotheses(theorem_id, f, bp):
    """The per-id if/elif chain that the theorem registry replaced, frozen
    as an oracle."""
    failures = []
    _old_require(abs(f.M - bp.M) <= 1e-15, failures, f"f.M={f.M:g} differs from bp.M={bp.M:g}")
    _old_require(f.decreasing_abs_deriv, failures, "|f'| not declared decreasing")
    _old_require(bp.frac.b >= 1.0, failures, "b >= 1 required")

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
            _old_require(bp.frac.mu == 1.0, failures, "mu = 1 required")
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


def _old_grid_for(theorem, cfg):
    """The per-id parameter grid that the theorem registry replaced, frozen
    as an oracle."""
    mus = (1.0,) if theorem == "mu1" else cfg.mus
    alphas = tuple(a for a in cfg.alphas if a < 1.0) if theorem == "t24" else cfg.alphas
    qs = (1.0,) if theorem == "remark_q1" else (
        tuple(q for q in cfg.qs if q > 1.0) if theorem == "t24" else cfg.qs
    )
    if theorem in ("set",):
        alphas = (1.0,)
        ms_ = (1.0,)
    else:
        ms_ = cfg.ms
    us = cfg.us if theorem in ("mm", "remark_q1") else (None,)
    if theorem == "t22":
        qs = (1.0,)
    for mu in mus:
        for alpha in alphas:
            for m in ms_:
                for q in qs:
                    for u in us:
                        yield mu, alpha, m, q, u


def _outcome(check, theorem_id, f, bp):
    """None if the hypotheses hold, else the HypothesisError message."""
    try:
        check(theorem_id, f, bp)
    except HypothesisError as exc:
        return str(exc)
    return None


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

    @pytest.mark.parametrize("case", sorted(GRID_CONFIGS))
    def test_grid_equals_per_id_grid(self, case):
        cfg = parse_config(self.GRID_CONFIGS[case])
        for theorem in THEOREM_IDS:
            assert list(_grid_for(theorem, cfg)) == list(_old_grid_for(theorem, cfg))

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
        if fid in ("powdecay", "undeclared"):
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
        undeclared = dataclasses.replace(
            corpus["powdecay"], id="undeclared", decreasing_abs_deriv=False
        )
        functions = [*corpus.values(), undeclared]
        same = newly_rejected = parent_passed = certified = 0
        for theorem_id, f, mu, alpha, m, q, u, M, b in itertools.product(
            THEOREM_IDS + ("t99",), functions, (0.5, 1.0), (0.5, 1.0), (0.5, 1.0),
            (1.0, 2.0, 2.5), (None, 0.5), (None, 0.5, 1.0), (2.0, 0.9),
        ):
            bp = BoundParams(
                FracParams(0.5, b, 0.7, mu),
                M=f.M if M is None else M,
                alpha=alpha,
                m=m,
                q=q,
                u=u,
                v=None if u is None else 1.0 - u,
            )
            want = _outcome(_old_check_hypotheses, theorem_id, f, bp)
            got = _outcome(_check_hypotheses, theorem_id, f, bp)
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
        assert certified == 2472


class TestVerdicts:
    def test_t22_holds_on_powdecay(self, corpus):
        f = corpus["powdecay"]
        bp = BoundParams(
            FracParams(1.0, 2.0, 1.4, 0.5), M=0.5, alpha=0.5, m=0.5, q=1.0
        )
        v = verify_theorem("t22", f, bp)
        assert v.holds and v.margin >= -v.tol_margin
        assert v.theorem_id == "t22"

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_every_theorem_yields_a_holding_verdict(self, corpus, theorem):
        f = corpus["powdecay"]
        record = THEOREMS[theorem]
        # a point inside every open box, with the record's pins substituted
        point = {"mu": 0.5, "alpha": 0.5, "m": 0.5, "q": 2.0, **dict(record.pins)}
        u = 0.5 if record.young else None
        bp = BoundParams(
            FracParams(1.0, 2.0, 1.4, point.pop("mu")),
            M=0.5,
            u=u,
            v=None if u is None else 1.0 - u,
            **point,
        )
        v = verify_theorem(theorem, f, bp)
        assert v.holds, (theorem, v.lhs, v.rhs)

    def test_endpoint_x_equals_a_and_b(self, corpus):
        f = corpus["powdecay"]
        for x in (1.0, 2.0):
            bp = BoundParams(
                FracParams(1.0, 2.0, x, 0.5), M=0.5, alpha=0.5, m=0.5, q=1.0
            )
            v = verify_theorem("t22", f, bp)
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
        lying = affine_spec(
            "lying", slope=0.8, intercept=0.0, lo=0.0, hi=1.0, declared_M=0.1
        )
        v = verify_classical(lying, 0.0, 1.0, 0.95)
        assert not v.holds and v.margin < 0
