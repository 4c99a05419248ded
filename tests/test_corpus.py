import itertools

import mpmath as mp
import numpy as np
import pytest

from ostrowski_frac import corpus as corpus_mod
from ostrowski_frac.convexity import GridSpec, check_membership
from ostrowski_frac.corpus import (
    FunctionSpec,
    affine_spec,
    audit,
    builtin_corpus,
    constant_spec,
    corpus_by_id,
    exp_decay_defect,
    exp_decay_spec,
    power_decay_margin,
    power_decay_spec,
    spec_from_family,
)
from ostrowski_frac.fracint import DomainError

EXPECTED_IDS = ("linear", "affine08", "const1", "const2", "powdecay", "expdecay")


class TestBuiltinCorpus:
    def test_ids_and_determinism(self):
        specs = builtin_corpus()
        assert tuple(s.id for s in specs) == EXPECTED_IDS
        assert tuple(s.id for s in builtin_corpus()) == EXPECTED_IDS

    def test_all_audits_clean(self, corpus):
        for spec in corpus.values():
            assert audit(spec) == []

    def test_corpus_by_id(self, corpus):
        assert corpus_by_id().keys() == corpus.keys()

    def test_claims_match_predicate_not_assumption(self, corpus):
        # Every claim of the table the certificates replaced is certified,
        # by a margin: every (alpha, m) of the default sweep, geometric
        # for all but expdecay.
        for alpha, m in itertools.product(OLD_ALPHAS, OLD_MS):
            for fid in ("linear", "affine08", "powdecay", "expdecay"):
                assert corpus[fid].member(alpha, m), (fid, alpha, m)
                assert corpus[fid].member(1.0, 1.0) is (fid != "expdecay")
            # powdecay: M = 0.5, r = 0.04 on [1, 2]
            assert power_decay_margin(0.5, 0.04, 1.0, 2.0, alpha, m) >= 0.09
            # expdecay: M = 0.5, lam = 0.02 on [1, 2]; 0 at t = 1 up to rounding
            defects = [exp_decay_defect(0.5, 0.02, 1.0, 2.0, alpha, m, t)
                       for t in np.linspace(0.0, 1.0, 2001).tolist()]
            assert max(defects[:-1]) < 0.0 and abs(defects[-1]) <= 1e-16

    def test_expdecay_has_no_geometric_claim(self, corpus):
        spec = corpus["expdecay"]
        assert not spec.member(1.0, 1.0)
        # and indeed the grid rejects it on a fine grid, for every q
        for q in OLD_QS:
            ce = check_membership(_gq(spec, q), spec.domain, grid=GridSpec(41, 41),
                                  g_domain=spec.domain)
            assert ce is not None, q

    def test_hand_built_spec_certifies_nothing(self, corpus):
        base = corpus["powdecay"]
        spec = FunctionSpec(
            id="hand", f=base.f, fprime=base.fprime, domain=base.domain, M=base.M,
            decreasing_abs_deriv=True,
        )
        assert base.member(0.5, 0.5) and base.member(1.0, 1.0)
        assert not spec.member(0.5, 0.5) and not spec.member(1.0, 1.0)
        assert audit(spec) == []


# The claim table the certificates replaced: the default sweep's values
# (its q values too, which no certificate reads).
OLD_ALPHAS = (0.25, 0.5, 0.75, 1.0)
OLD_MS = (0.25, 0.5, 0.75)
OLD_QS = (1.0, 1.5, 2.0, 3.0)


def _gq(spec, q):
    return lambda u: np.abs(np.asarray(spec.fprime(u), dtype=float)) ** q


def _mp_defect(fprime, x, y, t, alpha, m, q):
    """g(x^t y^(m(1-t))) - g(x)^(t^alpha) g(y)^(m(1-t^alpha)) for g = |f'|^q,
    at 40 digits; fprime takes and returns mpf."""
    with mp.workdps(40):
        x, y, t, alpha, m = map(mp.mpf, (x, y, t, alpha, m))
        s = t**alpha
        g = lambda u: abs(fprime(u)) ** q
        return g(x**t * y ** (m * (1 - t))) - g(x) ** s * g(y) ** (m * (1 - s))


class TestCertificates:
    """Each family's membership certificate against the grid, which stays
    an independent oracle: wherever a certificate admits an (alpha, m), no
    grid may find a counterexample or leave the domain, at any q."""

    ALPHAS = MS = (0.25, 0.5, 0.75, 1.0)
    QS = (1.0, 1.5, 2.0, 2.5, 3.0)

    @staticmethod
    def specs(corpus):
        return [
            *corpus.values(),
            # near the boundary of their classes (see TestBoundaryCases)
            power_decay_spec("pd02", M=0.5, r=0.2, lo=1.0, hi=2.0),
            exp_decay_spec("ed99", M=0.99, lam=0.02, lo=1.0, hi=2.0),
            # a domain where x^t y^(m(1-t)) leaves [lo, hi] unless m = 1
            affine_spec("aff_off", slope=0.5, intercept=0.0, lo=1.5, hi=2.5),
        ]

    @pytest.mark.parametrize(
        "grid", [GridSpec(21, 21), GridSpec(41, 41), GridSpec(33, 57)],
        ids=["21x21", "41x41", "33x57"],
    )
    def test_certified_claims_pass_the_grid(self, corpus, grid):
        admitted = rejected = 0
        for spec in self.specs(corpus):
            for alpha, m in itertools.product(self.ALPHAS, self.MS):
                if not spec.member(alpha, m):
                    rejected += 1
                    continue
                admitted += 1
                for q in self.QS:
                    ce = check_membership(_gq(spec, q), spec.domain, alpha, m, grid,
                                          g_domain=spec.domain)
                    assert ce is None, (spec.id, alpha, m, q, ce)
        assert admitted and rejected

    def test_grid_counterexamples_are_rejected(self, corpus):
        # The contrapositive, where the grid has a say: each grid failure
        # (a counterexample or a domain error) is a rejection.
        failures = 0
        for spec in self.specs(corpus):
            for alpha, m in itertools.product(self.ALPHAS, self.MS):
                try:
                    ce = check_membership(_gq(spec, 1.0), spec.domain, alpha, m,
                                          GridSpec(21, 21), g_domain=spec.domain)
                except DomainError:
                    ce = "domain"
                if ce is not None:
                    failures += 1
                    assert not spec.member(alpha, m), (spec.id, alpha, m)
        # const1 and const2 (g = 0), aff_off off m = 1, and decay failures
        assert failures > 2 * 16 + 12

    def test_power_decay_threshold_is_exact(self):
        # M = 0.5, r = 0.2, alpha = 0.5 on [1, 2]: (1 - alpha)/alpha r ln 2
        # = (1 - m) ln 2 at m* = 0.8.
        spec = power_decay_spec("pd02", M=0.5, r=0.2, lo=1.0, hi=2.0)
        assert spec.member(0.5, 0.8 - 1e-9)
        assert not spec.member(0.5, 0.8 + 1e-9)
        # alpha = 1: the left side is 0, so every m < 1 (and M < 1) is certified
        assert all(spec.member(1.0, m) for m in self.MS)

    def test_constant_is_never_a_member(self, corpus):
        for alpha, m in ((1.0, 1.0), (1.0, 0.5), (0.5, 0.5)):
            assert not corpus["const1"].member(alpha, m)
        assert not constant_spec("c", value=1.0, lo=1.0, hi=2.0).member(1.0, 1.0)

    def test_combination_points_must_stay_in_the_domain(self):
        # [1.5, 2.5]: 1.5^m < 1.5 for m < 1, where the grid raises DomainError
        spec = affine_spec("aff_off", slope=0.5, intercept=0.0, lo=1.5, hi=2.5)
        assert not spec.member(0.5, 0.5)
        with pytest.raises(DomainError, match="combination points leave"):
            check_membership(_gq(spec, 1.0), spec.domain, 0.5, 0.5, g_domain=spec.domain)
        assert spec.member(1.0, 1.0)
        assert spec.member(0.5, 1.0)

    def test_memoized_per_alpha_m(self, monkeypatch):
        calls = []
        certified = corpus_mod._exp_decay_certified

        def counting(*args):
            calls.append(args[-2:])
            return certified(*args)

        monkeypatch.setattr(corpus_mod, "_exp_decay_certified", counting)
        spec = exp_decay_spec("ed", M=0.5, lam=0.02, lo=1.0, hi=2.0)
        for _ in range(3):  # each repeat is a memo hit
            assert spec.member(0.5, 0.5)
            assert spec.member(1.0, 0.25)
        assert calls == [(0.5, 0.5), (1.0, 0.25)]


class TestBoundaryCases:
    """Two false claims, each near the boundary of its class, that the
    shipped 21 x 21 x 21 grid passes: the certificate rejects both, and 40
    digits confirm the violation."""

    def test_power_decay_just_past_the_threshold(self):
        # m* = 0.8; at m = 0.801 the defect is positive for t in (0.9900, 1)
        spec = power_decay_spec("pd02", M=0.5, r=0.2, lo=1.0, hi=2.0)
        assert not spec.member(0.5, 0.801)
        for q in (1.0, 3.0):
            assert check_membership(_gq(spec, q), spec.domain, 0.5, 0.801,
                                    g_domain=spec.domain) is None
        defect = _mp_defect(lambda u: mp.mpf(0.5) * u ** -mp.mpf(0.2), 2.0, 1.0, 0.995,
                            0.5, 0.801, 1)
        assert defect > 3e-7

    def test_exp_decay_between_grid_t_steps(self):
        spec = exp_decay_spec("ed99", M=0.99, lam=0.02, lo=1.0, hi=2.0)
        assert not spec.member(1.0, 0.25)
        for q in (1.0, 3.0):
            assert check_membership(_gq(spec, q), spec.domain, 1.0, 0.25,
                                    g_domain=spec.domain) is None
        defect = _mp_defect(lambda u: mp.mpf(0.99) * mp.exp(-mp.mpf(0.02) * (u - 1)),
                            2.0, 1.0, 0.990175, 1.0, 0.25, 1)
        assert 8.9e-7 < defect < 9.0e-7


class TestAuditFailures:
    def test_wrong_derivative_detected(self):
        spec = FunctionSpec(
            id="bad_deriv",
            f=lambda u: np.asarray(u, float) ** 2 / 4.0,
            fprime=lambda u: 0.9 * np.asarray(u, float) / 2.0,
            domain=(0.0, 2.0),
            M=1.0,
            decreasing_abs_deriv=False,
        )
        violations = audit(spec)
        assert any("finite difference" in v for v in violations)

    def test_understated_M_detected(self):
        spec = affine_spec("lying", slope=0.8, intercept=0.0, lo=0.0, hi=1.0,
                           declared_M=0.1)
        violations = audit(spec)
        assert any("exceeds declared M" in v for v in violations)

    def test_increasing_deriv_flag_detected(self):
        spec = FunctionSpec(
            id="grows",
            f=lambda u: np.asarray(u, float) ** 2 / 4.0,
            fprime=lambda u: np.asarray(u, float) / 2.0,
            domain=(0.0, 2.0),
            M=1.0,
            decreasing_abs_deriv=True,
        )
        violations = audit(spec)
        assert any("non-increasing" in v for v in violations)


class TestSpecValidation:
    def test_bad_domain(self):
        with pytest.raises(DomainError):
            affine_spec("x", slope=1.0, intercept=0.0, lo=-1.0, hi=1.0)
        with pytest.raises(DomainError):
            affine_spec("x", slope=1.0, intercept=0.0, lo=1.0, hi=1.0)

    def test_bad_M(self):
        with pytest.raises(DomainError):
            affine_spec("x", slope=2.0, intercept=0.0, lo=0.0, hi=1.0)
        with pytest.raises(DomainError):
            affine_spec("x", slope=1.0, intercept=0.0, lo=0.0, hi=1.0,
                        declared_M=0.0)

    def test_power_decay_guards(self):
        with pytest.raises(DomainError):
            power_decay_spec("x", M=0.5, r=0.04, lo=0.5, hi=2.0)
        with pytest.raises(DomainError):
            power_decay_spec("x", M=0.5, r=1.0, lo=1.0, hi=2.0)


class TestSpecFromFamily:
    def test_roundtrip(self):
        spec = spec_from_family("affine", "aff", slope=0.5, intercept=0.0,
                                lo=0.0, hi=1.0)
        assert spec.id == "aff" and spec.M == 0.5

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            spec_from_family("cubic", "c")

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            spec_from_family("affine", "aff", slope=0.5, wiggle=3)
