import numpy as np
import pytest

from ostrowski_frac.convexity import (
    GridSpec,
    alpha_m_geom_convex,
    check_membership,
    geom_convex,
)
from ostrowski_frac.corpus import (
    CLAIM_QS,
    FunctionSpec,
    affine_spec,
    audit,
    builtin_corpus,
    corpus_by_id,
    exp_decay_spec,
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
        # every attached claim must actually hold on a finer grid than the audit uses
        fine = GridSpec(points_per_axis=31, t_steps=31)
        for spec in corpus.values():
            for kind, q in spec.claims:
                gq = lambda u, q=q: np.abs(np.asarray(spec.fprime(u), float)) ** q
                assert (
                    check_membership(gq, spec.domain, kind, fine, g_domain=spec.domain)
                    is None
                ), (spec.id, kind.describe(), q)

    @pytest.mark.parametrize(
        "grid", [GridSpec(41, 41), GridSpec(33, 57)], ids=["41x41", "33x57"]
    )
    def test_audits_clean_beyond_the_shipped_grid(self, corpus, grid):
        # 41 nests the shipped 21-point axes; 33 x 57 shares only their quarter points
        for spec in corpus.values():
            assert audit(spec, grid) == [], spec.id

    def test_expdecay_has_no_geometric_claim(self, corpus):
        spec = corpus["expdecay"]
        for q in CLAIM_QS:
            assert not spec.has_claim(geom_convex(), q)
        # and indeed the membership predicate rejects it on a fine grid
        gq = lambda u: np.abs(np.asarray(spec.fprime(u), float))
        ce = check_membership(
            gq, spec.domain, geom_convex(), GridSpec(41, 41), g_domain=spec.domain
        )
        assert ce is not None

    def test_has_claim_tolerance(self, corpus):
        spec = corpus["powdecay"]
        assert spec.has_claim(alpha_m_geom_convex(0.5, 0.5), 2.0)
        assert spec.has_claim(alpha_m_geom_convex(0.5, 0.5), 2.0 + 1e-13)
        assert not spec.has_claim(alpha_m_geom_convex(0.5, 0.5), 2.1)
        assert not spec.has_claim(alpha_m_geom_convex(0.51, 0.5), 2.0)


class TestAuditFailures:
    def test_wrong_derivative_detected(self):
        spec = FunctionSpec(
            id="bad_deriv",
            f=lambda u: np.asarray(u, float) ** 2 / 4.0,
            fprime=lambda u: 0.9 * np.asarray(u, float) / 2.0,
            domain=(0.0, 2.0),
            M=1.0,
            claims=(),
            decreasing_abs_deriv=False,
        )
        violations = audit(spec)
        assert any("finite difference" in v for v in violations)

    def test_understated_M_detected(self):
        spec = affine_spec("lying", slope=0.8, intercept=0.0, lo=0.0, hi=1.0,
                           declared_M=0.1)
        violations = audit(spec)
        assert any("exceeds declared M" in v for v in violations)

    def test_false_claim_detected(self):
        # exp decay with a geometric claim bolted on must fail membership
        base = exp_decay_spec("expgeom", M=0.5, lam=0.5, lo=1.0, hi=2.0)
        spec = FunctionSpec(
            id=base.id,
            f=base.f,
            fprime=base.fprime,
            domain=base.domain,
            M=base.M,
            claims=base.claims + ((geom_convex(), 1.0),),
            decreasing_abs_deriv=base.decreasing_abs_deriv,
        )
        violations = audit(spec)
        assert any("geom-convex" in v and "violated" in v for v in violations)

    def test_increasing_deriv_flag_detected(self):
        spec = FunctionSpec(
            id="grows",
            f=lambda u: np.asarray(u, float) ** 2 / 4.0,
            fprime=lambda u: np.asarray(u, float) / 2.0,
            domain=(0.0, 2.0),
            M=1.0,
            claims=(),
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
