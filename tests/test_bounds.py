import math
import re

import numpy as np
import pytest

from ostrowski_frac.bounds import (
    BoundParams,
    bound_classical,
    bound_mu1_audit,
    factor_mm,
    geometry_factor,
    geometry_factors,
    k_alpha,
)
from ostrowski_frac.fracint import DomainError, FracParams, mexp_integral
from ostrowski_frac.report import verdict_rows
from ostrowski_frac.verify import THEOREMS

import mp_oracle


def inst(a=0.0, b=1.0, x=0.5, mu=0.5, **kw):
    """(frac, bp): the instance (a, b, x, mu) and the point of the keywords."""
    return FracParams(a, b, x, mu), BoundParams(**kw)


def rhs_of(theorem, instance):
    frac, params = instance
    return THEOREMS[theorem].rhs(params, frac)


class TestBoundParams:
    def test_p_conjugate(self):
        assert BoundParams(M=0.5, q=2.0).p == 2.0
        assert BoundParams(M=0.5, q=3.0).p == pytest.approx(1.5)
        with pytest.raises(DomainError):
            _ = BoundParams(M=0.5, q=1.0).p

    @pytest.mark.parametrize(
        "kw",
        [
            dict(M=0.0),
            dict(M=1.5),
            dict(M=0.5, alpha=0.0),
            dict(M=0.5, m=1.2),
            dict(M=0.5, q=0.9),
            dict(M=0.5, u=1.0),
            dict(M=0.5, u=-0.2),
            dict(M=0.5, u=float("nan")),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(DomainError):
            BoundParams(**kw)

    def test_v_is_derived_from_u(self):
        assert BoundParams(M=0.5).v is None
        assert BoundParams(M=0.5, u=0.25).v == 0.75
        with pytest.raises(TypeError):
            BoundParams(M=0.5, u=0.5, v=0.5)


class TestGeometryFactor:
    def test_frozen_example(self):
        assert geometry_factor(FracParams(0.0, 1.0, 0.3, 0.5)) == pytest.approx(
            0.7499787858254026, rel=1e-15
        )

    def test_midpoint_mu1(self):
        # ((b-a)/2)^2 * 2 / (b-a) = (b-a)/2 at the midpoint for mu = 1
        assert geometry_factor(FracParams(0.0, 2.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, x, b = np.sort(rng.uniform(0.0, 5.0, size=3))
            if b - a < 1e-6:
                continue
            mu = rng.uniform(0.2, 3.0)
            g1 = geometry_factor(FracParams(a, b, x, mu))
            g2 = geometry_factor(FracParams(a, b, a + b - x, mu))
            assert g1 == pytest.approx(g2, rel=1e-12)

    # On [1, 1000] at mu = 113.2 each power at x = 500.5 is finite but their
    # sum is not; at x = 600 a power overflows.
    SUM = "(x - a)^(mu + 1) + (b - x)^(mu + 1)"
    POWER = "(x - a)^(mu + 1) or (b - x)^(mu + 1)"

    @pytest.mark.parametrize("xs, x, what", [
        ([500.5, 600.0], 500.5, SUM),
        ([600.0, 500.5], 600.0, POWER),
    ], ids=["sum-first", "power-first"])
    def test_first_non_finite_factor_raises(self, xs, x, what):
        message = re.escape(f"geometry factor at a = 1.0, b = 1000.0, x = {x}, mu = 113.2: "
                            f"{what} overflows a float")
        with pytest.raises(DomainError, match=f"^{message}$"):
            geometry_factors(1.0, 1000.0, xs, 113.2)
        with pytest.raises(DomainError, match=f"^{message}$"):
            geometry_factor(FracParams(1.0, 1000.0, x, 113.2))


class TestKAlpha:
    def test_frozen_example(self):
        assert k_alpha(0.5, 0.5, 1.0, 1.0) == pytest.approx(
            0.28156747958142014, rel=1e-13
        )

    def test_M_one_limit(self):
        for mu in (0.5, 1.0, 2.5):
            assert k_alpha(1.0, 0.7, 0.3, mu) == 1.0 / (mu + 1.0)

    def test_continuity_at_M_one(self):
        assert k_alpha(1.0 - 1e-12, 0.5, 0.5, 1.5) == pytest.approx(
            k_alpha(1.0, 0.5, 0.5, 1.5), rel=1e-9
        )

    def test_m_one_drops_exponent(self):
        # at m = 1 the inner weight is constant and k = M / (mu+1)
        for M in (0.3, 0.8):
            assert k_alpha(M, 1.0, 0.5, 2.0) == pytest.approx(M / 3.0, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            k_alpha(1.2, 0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            k_alpha(0.5, 0.5, 0.5, 0.0)
        for m, alpha in ((0.0, 0.5), (1.5, 0.5), (0.5, 0.0), (0.5, 1.5)):
            with pytest.raises(DomainError, match="alpha, m in"):
                k_alpha(0.5, m, alpha, 1.0)


class TestMainBound:
    def test_frozen_example(self):
        params = inst(a=0.0, b=2.0, x=0.7, mu=0.5, M=0.5, alpha=0.5, m=0.5)
        assert rhs_of("t22", params) == pytest.approx(0.43972994582116864, rel=1e-9)

    def test_alpha1_corollary_matches_parent(self):
        # the alpha = 1 corollary's k(1), written out, against the parent
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, x, b = np.sort(rng.uniform(0.0, 4.0, size=3))
            if b - a < 1e-3 or not a < x < b:
                continue
            mu = rng.uniform(0.2, 3.0)
            M = rng.uniform(0.05, 1.0)
            m = rng.uniform(0.05, 1.0)
            params = FracParams(a, b, x, mu), BoundParams(M=M, alpha=1.0, m=m)
            geometry = ((x - a) ** (mu + 1.0) + (b - x) ** (mu + 1.0)) / (b - a)
            lhs = geometry * M**m * mexp_integral(M ** (1.0 - m), mu)
            rhs = rhs_of("t22", params)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


class TestHoelderBound:
    def test_frozen_example(self):
        params = inst(a=0.0, b=2.0, x=0.7, mu=0.5, M=0.5, alpha=0.5, m=0.5, q=2.0)
        assert rhs_of("t24", params) == pytest.approx(0.47525246968553458, rel=1e-12)

    def test_guard_near_m_one(self):
        # m -> 1 sends the mean factor's exponent to 0; its expm1 form stays
        # finite and continuous
        near = rhs_of("t24", inst(M=0.5, alpha=0.5, m=1.0 - 1e-9, q=2.0))
        at_limit = 0.5 ** (1.0 - 1e-9) * (1.0 / 2.0) ** 0.5 * geometry_factor(
            FracParams(0.0, 1.0, 0.5, 0.5)
        )
        assert near == pytest.approx(at_limit, rel=1e-7)

    def test_alpha1_corollary_matches_parent_limit(self):
        # the Hoelder form with exponent q alpha (1 - m), written out, against
        # the parent inside the open box; its alpha = 1 corollary is the
        # parent's limit as alpha -> 1
        def written_out(instance):
            frac, params = instance
            e = params.q * params.alpha * (1.0 - params.m)
            return (
                0.4**0.5
                * (1.0 / 2.0) ** 0.5
                * ((0.4**e - 1.0) / (e * math.log(0.4))) ** 0.5
                * geometry_factor(frac)
            )

        for alpha in (0.05, 0.5, 0.9):
            params = inst(M=0.4, alpha=alpha, m=0.5, q=2.0)
            assert rhs_of("t24", params) == pytest.approx(written_out(params), rel=1e-13)
        corollary = written_out(inst(M=0.4, alpha=1.0, m=0.5, q=2.0))
        near = rhs_of("t24", inst(M=0.4, alpha=1.0 - 1e-12, m=0.5, q=2.0))
        assert near == pytest.approx(corollary, rel=1e-10)

    def test_underflowing_exponent_is_finite(self):
        # q alpha (1 - m) ln M underflows to 0; the mean factor is then 1
        value = rhs_of("t24", inst(M=0.5, alpha=5e-324, m=0.5, q=2.0))
        assert math.isfinite(value) and value > 0.0


class TestPowerMeanBound:
    def test_frozen_example(self):
        params = inst(a=0.0, b=2.0, x=0.7, mu=0.5, M=0.5, alpha=0.5, m=0.5, q=2.0)
        assert rhs_of("t26", params) == pytest.approx(0.44018934589992498, rel=1e-9)

    def test_q1_reduces_to_main_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            a, x, b = np.sort(rng.uniform(0.0, 4.0, size=3))
            if b - a < 1e-3 or not a < x < b:
                continue
            params = FracParams(a, b, x, rng.uniform(0.2, 3.0)), BoundParams(
                M=rng.uniform(0.05, 0.999),
                alpha=rng.uniform(0.05, 1.0),
                m=rng.uniform(0.05, 0.999),
                q=1.0,
            )
            lhs = rhs_of("t26", params)
            rhs = rhs_of("t22", params)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))

    def test_alpha1_corollary_matches_parent(self):
        # the alpha = 1 power-mean form, written out, against the parent
        rng = np.random.default_rng(29)
        for _ in range(1000):
            a, x, b = np.sort(rng.uniform(0.0, 4.0, size=3))
            if b - a < 1e-3 or not a < x < b:
                continue
            mu = rng.uniform(0.2, 3.0)
            M = rng.uniform(0.05, 0.999)
            m = rng.uniform(0.05, 0.999)
            q = rng.uniform(1.0, 4.0)
            params = FracParams(a, b, x, mu), BoundParams(M=M, alpha=1.0, m=m, q=q)
            lhs = (
                M**m
                * (1.0 / (mu + 1.0)) ** (1.0 - 1.0 / q)
                * mexp_integral(M ** (q * (1.0 - m)), mu) ** (1.0 / q)
                * ((x - a) ** (mu + 1.0) + (b - x) ** (mu + 1.0)) / (b - a)
            )
            rhs = rhs_of("t26", params)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


class TestSetBound:
    def test_frozen_example(self):
        assert rhs_of("set", inst(x=0.5, mu=2.0, M=0.5)) == pytest.approx(
            0.041666666666666664, rel=1e-15
        )

    def test_equals_main_bound_at_M_one(self):
        params = inst(M=1.0, mu=1.5)
        assert rhs_of("set", params) == pytest.approx(
            rhs_of("t22", params), rel=1e-14
        )


class TestMu1Bound:
    def test_frozen_example(self):
        params = inst(0.0, 2.0, 1.0, 1.0, M=0.9, alpha=1.0, m=0.5, q=2.0)
        assert rhs_of("mu1", params) == pytest.approx(2.1168025157429535, rel=1e-12)

    def test_audit_requires_mu_one(self):
        # the audit calls the factor directly, not through the theorem record
        with pytest.raises(DomainError, match="mu = 1"):
            bound_mu1_audit(BoundParams(M=0.5, m=0.5), FracParams(0.0, 1.0, 0.5, 0.5))

    def test_audit_reports_positive_gap(self):
        # the printed bracket exceeds the kernel integral by 1/|ln c|
        params = BoundParams(M=0.5, alpha=0.5, m=0.5, q=2.0)
        audit = bound_mu1_audit(params, FracParams(0.0, 2.0, 1.0, 1.0))
        assert audit.printed > audit.recomputed
        assert audit.difference == pytest.approx(
            audit.printed - audit.recomputed, rel=1e-15
        )

    def test_printed_form_near_c_one(self):
        # the printed bracket is evaluated up to c -> 1, where it exceeds the
        # kernel integral by 1/|ln c| and so diverges; at a = 0, b = 2, x = 1
        # and q = 1 the bound is M^m times the bracket
        for M in (1.0 - 1e-4, 1.0 - 1e-8, 1.0 - 1e-12):
            params = inst(0.0, 2.0, 1.0, 1.0, M=M, m=0.5)
            lc = 1.0 * 1.0 * (1.0 - 0.5) * math.log(M)
            bracket = rhs_of("mu1", params) / M**0.5
            kernel = mexp_integral(math.exp(lc), 1.0)
            assert bracket - kernel == pytest.approx(-1.0 / lc, rel=1e-9)

    def test_bracket_at_c_one_rejected(self):
        # alpha underflows the exponent to 0: c = 1, where the bracket is infinite
        with pytest.raises(DomainError, match="diverges"):
            rhs_of("mu1", inst(0.0, 2.0, 1.0, 1.0, M=0.5, alpha=5e-324, m=0.5))


class TestYoungBounds:
    def test_frozen_example(self):
        params = inst(
            a=0.0, b=2.0, x=0.7, mu=0.5, M=0.5, alpha=0.5, m=0.5, q=2.0,
            u=0.5,
        )
        assert rhs_of("mm", params) == pytest.approx(0.46648905080240843, rel=1e-12)

    def test_dominates_power_mean(self):
        rng = np.random.default_rng(31)
        count = 0
        while count < 1000:
            a, x, b = np.sort(rng.uniform(0.0, 4.0, size=3))
            if b - a < 1e-3 or not a < x < b:
                continue
            u = rng.uniform(0.05, 0.95)
            params = FracParams(a, b, x, rng.uniform(0.2, 3.0)), BoundParams(
                M=rng.uniform(0.05, 0.999),
                alpha=rng.uniform(0.05, 1.0),
                m=rng.uniform(0.05, 0.999),
                q=rng.uniform(1.0, 4.0),
                u=u,
            )
            assert rhs_of("mm", params) - rhs_of("t26", params) >= -1e-12
            count += 1

    def test_v_to_one_limit_is_finite(self):
        params = inst(M=0.5, m=0.5, q=2.0, u=1e-9)
        assert math.isfinite(rhs_of("mm", params))

    def test_remark_q1(self):
        # the q = 1 remark is the general Young bound pinned at q = 1
        for M, alpha, m, u in ((0.5, 1.0, 0.5, 0.5), (0.3, 0.4, 0.75, 0.2)):
            params = BoundParams(M=M, alpha=alpha, m=m, q=1.0, u=u)
            assert THEOREMS["remark_q1"].factor(params, 0.5) == factor_mm(params, 0.5)
        assert THEOREMS["remark_q1"].box == (("q", "=", 1.0),)


class TestClassicalBound:
    def test_midpoint_value(self):
        assert bound_classical(1.0, 0.0, 1.0, 0.5) == 0.25
        assert bound_classical(0.5, 0.0, 2.0, 1.0) == 0.25

    def test_endpoint_value(self):
        assert bound_classical(1.0, 0.0, 1.0, 1.0) == 0.5

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bound_classical(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            bound_classical(1.0, 0.0, 1.0, 1.5)


class TestReflectionSymmetry:
    def test_all_bounds_symmetric_in_x(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            a, x, b = np.sort(rng.uniform(0.0, 4.0, size=3))
            if b - a < 1e-3 or not a < x < b:
                continue
            mu = rng.uniform(0.2, 3.0)
            kw = dict(M=0.6, alpha=0.5, m=0.5, q=2.0, u=0.5)
            p1 = inst(a, b, x, mu, **kw)
            p2 = inst(a, b, a + b - x, mu, **kw)
            for theorem in ("t22", "t24", "t26", "mm"):
                assert rhs_of(theorem, p1) == pytest.approx(rhs_of(theorem, p2), rel=1e-12)


class TestRhsOracle:
    def test_default_sweep_within_1e15_of_40_digits(self, default_sweep):
        # every printed RHS of the default sweep against mpmath at 40 digits
        worst = {}
        for v in verdict_rows(default_sweep):
            err = mp_oracle.rel_err(v["rhs"], mp_oracle.rhs(v))
            worst[v["theorem"]] = max(worst.get(v["theorem"], 0.0), err)
        assert set(worst) == set(THEOREMS)
        assert max(worst.values()) <= 1e-15, worst
