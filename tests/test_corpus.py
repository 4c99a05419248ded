import dataclasses
import itertools
import math

import bisection_oracle
import mpmath as mp
import numpy as np
import pytest
from grid_oracle import GridSpec, audit, check_membership

from ostrowski_frac import corpus as corpus_mod
from ostrowski_frac.corpus import (
    FunctionSpec,
    affine_spec,
    builtin_corpus,
    constant_spec,
    corpus_by_id,
    exp_decay_defect,
    exp_decay_spec,
    power_decay_margin,
    power_decay_spec,
    spec_from_family,
)
from ostrowski_frac.convexity import SLACK
from ostrowski_frac.fracint import DomainError
from ostrowski_frac.report import DEFAULT_ALPHAS, DEFAULT_MS, DEFAULT_QS

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
        certified = corpus_mod._exp_decay_reason

        def counting(*args):
            calls.append(args[-2:])
            return certified(*args)

        monkeypatch.setattr(corpus_mod, "_exp_decay_reason", counting)
        spec = exp_decay_spec("ed", M=0.5, lam=0.02, lo=1.0, hi=2.0)
        for _ in range(3):  # each repeat is a memo hit
            assert spec.member(0.5, 0.5)
            assert spec.member(1.0, 0.25)
        assert calls == [(0.5, 0.5), (1.0, 0.25)]


class TestBoundaryCases:
    """Two false claims, each near the boundary of its class, that the
    default 21 x 21 x 21 grid passes: the certificate rejects both, and 40
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


class TestWitnesses:
    """Every rejected claim says why: a witness (x, y, t) that violates the
    inequality at every q, beyond the checks' slack, or a one-line text."""

    KINDS = [round(0.05 * i, 2) for i in range(1, 21)]  # 0.05, 0.10, ..., 1.0

    @pytest.mark.parametrize("fid", ["powdecay", "expdecay"])
    def test_every_rejection_has_a_reason_and_every_witness_violates(self, corpus, fid):
        spec = corpus[fid]
        witnesses = 0
        for alpha, m in itertools.product(self.KINDS, self.KINDS):
            reason = spec.certify(alpha, m)
            assert spec.member(alpha, m) is (reason is None)
            if reason is None:
                continue
            if isinstance(reason, str):
                assert reason and "\n" not in reason, (alpha, m, reason)
                continue
            witnesses += 1
            x, y, t = reason
            assert spec.domain[0] <= min(x, y) and max(x, y) <= spec.domain[1]
            assert 0.0 < t < 1.0
            s = t**alpha
            for q in DEFAULT_QS:
                g = _gq(spec, q)
                lhs = float(g(x**t * y ** (m * (1.0 - t))))
                rhs = float(g(x)) ** s * float(g(y)) ** (m * (1.0 - s))
                assert lhs > rhs + SLACK * max(1.0, abs(rhs)), (alpha, m, q, reason)
        assert witnesses

    @pytest.mark.parametrize("fid", ["powdecay", "expdecay"])
    def test_grid_counterexamples_are_rejected(self, corpus, fid):
        spec = corpus[fid]
        found = 0
        for alpha, m in itertools.product(self.KINDS, self.KINDS):
            for q in DEFAULT_QS:
                ce = check_membership(_gq(spec, q), spec.domain, alpha, m,
                                      g_domain=spec.domain)
                if ce is not None:
                    found += 1
                    assert not spec.member(alpha, m), (alpha, m, q, ce)
        assert found

    def test_power_decay_witness_is_the_first_positive_defect(self):
        # pd02: M = 0.5, r = 0.2 on [1, 2], threshold m* = 0.8 at alpha = 0.5;
        # the worst corner is (2, 1), and the defect is positive from
        # t = 1 - 2^-k on, for the first such k only.
        spec = power_decay_spec("pd02", M=0.5, r=0.2, lo=1.0, hi=2.0)
        x, y, t = spec.certify(0.5, 0.801)
        assert (x, y) == (2.0, 1.0)
        k = round(-math.log2(1.0 - t))
        assert _mp_defect(lambda u: mp.mpf(0.5) * u ** -mp.mpf(0.2), x, y, t, 0.5, 0.801, 1) > 0
        earlier = 1.0 - 2.0 ** -(k - 1)
        assert _mp_defect(lambda u: mp.mpf(0.5) * u ** -mp.mpf(0.2), x, y, earlier,
                          0.5, 0.801, 1) <= 0

    @pytest.mark.parametrize("fid,M,r,alpha,m", [
        ("powdecay", 0.5, 0.04, 0.25, 0.88), ("pd02", 0.5, 0.2, 0.5, 0.8),
    ])
    def test_margin_rounded_below_zero_names_no_witness(self, fid, M, r, alpha, m):
        # The exact margin is 0; in floats it is about -1e-17, within its
        # rounding bound, so the claim is undecided rather than witnessed.
        spec = power_decay_spec(fid, M=M, r=r, lo=1.0, hi=2.0)
        margin = power_decay_margin(M, r, 1.0, 2.0, alpha, m)
        bound = corpus_mod._power_decay_rounding(M, r, 1.0, 2.0, alpha, m)
        assert -1e-16 < margin < 0.0 and -margin < bound < 1e-15
        assert spec.certify(alpha, m) == (
            f"margin {margin!r} is within its rounding bound {bound!r} of 0")
        assert not spec.member(alpha, m)

    def test_negative_margin_that_g_cannot_show(self):
        # pd02 just past its threshold m* = 0.8: the margin, -6.9e-15, is
        # beyond its rounding bound, but the closed-form defect turns
        # positive only so near t = 1 that g does not fail in floats.
        m = 0.8 + 1e-14
        margin = power_decay_margin(0.5, 0.2, 1.0, 2.0, 0.5, m)
        assert margin < -10 * corpus_mod._power_decay_rounding(0.5, 0.2, 1.0, 2.0, 0.5, m)
        assert power_decay_spec("pd02", M=0.5, r=0.2, lo=1.0, hi=2.0).certify(0.5, m) == (
            f"margin {margin!r} is negative, but g does not fail in floats")

    def test_text_reasons(self):
        assert constant_spec("c", value=1.0, lo=1.0, hi=2.0).certify(0.5, 0.5) == (
            "geometric kinds require g > 0")
        assert affine_spec("flat", slope=0.0, intercept=1.0, lo=1.0, hi=2.0,
                           declared_M=0.5).certify(1.0, 1.0) == "geometric kinds require g > 0"
        assert affine_spec("aff_off", slope=0.5, intercept=0.0, lo=1.5, hi=2.5).certify(
            0.5, 0.5) == "combination points x^t y^(m(1-t)) leave [1.5, 2.5]"
        base = corpus_by_id()["powdecay"]
        hand = FunctionSpec(id="hand", f=base.f, fprime=base.fprime, domain=base.domain,
                            M=base.M)
        assert hand.certify(0.5, 0.5) == "a hand-built spec certifies nothing"
        # sup|f'| = 2 * 4^(-1.5) = 0.25 <= 1, but the certificate needs |M| <= 1
        big = power_decay_spec("big", M=2.0, r=1.5, lo=4.0, hi=5.0, declared_M=0.5)
        assert big.certify(1.0, 1.0) == "power decay is certified only for |M| <= 1"
        # f' = 0: g = 0 is in no geometric class, whatever the declared M.
        assert power_decay_spec("pz", M=0.0, r=0.5, lo=1, hi=2, declared_M=0.5).certify(
            0.5, 0.5) == "geometric kinds require g > 0"
        assert exp_decay_spec("ez", M=0.0, lam=0.5, lo=1, hi=2, declared_M=0.5).certify(
            0.5, 0.5) == "geometric kinds require g > 0"

    def test_undecided_exp_decay_supremum_is_a_text_reason(self, monkeypatch):
        # A member whose slope test fails on [0, 1]: its search needs 7
        # intervals.
        assert exp_decay_spec("ed", M=0.5, lam=0.5, lo=1.0, hi=2.0).member(0.9, 0.6)
        monkeypatch.setattr(corpus_mod, "_EXP_DECAY_MAX_INTERVALS", 3)
        spec = exp_decay_spec("ed", M=0.5, lam=0.5, lo=1.0, hi=2.0)
        assert spec.certify(0.9, 0.6) == "supremum undecided after 3 intervals"


class TestExpDecaySlope:
    """The exp-decay certificate clears an interval ending at t = 1 by each
    corner's slope, and any other by a bound below 0, each clearing its own
    rounding, with no slack.  A frozen copy of the bisection it replaced,
    which accepts a defect up to SLACK (`tests/bisection_oracle.py`), is
    its oracle."""

    EDGES = [0.001, 0.999, 0.059334298118668596]
    KINDS = TestWitnesses.KINDS + EDGES
    MEMBERS = {  # (M, lam, lo, hi)
        "expdecay": (0.5, 0.02, 1.0, 2.0), "ed99": (0.99, 0.02, 1.0, 2.0),
        "lam0.5": (0.5, 0.5, 1.0, 2.0), "lam1": (0.5, 1.0, 1.0, 2.0),
        "lam5": (0.5, 5.0, 1.0, 2.0), "negative-M": (-0.5, 0.3, 1.0, 2.0),
        # a base 0, which has no log, and a domain inside [0, 1]
        "lo0": (0.5, 0.02, 0.0, 2.0), "below1": (0.5, 0.3, 0.25, 1.0),
    }

    @pytest.mark.parametrize("fid", MEMBERS)
    def test_same_answers_as_the_frozen_bisection(self, monkeypatch, fid):
        # negative-M at (0.45, 0.1) is rejected at t = 1 - 2^-11, found
        # after 7,653 intervals by either search: the budget is raised so
        # that the two searches, not their budgets, are compared.
        monkeypatch.setattr(corpus_mod, "_EXP_DECAY_MAX_INTERVALS", 1 << 14)
        members = 0
        for alpha, m in itertools.product(self.KINDS, self.KINDS):
            want = bisection_oracle.exp_decay_reason(*self.MEMBERS[fid], alpha, m)
            assert corpus_mod._exp_decay_reason(*self.MEMBERS[fid], alpha, m) == want, (
                alpha, m)
            members += want is None
        assert members or fid in ("lam5", "lo0")

    def test_zero_slope_at_one_is_not_accepted(self):
        # expdecay's corner (2, 1) at m = 0.5 has slope d alpha - lam k x at
        # t = 1, 0 in reals at alpha = lam x k / d.  Its defect is then 0 to
        # second order at t = 1, so no slope test may clear [t0, 1]: the
        # frozen bisection accepts it within SLACK, and the certificate
        # leaves it undecided.
        M, lam, m = 0.5, 0.02, 0.5
        corners = corpus_mod._exp_decay_corners(M, lam, 1.0, 2.0, m)
        x, y, _, d, k, *_ = corner = corners[2]
        assert (x, y) == (2.0, 1.0)
        alpha = lam * x * k / d
        below = above = alpha
        nearby = [alpha]
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            nearby += [below, above]
        slopes = [d * a - lam * k * x for a in nearby]
        # in floats the slope at t = 1 is 0 or a few 1e-18 of either sign
        assert max(map(abs, slopes)) < 3e-17 and max(slopes) > 0.0 > min(slopes)
        for a in nearby:
            for t0 in (0.0, 0.5, 0.75, 1.0 - 2.0**-20):
                assert not corpus_mod._slope_positive([corner], lam, a, m, t0), (a, t0)
        assert not corpus_mod._slope_positive(corners, lam, alpha, m, 0.0)
        # a thousandth above alpha the slope test passes, a thousandth below not
        assert corpus_mod._slope_positive([corner], lam, alpha * 1.001, m, 0.0)
        assert not corpus_mod._slope_positive([corner], lam, alpha * 0.999, m, 0.0)
        assert corpus_mod._exp_decay_reason(M, lam, 1.0, 2.0, alpha, m) == (
            "supremum undecided after 4096 intervals")

    def test_crossing_just_below_a_midpoint(self):
        # expdecay at m = 0.5 and this alpha: the defect of corner (2, 1)
        # crosses 0 just below t = 0.5, where it is 6.9e-18.  Every
        # midpoint of [0, 0.5] between the crossing and 0.5 is within SLACK,
        # so a search that bisected [0, 0.5] to the end would never reach
        # the violation on [0.5, 1]: it is set aside instead.
        alpha, m = 0.046861582763366876, 0.5
        assert 0.0 < exp_decay_defect(0.5, 0.02, 1.0, 2.0, alpha, m, 0.5) < 1e-17
        want = (2.0, 1.0, 0.75)
        assert bisection_oracle.exp_decay_reason(0.5, 0.02, 1.0, 2.0, alpha, m) == want
        assert corpus_mod._exp_decay_reason(0.5, 0.02, 1.0, 2.0, alpha, m) == want

    def test_bound_within_rounding_does_not_clear(self):
        # M = 0.5, lam = 0.02 on [1, 7] at m = 1: corner (7, 7) has defect
        # 0 for every t in reals, and its float bound is -2.8e-17.
        corner = corpus_mod._exp_decay_corners(0.5, 0.02, 1.0, 7.0, 1.0)[3]
        assert (corner.x, corner.y, corner.d) == (7.0, 7.0, 0.0)
        for t0, t1 in ((0.0, 0.5), (0.125, 0.25), (0.5, 0.75)):
            upper, strict = corpus_mod._defect_bound([corner], 0.02, 0.5, 1.0, t0, t1)
            assert upper < 0.0 < strict, (t0, t1)
            assert corpus_mod._exp_decay_step([corner], 0.02, 0.5, 1.0, t0, t1, False) == (
                "bisect")

    def test_unbounded_slope_term_at_zero(self):
        # lam = 5, m = 0.95: corner (1, 2) has d < 0, so at t0 = 0 with
        # alpha < 1 its slope d alpha t^(alpha-1) has no lower bound, and
        # at alpha = 1 it is the constant d.
        corners = corpus_mod._exp_decay_corners(0.5, 5.0, 1.0, 2.0, 0.95)
        assert corners[1].d < 0.0
        for alpha in (0.5, 1.0):
            assert not corpus_mod._slope_positive(corners[1:2], 5.0, alpha, 0.95, 0.0)

    def test_builtin_default_pairs_take_one_interval_each(self, monkeypatch):
        # Each (alpha, m) of the default sweep that expdecay is a member at
        # is cleared on [0, 1] by the slope test alone.
        examined = []
        step = corpus_mod._exp_decay_step

        def counting(*args):
            examined.append(args[-3:-1])
            return step(*args)

        monkeypatch.setattr(corpus_mod, "_exp_decay_step", counting)
        spec = exp_decay_spec("expdecay", M=0.5, lam=0.02, lo=1.0, hi=2.0)
        pairs = list(itertools.product(DEFAULT_ALPHAS, DEFAULT_MS))
        assert len(pairs) == 12 and all(spec.member(alpha, m) for alpha, m in pairs)
        assert examined == [(0.0, 1.0)] * 12


class TestPowerDecayRounding:
    """The power-decay margin certifies only when it is at least a bound on
    its own rounding."""

    @staticmethod
    def _mp_margin(M, r, alpha, m):
        """`power_decay_margin` on [1, 2] at 50 digits, of the same floats."""
        with mp.workdps(50):
            M, r, alpha, m = map(mp.mpf, (M, r, alpha, m))
            worst = max(r * mp.log(2), -r * m * mp.log(2))
            return (1 - m) * -mp.log(abs(M)) - (1 - alpha) / alpha * worst

    def test_threshold_replay_certifies_no_false_claim(self):
        # 399 members M = 0.5, r = 0.041, ..., 0.439 on [1, 2], m cycling
        # through 0.25, ..., 0.85 from 0.35, each at the alpha where its
        # exact margin is 0, r / (r + 1 - m), and at its two float neighbours.
        # Each margin is within its bound, so none is certified.  The float
        # margin alone (>= 0.0) certified 689 of these 1,197 claims, 144 of
        # them with a negative 50-digit margin.
        for i in range(399):
            r, m = 0.041 + 0.001 * i, round(0.25 + 0.1 * ((i + 1) % 7), 2)
            threshold = r / (r + 1.0 - m)
            for alpha in (math.nextafter(threshold, 0.0), threshold,
                          math.nextafter(threshold, 1.0)):
                margin = power_decay_margin(0.5, r, 1.0, 2.0, alpha, m)
                bound = corpus_mod._power_decay_rounding(0.5, r, 1.0, 2.0, alpha, m)
                assert abs(margin - self._mp_margin(0.5, r, alpha, m)) <= bound, (r, m, alpha)
                assert corpus_mod._power_decay_reason(0.5, r, 1.0, 2.0, alpha, m) == (
                    f"margin {margin!r} is within its rounding bound {bound!r} of 0")

    def test_a_claim_certified_on_rounding(self):
        # A float margin of 0.0, and a 50-digit one of -2.4e-18.
        alpha, m, r = 0.059334298118668596, 0.35, 0.041
        assert power_decay_margin(0.5, r, 1.0, 2.0, alpha, m) == 0.0
        assert -2.5e-18 < self._mp_margin(0.5, r, alpha, m) < -2.3e-18
        bound = corpus_mod._power_decay_rounding(0.5, r, 1.0, 2.0, alpha, m)
        assert power_decay_spec("pd", M=0.5, r=r, lo=1.0, hi=2.0).certify(alpha, m) == (
            f"margin 0.0 is within its rounding bound {bound!r} of 0")

    def test_exact_zero_terms_have_no_rounding(self, corpus):
        # alpha = m = 1: both terms are exact zeros, so the margin 0.0 is
        # exact and certifies the geometric claim `set` needs.
        assert corpus_mod._power_decay_rounding(0.5, 0.04, 1.0, 2.0, 1.0, 1.0) == 0.0
        assert power_decay_margin(0.5, 0.04, 1.0, 2.0, 1.0, 1.0) == 0.0
        assert corpus["powdecay"].certify(1.0, 1.0) is None


class TestAuditFailures:
    def test_wrong_derivative_detected(self):
        spec = FunctionSpec(
            id="bad_deriv",
            f=lambda u: np.asarray(u, float) ** 2 / 4.0,
            fprime=lambda u: 0.9 * np.asarray(u, float) / 2.0,
            domain=(0.0, 2.0),
            M=1.0,
        )
        violations = audit(spec)
        assert any("finite difference" in v for v in violations)

    def test_understated_M_detected(self):
        # A family cannot understate its M, so this is built by hand.
        spec = FunctionSpec(
            id="lying",
            f=lambda u: 0.8 * np.asarray(u, float),
            fprime=lambda u: 0.8 * np.ones_like(np.asarray(u, float)),
            domain=(0.0, 1.0),
            M=0.1,
        )
        violations = audit(spec)
        assert any("exceeds declared M" in v for v in violations)

    def test_increasing_deriv_flag_detected(self):
        spec = FunctionSpec(
            id="grows",
            f=lambda u: np.asarray(u, float) ** 2 / 4.0,
            fprime=lambda u: np.asarray(u, float) / 2.0,
            domain=(0.0, 2.0),
            M=1.0,
        )
        violations = audit(spec)
        assert any("non-increasing" in v for v in violations)

    def test_large_values_pass_finite_difference(self):
        # The central difference's rounding grows with |f| / h: at an
        # intercept of 1e8 (1e12) it alone is 7e-4 (5.6), though f' is exact.
        for intercept in (1e8, 1e12, -1e12):
            assert audit(affine_spec("big", slope=0.5, intercept=intercept, lo=1.0, hi=2.0)) == []

    @pytest.mark.parametrize("intercept", [0.1, -3.0])
    def test_derivative_one_percent_off_detected(self, intercept):
        spec = affine_spec("a", slope=0.5, intercept=intercept, lo=1.0, hi=2.0)
        off = FunctionSpec(
            id="off",
            f=spec.f,
            fprime=lambda u: 1.01 * spec.fprime(u),
            domain=spec.domain,
            M=0.6,
        )
        assert audit(off) == ["finite difference disagrees with fprime: max err 0.005 > 1e-06"]

    def test_infinite_value_detected(self):
        # An inf f would make the rounding bound inf too.
        spec = FunctionSpec(
            id="inf",
            f=lambda u: np.where(np.asarray(u, float) > 1.5, np.inf, np.asarray(u, float)),
            fprime=lambda u: np.ones_like(np.asarray(u, float)),
            domain=(1.0, 2.0),
            M=1.0,
        )
        violations = audit(spec)
        assert any("finite difference" in v for v in violations)

    @pytest.mark.parametrize(
        "spec",
        [
            # The f a family would have with a nan intercept or offset; the
            # families reject those (TestSpecValidation), so built by hand.
            dataclasses.replace(affine_spec("a", slope=0.5, intercept=0.0, lo=1.0, hi=2.0),
                                f=lambda u: 0.5 * np.asarray(u, float) + np.nan),
            dataclasses.replace(power_decay_spec("p", M=0.5, r=0.5, lo=1.0, hi=2.0),
                                f=lambda u: np.nan + 0.5 * np.asarray(u, float) ** 0.5 / 0.5),
        ],
        ids=["affine-nan-intercept", "power-decay-nan-offset"],
    )
    def test_non_finite_values_detected(self, spec):
        # Every comparison with nan is False: a check written as
        # `value > bound` would let these through clean.
        assert audit(spec)


class TestClosedForms:
    """Each family's sup|f'| and monotone |f'| against the grid audit, which
    stays their independent oracle: with M declared at the closed-form
    supremum the audit is clean and its grid attains that supremum, and a
    declared M a hair below it cannot be built."""

    CASES = [
        *(("affine", dict(slope=slope, intercept=0.25, lo=lo, hi=lo + 1.5), abs(slope))
          for slope in (-1.0, -0.8, -0.3, 0.3, 0.8, 1.0) for lo in (0.0, 1.0)),
        *(("power_decay", dict(M=M, r=r, lo=lo, hi=lo + 1.0), abs(M) * lo ** -r)
          for M in (0.5, -0.5) for r in (0.0, 0.04, 0.5, 2.0) for lo in (1.0, 1.5)),
        *(("exp_decay", dict(M=M, lam=lam, lo=1.0, hi=2.0), abs(M))
          for M in (0.5, -0.5) for lam in (0.02, 1.0, 5.0)),
    ]

    @pytest.mark.parametrize(
        "family, params, sup", CASES,
        ids=[family + "".join(f"-{k}={v:g}" for k, v in params.items() if k != "hi")
             for family, params, _ in CASES],
    )
    def test_audit_agrees_with_closed_form(self, family, params, sup):
        spec = spec_from_family(family, "s", declared_M=sup, **params)
        assert audit(spec) == []
        xs = np.linspace(*spec.domain, 10_001)
        assert np.abs(spec.fprime(xs)).max() == pytest.approx(sup, rel=1e-15)
        with pytest.raises(DomainError, match=r"is below sup\|f'\| = "):
            spec_from_family(family, "s", declared_M=sup * (1 - 1e-9), **params)

    def test_M_above_sup_is_allowed(self):
        # It only weakens the bound.  The default M stays the parameter M
        # where lo > 1 puts sup|f'| = |M| lo^(-r) below it.
        assert power_decay_spec("p", M=0.5, r=0.5, lo=1.5, hi=2.0).M == 0.5
        assert affine_spec("a", slope=0.5, intercept=0.0, lo=1.0, hi=2.0,
                           declared_M=0.75).M == 0.75

    @pytest.mark.parametrize("r", [-0.5, -1e-12, float("nan")])
    def test_rising_derivative_cannot_be_built(self, r):
        with pytest.raises(DomainError, match=r"needs r >= 0 \(\|f'\| non-increasing\)"):
            power_decay_spec("p", M=0.5, r=r, lo=1.0, hi=2.0)


class TestSpecValidation:
    def test_bad_domain(self):
        with pytest.raises(DomainError):
            affine_spec("x", slope=1.0, intercept=0.0, lo=-1.0, hi=1.0)
        with pytest.raises(DomainError):
            affine_spec("x", slope=1.0, intercept=0.0, lo=1.0, hi=1.0)
        with pytest.raises(DomainError, match="lo < hi < inf"):
            affine_spec("x", slope=0.5, intercept=0.0, lo=1.0, hi=float("inf"))

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

    @pytest.mark.parametrize("family, params, name", [
        ("affine", dict(slope=0.8, intercept=float("nan")), "intercept"),
        ("affine", dict(slope=float("inf"), intercept=0.0), "slope"),
        ("constant", dict(value=float("-inf")), "value"),
        ("power_decay", dict(M=0.5, r=0.5, offset=float("nan")), "offset"),
        ("power_decay", dict(M=float("nan"), r=0.5), "M"),
        ("power_decay", dict(M=0.5, r=float("inf")), "r"),
        ("exp_decay", dict(M=0.5, lam=float("inf")), "lam"),
        ("exp_decay", dict(M=0.5, lam=0.02, offset=float("inf")), "offset"),
    ])
    def test_non_finite_parameter_rejected(self, family, params, name):
        # A nan intercept used to build, and fail only inside quadrature.
        with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
            spec_from_family(family, "x", lo=1.0, hi=2.0, **params)

    @pytest.mark.parametrize("lam", [0.0, -0.5, float("nan")])
    def test_exp_decay_needs_positive_lam(self, lam):
        # f divides by lam: lam = 0 would end in a ZeroDivisionError.
        with pytest.raises(DomainError, match=r"^lam > 0 required$"):
            exp_decay_spec("x", M=0.5, lam=lam, lo=1.0, hi=2.0)


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
