import numpy as np
import pytest

from ostrowski_frac.convexity import (
    Counterexample,
    GridSpec,
    check_gm_lemma,
    check_membership,
    check_power_lemma,
)
from ostrowski_frac.corpus import builtin_corpus
from ostrowski_frac.fracint import DomainError

GRID = GridSpec(points_per_axis=21, t_steps=21)


class TestKindValidation:
    """The (alpha, m) pair that names a class is checked on entry."""

    def test_alpha_required(self):
        with pytest.raises(DomainError, match="alpha in"):
            check_membership(np.exp, (0.1, 3.0), 0.0, 0.5, GRID)
        with pytest.raises(DomainError, match="alpha in"):
            check_membership(np.exp, (0.1, 3.0), 1.5, 0.5, GRID)

    def test_m_required(self):
        with pytest.raises(DomainError, match="m in"):
            check_membership(np.exp, (0.1, 3.0), m=0.0)
        with pytest.raises(DomainError, match="m in"):
            check_membership(np.exp, (0.1, 3.0), m=float("nan"))

    def test_effective_defaults(self):
        # absent alpha and m are 1: geometric convexity
        g = lambda u: np.exp(-np.asarray(u, dtype=float))
        ce = check_membership(g, (0.5, 2.0), grid=GRID)
        assert ce is not None
        assert ce == check_membership(g, (0.5, 2.0), 1.0, 1.0, GRID)
        assert check_membership(g, (0.5, 2.0), m=0.5, grid=GRID) == check_membership(
            g, (0.5, 2.0), 1.0, 0.5, GRID
        )


class TestMembership:
    def test_square_is_convex(self):
        # u^2 is log-linear in log u: geometrically convex, with equality
        g = lambda u: np.asarray(u, dtype=float) ** 2
        assert check_membership(g, (0.5, 2.0), grid=GRID) is None

    def test_exp_is_geom_convex(self):
        assert check_membership(np.exp, (0.1, 3.0), grid=GRID) is None

    def test_small_constant_passes_every_geometric_kind(self):
        for M in (0.3, 1.0):
            g = lambda u: M * np.ones_like(np.asarray(u, dtype=float))
            for alpha, m in ((1.0, 1.0), (1.0, 0.5), (0.5, 0.5)):
                assert check_membership(g, (0.5, 2.0), alpha, m, GRID) is None

    def test_sqrt_fails_convexity_with_lex_smallest_witness(self):
        # sqrt(x^t y^(1-t)) = sqrt(x)^t sqrt(y)^(1-t), but t^alpha > t for
        # alpha < 1 tilts the right side below it wherever x < y
        g = lambda u: np.sqrt(u)
        ce = check_membership(g, (0.5, 4.0), 0.5, 1.0, GRID)
        assert isinstance(ce, Counterexample)
        assert ce.lhs > ce.rhs
        # independent scan: no violating triple strictly precedes the reported one
        xs = np.linspace(0.5, 4.0, GRID.points_per_axis)
        ts = np.linspace(0.0, 1.0, GRID.t_steps)
        for x in xs:
            for y in xs:
                for t in ts:
                    lhs = np.sqrt(x**t * y ** (1 - t))
                    s = t**0.5
                    rhs = np.sqrt(x) ** s * np.sqrt(y) ** (1 - s)
                    if lhs > rhs + 1e-12 * max(1.0, abs(rhs)):
                        assert (x, y, t) == (ce.x, ce.y, ce.t)
                        return
        pytest.fail("scan found no counterexample")

    def test_deterministic(self):
        g = lambda u: np.sqrt(u)
        a = check_membership(g, (0.5, 4.0), 0.5, 1.0, GRID)
        b = check_membership(g, (0.5, 4.0), 0.5, 1.0, GRID)
        assert a is not None and a == b

    def test_coarser_subgrid_monotonicity(self):
        # passing on a grid implies passing on grids whose points are a subset
        fine = GridSpec(points_per_axis=41, t_steps=41)
        coarse = GridSpec(points_per_axis=21, t_steps=21)  # subset of 41 points
        g = lambda u: 0.5 * u ** (-0.04)
        assert check_membership(g, (1.0, 2.0), 0.5, 0.5, fine) is None
        assert check_membership(g, (1.0, 2.0), 0.5, 0.5, coarse) is None

    def test_nonpositive_g_rejected_for_geometric(self):
        g = lambda u: np.asarray(u, dtype=float) - 1.0
        with pytest.raises(DomainError):
            check_membership(g, (0.0, 2.0), grid=GRID)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.5)])
    def test_non_finite_g_rejected(self, kind, bad):
        # Comparisons with nan are False: without the check nan passes every
        # class, and one non-finite value anywhere on the grid is enough.
        # (-inf fails the g > 0 check first.)
        g = lambda u: np.where(np.asarray(u) == 2.0, bad, 1.0 + np.asarray(u) ** 2)
        with pytest.raises(DomainError, match="^g not finite on the grid$"):
            check_membership(g, (1.0, 2.0), *kind, GRID)

    def test_hull_excursion_rejected(self):
        # geometric m-combinations reach lo^m < lo when lo > 1
        g = lambda u: np.asarray(u, dtype=float) ** 2
        with pytest.raises(DomainError, match="combination points leave"):
            check_membership(g, (1.5, 2.5), 1.0, 0.5, GRID, g_domain=(1.5, 2.5))

    def test_empty_or_negative_domain_rejected(self):
        with pytest.raises(DomainError):
            check_membership(np.exp, (2.0, 2.0), grid=GRID)
        with pytest.raises(DomainError):
            check_membership(np.exp, (-1.0, 2.0), grid=GRID)


def _dense_check_membership(g, domain, alpha, m, grid, g_domain=None):
    """Reference for `check_membership`: the same computation on three dense
    (x, y, t) arrays.  Kept frozen as an independent oracle."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha in (0, 1] required")
    if not 0.0 < m <= 1.0:
        raise DomainError("m in (0, 1] required")
    lo, hi = domain
    if lo < 0:
        raise DomainError("domain must satisfy lo >= 0")
    if not lo < hi:
        raise DomainError("empty domain")

    xs = np.linspace(lo, hi, grid.points_per_axis)
    ts = np.linspace(0.0, 1.0, grid.t_steps)
    X, Y, T = np.meshgrid(xs, xs, ts, indexing="ij")

    with np.errstate(divide="ignore"):
        pts = X**T * Y ** (m * (1.0 - T))
    gx = np.asarray(g(X), dtype=float)
    gy = np.asarray(g(Y), dtype=float)
    if np.any(gx <= 0.0) or np.any(gy <= 0.0):
        raise DomainError("geometric kinds require g > 0 on the grid")
    gpts = np.asarray(g(pts), dtype=float)
    if np.any(gpts <= 0.0):
        raise DomainError("g non-positive at a combination point")
    lhs = gpts
    ta = T**alpha
    rhs = gx**ta * gy ** (m * (1.0 - ta))

    if g_domain is not None:
        dlo, dhi = g_domain
        if pts.min() < dlo - 1e-12 or pts.max() > dhi + 1e-12:
            raise DomainError(
                f"combination points leave g's domain: needed "
                f"[{pts.min():.6g}, {pts.max():.6g}], have [{dlo:.6g}, {dhi:.6g}]"
            )

    tol = grid.slack * np.maximum(1.0, np.abs(rhs))
    viol = lhs > rhs + tol
    if not viol.any():
        return None
    i, j, k = np.unravel_index(int(np.argmax(viol)), viol.shape)
    return Counterexample(
        x=float(xs[i]),
        y=float(xs[j]),
        t=float(ts[k]),
        lhs=float(lhs[i, j, k]),
        rhs=float(rhs[i, j, k]),
    )


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except DomainError as exc:
        return f"DomainError: {exc}"


ORACLE_PARAMS = (0.25, 0.5, 0.75, 1.0)
# (alpha, m) pairs: alpha = 1 is m-geometric, alpha = m = 1 geometric convexity.
ORACLE_KINDS = [(a, m) for a in ORACLE_PARAMS for m in ORACLE_PARAMS]
# A dense 41^3 check costs ~10x a 21^3 one, so the fine grid takes one pair
# of each class, with alpha and m away from 1, instead of all 16.
ORACLE_GRIDS = (
    (GridSpec(21, 21), ORACLE_KINDS),
    (GridSpec(5, 7), ORACLE_KINDS),
    (GridSpec(41, 41), [(1.0, 1.0), (1.0, 0.25), (0.75, 0.5)]),
)


def _builtin_cases():
    for spec in builtin_corpus():
        for q in (1.0, 1.5, 2.0, 3.0):
            def gq(u, spec=spec, q=q):
                return np.abs(np.asarray(spec.fprime(u), dtype=float)) ** q

            yield f"{spec.id}-q{q:g}", gq, spec.domain, spec.domain


ORACLE_CASES = list(_builtin_cases()) + [
    ("sqrt", np.sqrt, (0.0, 4.0), None),  # violates convexity; g(0) = 0
    ("sqrt-positive", np.sqrt, (0.5, 4.0), (0.0, 4.0)),
    ("one-plus-cos3u", lambda u: 1.0 + np.cos(3.0 * u), (0.1, 3.0), None),
    ("u-minus-1", lambda u: np.asarray(u, dtype=float) - 1.0, (0.0, 2.0), None),
    ("square-excursion", lambda u: np.asarray(u, dtype=float) ** 2, (1.5, 2.5), (1.5, 2.5)),
    ("exp", np.exp, (0.1, 3.0), (0.0, 3.0)),
    ("reciprocal", lambda u: 1.0 / u, (0.5, 2.0), (0.25, 2.0)),
]


class TestSparseGridMatchesDenseOracle:
    """The sparse grid evaluates each operand once per grid value; the
    verdict, counterexample and DomainError must equal the dense grid's."""

    @pytest.mark.parametrize("grid, kinds", ORACLE_GRIDS, ids=["21x21", "5x7", "41x41"])
    @pytest.mark.parametrize(
        "name, g, domain, g_domain", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES]
    )
    def test_equal_to_dense(self, name, g, domain, g_domain, grid, kinds):
        for alpha, m in kinds:
            want = _outcome(_dense_check_membership, g, domain, alpha, m, grid, g_domain)
            got = _outcome(check_membership, g, domain, alpha, m, grid, g_domain)
            assert got == want, (name, alpha, m)

    def test_cases_cover_pass_fail_and_both_errors(self):
        seen = set()
        for name, g, domain, g_domain in ORACLE_CASES:
            for alpha, m in ORACLE_KINDS:
                out = _outcome(check_membership, g, domain, alpha, m, GRID, g_domain)
                seen.add(out if isinstance(out, str) else type(out).__name__)
        assert {"NoneType", "Counterexample"} <= seen
        assert "DomainError: geometric kinds require g > 0 on the grid" in seen
        assert any(s.startswith("DomainError: combination points leave") for s in seen)


class TestGmLemma:
    def test_examples(self):
        assert check_gm_lemma(0.5, 2.0, 1.0, 0.5)  # 1 <= 1.25
        assert check_gm_lemma(1.0, 1.0, 0.3, 0.7)  # equality point
        assert check_gm_lemma(0.0, 1.5, 0.5, 0.5)  # 0^t = 0

    def test_hypothesis_grid(self):
        # brute-force sweep of the hypothesis region x < y, y >= 1
        ys = np.linspace(1.0, 5.0, 20)
        fracs = np.linspace(0.0, 1.0, 20, endpoint=False)
        mts = np.linspace(0.0, 1.0, 21)[1:]
        for y in ys:
            for fx in fracs:
                x = fx * y
                for m in mts:
                    for t in mts:
                        assert check_gm_lemma(x, y, m, t)


class TestPowerLemma:
    def test_examples(self):
        assert check_power_lemma(1.0, 0.3, 0.8)
        assert check_power_lemma(0.5, 0.25, 0.5)

    def test_box_grid(self):
        vals = np.linspace(0.0, 1.0, 21)[1:]
        for lam in vals:
            for u in vals:
                for v in vals:
                    assert check_power_lemma(lam, u, v)
