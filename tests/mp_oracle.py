"""The printed right-hand sides and the kernel integral in mpmath at 40
digits: an oracle for `bounds` and `fracint.mexp_integral` that shares none
of their code.  Float inputs convert to mpf exactly, so each value is the
printed formula at exactly the parameters a verdict used.

Every printed RHS is a factor of the parameter point times a factor of
(a, b, x, mu); both are cached, since a sweep has few distinct points and
few distinct windows."""

from functools import lru_cache

import mpmath as mp

DPS = 40


def _kernel(lam, mu):
    """int_0^1 t^mu e^(-lam t) dt = gammainc(mu+1, 0, lam) / lam^(mu+1)."""
    if lam == 0:
        return 1 / (mu + 1)
    return mp.gammainc(mu + 1, 0, lam) / lam ** (mu + 1)


def mexp(c: float, mu: float):
    """int_0^1 t^mu c^t dt."""
    with mp.workdps(DPS):
        return _kernel(-mp.log(mp.mpf(c)), mp.mpf(mu))


@lru_cache(maxsize=None)
def _point_factor(theorem, M, alpha, m, q, mu, u, v):
    """The RHS of `theorem` divided by `_window_factor`."""
    with mp.workdps(DPS):
        M, alpha, m, q, mu = map(mp.mpf, (M, alpha, m, q, mu))
        e = q * alpha * (1 - m)  # c = M^e
        lc = e * mp.log(M)  # ln c
        if theorem == "t22":
            return M**m * _kernel(-alpha * (1 - m) * mp.log(M), mu)
        if theorem == "t24":
            p = q / (q - 1)
            mean = (M**e - 1) / lc
            return M**m * (1 / (p * mu + 1)) ** (1 / p) * mean ** (1 / q)
        if theorem == "t26":
            return M**m * (1 / (mu + 1)) ** (1 - 1 / q) * _kernel(-lc, mu) ** (1 / q)
        if theorem == "set":
            return M / (mu + 1)
        if theorem == "mu1":
            bracket = (M**e - 1) / lc * (1 - 1 / lc)
            return M**m * 2 ** (1 / q) * bracket ** (1 / q)
        if theorem in ("mm", "remark_q1"):
            u, v = mp.mpf(u), mp.mpf(v)
            inner = u**2 / (mu + u) + v**2 * (M ** (e / v) - 1) / lc
            return M**m * (1 / (mu + 1)) ** (1 - 1 / q) * inner ** (1 / q)
        raise KeyError(theorem)


@lru_cache(maxsize=None)
def _window_factor(mu1, a, b, x, mu):
    """((x-a)^2 + (b-x)^2) / (2(b-a)) for mu1, else the geometry factor
    ((x-a)^(mu+1) + (b-x)^(mu+1)) / (b-a)."""
    with mp.workdps(DPS):
        a, b, x, mu = map(mp.mpf, (a, b, x, mu))
        if mu1:
            return ((x - a) ** 2 + (b - x) ** 2) / (2 * (b - a))
        return ((x - a) ** (mu + 1) + (b - x) ** (mu + 1)) / (b - a)


def rhs(rec: dict):
    """The printed RHS of the theorem a report record names, at its
    parameters."""
    theorem = rec["theorem"]
    point = _point_factor(theorem, *(rec[k] for k in ("M", "alpha", "m", "q", "mu", "u", "v")))
    window = _window_factor(theorem == "mu1", *(rec[k] for k in ("a", "b", "x", "mu")))
    with mp.workdps(DPS):
        return point * window


def rel_err(got: float, want) -> float:
    """|got - want| / |want| as a float."""
    with mp.workdps(DPS):
        return float(abs((mp.mpf(got) - want) / want))
