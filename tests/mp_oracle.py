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


# The builtin corpus as its families build it: (family, parameters) per id.
CORPUS = {
    "linear": ("affine", {"slope": 1.0, "intercept": 0.0}),
    "affine08": ("affine", {"slope": 0.8, "intercept": 0.1}),
    "const1": ("constant", {"value": 1.0}),
    "const2": ("constant", {"value": 2.0}),
    "powdecay": ("power_decay", {"M": 0.5, "r": 0.04, "offset": 0.1}),
    "expdecay": ("exp_decay", {"M": 0.5, "lam": 0.02, "lo": 1.0, "offset": 1.0}),
}


def family_f(family: str, params: dict):
    """f of a family member as an mpmath function."""
    p = {k: mp.mpf(v) for k, v in params.items()}
    if family == "affine":
        return lambda t: p["slope"] * t + p["intercept"]
    if family == "constant":
        return lambda t: p["value"]
    if family == "power_decay":
        return lambda t: p["offset"] + p["M"] * t ** (1 - p["r"]) / (1 - p["r"])
    if family == "exp_decay":
        return lambda t: p["offset"] - p["M"] / p["lam"] * mp.exp(-p["lam"] * (t - p["lo"]))
    raise KeyError(family)


def rl(family: str, params: dict, anchor: float, end: float, mu: float):
    """(1/Gamma(mu)) int |t-c|^(mu-1) f(t) dt between the anchor c and end,
    in closed form: with d = end - c, h = |d| and t = c + d u it is
    h^mu/Gamma(mu) int_0^1 u^(mu-1) f(c + d u) du, where

      affine f = s t + i:          (s c + i)/mu + s d/(mu+1);
      power decay, p = 1 - r:      offset/mu + M/p c^p/mu 2F1(-p, mu; mu+1; -d/c);
      exp decay:                   offset/mu
                                   - M/lam e^(-lam(c-lo))/mu 1F1(mu; mu+1; -lam d)

    (Euler's integral for 2F1 and 1F1 with b = mu, c = mu + 1)."""
    with mp.workdps(DPS):
        c, mu = mp.mpf(anchor), mp.mpf(mu)
        d = mp.mpf(end) - c
        unit = abs(d) ** mu / mp.gamma(mu + 1)  # the fractional integral of f = 1
        p = {k: mp.mpf(v) for k, v in params.items()}
        if family == "constant":
            return p["value"] * unit
        if family == "affine":
            s, i = p["slope"], p["intercept"]
            return unit * ((s * c + i) + s * d * mu / (mu + 1))
        if family == "power_decay":
            q = 1 - p["r"]
            return unit * (p["offset"] + p["M"] / q * c**q * mp.hyp2f1(-q, mu, mu + 1, -d / c))
        if family == "exp_decay":
            lam = p["lam"]
            decay = mp.exp(-lam * (c - p["lo"])) * mp.hyp1f1(mu, mu + 1, -lam * d)
            return unit * (p["offset"] - p["M"] / lam * decay)
        raise KeyError(family)


def rl_quad(family: str, params: dict, anchor: float, end: float, mu: float):
    """`rl` by quadrature: after u = w^(1/mu), h^mu/Gamma(mu+1) times
    int_0^1 f(c + d w^(1/mu)) dw, whose integrand is bounded."""
    with mp.workdps(DPS):
        c, mu = mp.mpf(anchor), mp.mpf(mu)
        d = mp.mpf(end) - c
        f = family_f(family, params)
        return abs(d) ** mu / mp.gamma(mu + 1) * mp.quad(lambda w: f(c + d * w ** (1 / mu)), [0, 1])


def cheb_moment(mu: float, k: int):
    """int_-1^1 (1+x)^(mu-1) T_k(x) dx = 2^mu 3F2(-k, k, 1; 1/2, mu+1; 1) / mu,
    a terminating series (T_k(x) = 2F1(-k, k; 1/2; (1-x)/2), integrated term
    by term against the Beta integral)."""
    with mp.workdps(DPS):
        mu = mp.mpf(mu)
        # zeroprec: the odd moments vanish at mu = 1.
        return 2**mu * mp.hyp3f2(-k, k, 1, mp.mpf(1) / 2, mu + 1, 1, zeroprec=400) / mu
