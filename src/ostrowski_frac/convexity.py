"""The two pointwise auxiliary lemmas the theorems' proofs use, and the
relative slack of every floating-point check of an inequality.

g is (alpha, m)-geometrically convex on [lo, hi] when
g(x^t y^(m(1-t))) <= g(x)^(t^alpha) g(y)^(m(1-t^alpha)) for x, y in
[lo, hi] and t in [0, 1]; alpha = 1 gives m-geometric convexity and
alpha = m = 1 geometric convexity.  Each corpus family decides that claim
with a certificate (`corpus`), which names a witness (x, y, t) when it
rejects one.  Each certifies only by a bound that clears its own
rounding (Higham's gamma_n), with no slack, and leaves a claim within
rounding undecided: power decay's closed-form margin at its threshold
(M = 0.5, r = 0.041 on [1, 2] at alpha = 0.059334298118668596, m = 0.35:
a float margin of 0.0, a 50-digit one of -2.4e-18), or an exp-decay
defect whose slope at t = 1 is 0.  The exp-decay certificate uses
`SLACK` only to order its search and to keep a witness clear of
rounding.  A sampled grid of the inequality is the
certificates' test oracle, not part of the library.
"""

from __future__ import annotations

# Relative floating-point tolerance of every check here: lhs <= rhs passes
# when lhs <= rhs + SLACK * max(1, |rhs|).
SLACK = 1e-12


def check_gm_lemma(x: float, y: float, m: float, t: float) -> bool:
    """x^t y^(m(1-t)) <= t x + (1-t) y, up to floating-point slack.

    Total for x, y >= 0 and m, t in (0, 1]; always true under the lemma's
    hypotheses x < y, y >= 1.
    """
    lhs = x**t * y ** (m * (1.0 - t))
    rhs = t * x + (1.0 - t) * y
    return bool(lhs <= rhs + SLACK * max(1.0, abs(rhs)))


def check_power_lemma(lam: float, u: float, v: float) -> bool:
    """lam^(u^v) <= lam^(u v) for 0 < lam <= 1 and u, v in (0, 1]."""
    lhs = lam ** (u**v)
    rhs = lam ** (u * v)
    return bool(lhs <= rhs + SLACK * max(1.0, abs(rhs)))
