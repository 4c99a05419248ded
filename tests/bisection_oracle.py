"""A frozen copy of the exp-decay certificate that the slope test replaced:
interval bisection of the corner defect over t in [0, 1], accepting an
interval whose bound is within `convexity.SLACK` of 0, here with no
interval budget.

It is a test oracle, independent of `corpus`: the certificate must give
the same answer (None, or the same witness) wherever this one decides.
Every corner's defect is 0 at t = 1, so near 1 it stops only by the slack:
the builtin member's 12 certified default (alpha, m) pairs take 912
intervals.
"""

from __future__ import annotations

import math

from ostrowski_frac.convexity import SLACK


def _corners(M, lam, lo, hi, m):
    """(x, y, c, d) per box corner: the defect over q at t is
    c + d t^alpha - lam x^t y^(m(1-t))."""
    L = math.log(abs(M))
    out = []
    for x in (lo, hi):
        for y in (lo, hi):
            A = (1.0 - m) * L + lam * m * (y - lo)
            out.append((x, y, A + lam * lo, lam * (x - lo) - A))
    return out


def _worst(corners, lam, alpha, m, t):
    """(defect, x, y): the largest corner defect at t and its corner."""
    s = t**alpha
    return max(((c + d * s - lam * (x**t * y ** (m * (1.0 - t))), x, y)
                for x, y, c, d in corners),
               key=lambda corner: corner[0])


def exp_decay_reason(M, lam, lo, hi, alpha, m):
    """None if the largest corner defect is <= SLACK for every t in [0, 1],
    otherwise the witness (x, y, t) at the midpoint where the left-first
    bisection first finds a defect above SLACK."""
    corners = _corners(M, lam, lo, hi, m)

    def bound(t0, t1):
        s0, s1 = t0**alpha, t1**alpha
        return max(
            c + max(d * s0, d * s1)
            - lam * min(x**t0 * y ** (m * (1.0 - t0)), x**t1 * y ** (m * (1.0 - t1)))
            for x, y, c, d in corners
        )

    work = [(0.0, 1.0)]
    while work:
        t0, t1 = work.pop()
        if bound(t0, t1) <= SLACK:
            continue
        mid = 0.5 * (t0 + t1)
        defect, x, y = _worst(corners, lam, alpha, m, mid)
        if defect > SLACK:
            return (x, y, mid)
        work += [(mid, t1), (t0, mid)]
    return None
