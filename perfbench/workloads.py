"""The benchmark's workloads: input generation, one timed pass, output check.

Each workload is run in a fresh interpreter per pass (see child.py), because
every CLI invocation pays the library's module-level caches (the
`mexp_integral` LRU, `_leggauss`) cold.  `setup` may import the library but
calls none of its functions; everything the library computes happens inside
`run`, which is the timed pass.  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# Acceptance criterion 1's bound on the identity residual.
RESIDUAL_BOUND = 1e-8

_TUPLE_KEYS = ("theorem", "function", "x", "mu", "alpha", "m", "q", "u", "holds")


def verdict_digest(verdicts) -> str:
    """SHA-256 over the ordered (theorem, function, x, mu, alpha, m, q, u,
    holds) tuples of a report's verdicts."""
    h = hashlib.sha256()
    for v in verdicts:
        h.update(json.dumps([v[k] for k in _TUPLE_KEYS]).encode())
        h.update(b"\n")
    return h.hexdigest()


class Sweep:
    """`ostrowski-frac sweep --output FILE [--config FILE]`, run in-process."""

    ops_per_pass = 1  # one sweep; it fails as a whole

    def __init__(self, name: str):
        self.name = name

    def config_text(self, seed: int) -> str | None:
        return None

    def expected_digest(self, seed: int) -> str:
        return REFERENCE[self.name]["tuples_sha256"]

    def setup(self, seed: int, workdir: Path) -> dict:
        from ostrowski_frac import cli  # noqa: F401  (import is part of set-up)

        argv = ["sweep", "--output", str(workdir / "report.json")]
        text = self.config_text(seed)
        if text is not None:
            cfg = workdir / "sweep.cfg"
            cfg.write_text(text)
            argv += ["--config", str(cfg)]
        return {"argv": argv, "seed": seed, "output": workdir / "report.json"}

    def run(self, state: dict):
        from ostrowski_frac import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(state["argv"]), err.getvalue()

    def check(self, state: dict, result) -> dict:
        rc, stderr = result
        raw = state["output"].read_bytes()
        verdicts = json.loads(raw)["verdicts"]
        got = verdict_digest(verdicts)
        want = self.expected_digest(state["seed"])
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc}: {stderr.strip()[-300:]}")
        if got != want:
            errors.append(f"verdict tuples sha256 {got} != reference {want}")
        return {
            "items": len(verdicts),
            "verdicts": len(verdicts),
            "failed": 1 if errors else 0,
            "errors": errors,
            "report_sha256": hashlib.sha256(raw).hexdigest(),
            "tuples_sha256": got,
        }


class DenseSweep(Sweep):
    """t22 and set on the whole corpus at 99 seeded x-fractions and small mu."""

    MUS = (0.1, 0.25, 0.5, 1.0, 1.5, 2.5)

    @staticmethod
    def x_fracs(seed: int) -> list[float]:
        import numpy as np

        # One draw in each bin of width 0.01 across [0.005, 0.995].
        u = np.random.default_rng(seed).uniform(size=99)
        return [float(v) for v in 0.005 + (np.arange(99) + u) * 0.01]

    def config_text(self, seed: int) -> str:
        return (
            "theorems = t22,set\n"
            f"x_fracs = {','.join(repr(v) for v in self.x_fracs(seed))}\n"
            f"mu = {','.join(repr(v) for v in self.MUS)}\n"
            "alpha = 1\n"
            "m = 0.5\n"
            "q = 1\n"
        )

    def expected_digest(self, seed: int) -> str:
        """Digest of the verdicts the config must produce, all holding.

        The reference records which corpus functions each theorem applies to,
        with their domains and the (alpha, m, q, u) the sweep reports, so the
        expected tuples follow for any seed.
        """
        ref = REFERENCE[self.name]
        xs = self.x_fracs(seed)
        expected = []
        for fid, lo, hi, theorems in ref["functions"]:
            for theorem in theorems:
                alpha, m, q, u = ref["params"][theorem]
                for frac_x in xs:
                    x = lo + frac_x * (hi - lo)
                    for mu in self.MUS:
                        expected.append(dict(zip(
                            _TUPLE_KEYS, (theorem, fid, x, mu, alpha, m, q, u, True))))
        return verdict_digest(expected)


class IdentityBatch:
    """200 `lemma_identity_residual` calls per corpus function on seeded
    windows, drawn the way acceptance criterion 1 draws them."""

    name = "identity-batch"
    per_function = 200
    functions = 6
    ops_per_pass = per_function * functions

    def setup(self, seed: int, workdir: Path) -> dict:
        import numpy as np

        from ostrowski_frac import corpus, fracint, verify  # noqa: F401

        # Windows are drawn in unit coordinates and mapped onto each
        # function's domain inside the timed pass, so set-up calls nothing
        # in the library.
        rng = np.random.default_rng(seed)
        draws = []
        for _ in range(self.functions):
            rows = []
            while len(rows) < self.per_function:
                a, x, b = np.sort(rng.uniform(0.0, 1.0, size=3))
                if b - a < 1e-2:
                    continue
                rows.append((float(a), float(x), float(b), float(rng.uniform(0.2, 3.0))))
            draws.append(rows)
        return {"draws": draws}

    def run(self, state: dict):
        from ostrowski_frac import corpus, fracint, verify

        results = []
        for spec, rows in zip(corpus.builtin_corpus(), state["draws"]):
            lo, hi = spec.domain
            w = hi - lo
            for a, x, b, mu in rows:
                try:
                    frac = fracint.FracParams(lo + a * w, lo + b * w, lo + x * w, mu)
                    results.append(verify.lemma_identity_residual(spec, frac))
                except Exception as exc:  # a raising call is a failed operation
                    results.append(exc)
        return results

    def check(self, state: dict, results) -> dict:
        ok = [r for r in results if isinstance(r, float) and r <= RESIDUAL_BOUND]
        errors = [repr(r) for r in results if isinstance(r, Exception)][:3]
        worst = max((r for r in results if isinstance(r, float)), default=float("nan"))
        if worst > RESIDUAL_BOUND:
            errors.append(f"worst residual {worst:.3g} > {RESIDUAL_BOUND:g}")
        if len(results) != self.ops_per_pass:
            errors.append(f"{len(results)} residuals, expected {self.ops_per_pass}")
        return {
            "items": len(ok),
            "verdicts": 0,
            "failed": self.ops_per_pass - len(ok),
            "errors": errors,
            "worst_residual": worst,
        }


WORKLOADS = {
    "default-sweep": Sweep("default-sweep"),
    "quad-dense": DenseSweep("quad-dense"),
    "identity-batch": IdentityBatch(),
}
