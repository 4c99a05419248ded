import collections
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import grid_oracle
import pytest
import sweep_oracle

from ostrowski_frac import bounds as bnd
from ostrowski_frac import cli as cli_mod
from ostrowski_frac import report as report_mod
from ostrowski_frac.bounds import BoundParams, geometry_factor
from ostrowski_frac.cli import main
from ostrowski_frac.fracint import ConvergenceError, DomainError, FracParams
from ostrowski_frac.report import (
    ConfigError,
    SweepConfig,
    Verdicts,
    parse_config,
    render_report,
    report_chunks,
    resolve_corpus,
    run_sweep,
    verdict_rows,
)
from ostrowski_frac.verify import THEOREMS, HypothesisError, _check_hypotheses, ostrowski_lhs

# x = a and x = b leave one fractional integral empty; const1 is in no
# convexity class, so no theorem applies to it.
BATCH_SWEEP = """\
functions = linear,const1,powdecay,expdecay
theorems = t22,set,mu1,t26
x_fracs = 0.0,0.35,1.0,0.8
mu = 0.25,1.0,2.5
alpha = 0.5,1.0
m = 0.5
q = 1.0
"""

SMALL_SWEEP = """\
# fast grid for tests
functions = powdecay,const1
theorems = t22,t26,mm
x_fracs = 0.25,0.75
mu = 0.5,1.0
alpha = 0.5,1.0
m = 0.5
q = 1.0,2.0
"""

# The dense stress config: t22 and set on the whole corpus at 99
# x-fractions and small mu.
DENSE_SWEEP = (
    "theorems = t22,set\n"
    "x_fracs = " + ",".join(f"{0.005 + 0.01 * i:.3f}" for i in range(99)) + "\n"
    "mu = 0.1,0.25,0.5,1.0,1.5,2.5\nalpha = 1\nm = 0.5\nq = 1\n"
)

# quad-dense's grid: t22 and set at small mu, x-fractions drawn one per bin.
QUAD_DENSE_SWEEP = (
    "theorems = t22,set\n"
    "x_fracs = " + ",".join(
        repr(0.005 + 0.03 * (k + float(u)))
        for k, u in enumerate(np.random.default_rng(7).uniform(size=33))) + "\n"
    "mu = 0.1,0.25,0.5,1,1.5,2.5\nalpha = 1\nm = 0.5\nq = 1\n"
)


class TestFracIntCommand:
    def test_lower_value(self, capsys):
        rc = main(["frac-int", "--f", "const1", "--a", "0", "--x", "1", "--mu", "0.5"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1.1283791670955126"

    def test_upper_flag(self, capsys):
        rc = main(
            ["frac-int", "--f", "const1", "--b", "1", "--x", "0", "--mu", "0.5",
             "--upper"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1.1283791670955126"

    def test_unknown_function_exits_2(self, capsys):
        rc = main(["frac-int", "--f", "nope", "--a", "0", "--x", "1", "--mu", "0.5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_domain_exits_2(self, capsys):
        rc = main(["frac-int", "--f", "const1", "--a", "1", "--x", "1", "--mu", "0.5"])
        assert rc == 2

    def test_ends_default_to_the_domain(self, capsys):
        # expdecay lives on [1, 2]: a default a = 0 integrated outside it.
        for given, default in (
            (["--a", "1"], []),
            (["--b", "2", "--upper"], ["--upper"]),
        ):
            values = []
            for extra in (given, default):
                assert main(["frac-int", "--f", "expdecay", "--x", "1.5", "--mu", "0.5",
                             *extra]) == 0
                values.append(capsys.readouterr().out)
            assert values[0] == values[1]

    @pytest.mark.parametrize("extra", [
        ["--a", "-1"], ["--a", "0.5"], ["--b", "2.5", "--upper"], ["--a", "nan"],
    ])
    def test_interval_outside_the_domain_exits_2(self, capsys, extra):
        rc = main(["frac-int", "--f", "powdecay", "--x", "1.5", "--mu", "0.5", *extra])
        assert rc == 2
        assert "outside domain of 'powdecay'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, flag", [
        (["--a", "1.2", "--upper"], "--a"), (["--b", "1.8"], "--b"),
    ])
    def test_unread_end_exits_2(self, capsys, extra, flag):
        # The left-sided integral reads only --a, the right-sided one only
        # --b: the other end must not be dropped silently.
        rc = main(["frac-int", "--f", "powdecay", "--x", "1.5", "--mu", "0.5", *extra])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"{flag} not used" in captured.err


class TestCheckConvexityCommand:
    def test_pass(self, capsys):
        rc = main(
            ["check-convexity", "--f", "powdecay", "--alpha", "0.5", "--m", "0.5",
             "--q", "2"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "pass"

    def test_non_finite_g_exits_2(self, capsys):
        # |f'|^nan is nan everywhere, and every comparison with nan is False:
        # q is checked before the certificate answers.
        rc = main(
            ["check-convexity", "--f", "powdecay", "--alpha", "0.5", "--m", "0.5",
             "--q", "nan"]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: q must be finite and > 0\n"

    @pytest.mark.parametrize("fid", ["const1", "const2"])
    def test_constant_is_rejected_by_its_certificate(self, capsys, fid):
        # g = |f'|^q = 0: the certificate rejects every claim, with no
        # witness, since no geometric kind admits g = 0.
        assert main(["check-convexity", "--f", fid]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "FAIL: not a member by its certificate; geometric kinds require g > 0\n")
        assert captured.err == ""
        # A q that is not finite still exits 2.
        assert main(["check-convexity", "--f", fid, "--q", "nan"]) == 2
        assert capsys.readouterr().err == "error: q must be finite and > 0\n"

    def test_counterexample_exits_1(self, capsys):
        # alpha and m default to 1: expdecay's |f'| is not geometrically
        # convex (by AM-GM), so its certificate names a witness
        rc = main(["check-convexity", "--f", "expdecay"])
        assert rc == 1
        assert capsys.readouterr().out.startswith("counterexample")

    def test_alpha_is_read_at_m_one(self, capsys):
        # powdecay is (0.3, 0.5)- but not (0.3, 1)-geometrically convex: at
        # m = 1, t^alpha > t shifts weight onto the smaller g(x) when x > y
        assert main(["check-convexity", "--f", "powdecay", "--alpha", "0.3"]) == 1
        assert capsys.readouterr().out.startswith("counterexample")
        assert main(["check-convexity", "--f", "powdecay", "--alpha", "0.3",
                     "--m", "0.5"]) == 0

    @pytest.mark.parametrize("fid", ["powdecay", "expdecay"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--alpha", "0", "alpha in (0, 1] required"),
        ("--alpha", "nan", "alpha in (0, 1] required"),
        ("--alpha", "1.5", "alpha in (0, 1] required"),
        ("--m", "0", "m in (0, 1] required"),
        ("--m", "1.5", "m in (0, 1] required"),
        ("--q", "0", "q must be finite and > 0"),
        ("--q", "-1", "q must be finite and > 0"),
        ("--q", "inf", "q must be finite and > 0"),
    ])
    def test_bad_parameter_exits_2_before_the_certificate(self, capsys, fid, flag, value,
                                                          message):
        # alpha = 0 divided by zero inside the power-decay certificate.
        assert main(["check-convexity", "--f", fid, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("fid,alpha,m,want", [
        # Rejected claims a 21 x 21 x 21 grid passed: the exp-decay
        # bisection stops at t = 1 - 2^-6, and so does the power-decay
        # search for a positive closed-form defect.
        ("expdecay", "0.5", "0.95",
         "counterexample x=2 y=1 t=0.984375 "
         "lhs=0.49031055589865113 rhs=0.49030948325496554\n"),
        ("powdecay", "0.05", "0.25",
         "counterexample x=2 y=1 t=0.984375 "
         "lhs=0.4865382046722318 rhs=0.48653713064141008\n"),
    ])
    def test_certificate_names_its_witness(self, capsys, fid, alpha, m, want):
        assert main(["check-convexity", "--f", fid, "--alpha", alpha, "--m", m]) == 1
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("alpha,m,want", [
        # The exact margin (1 - m) ln 2 - (1 - alpha) / alpha * 0.04 ln 2 is 0
        # at each of these; in floats it is -1.4e-17 at the first, where the
        # closed-form defect rounds positive at t = 1 - 2^-26 but g does
        # not fail there, and >= 0 at the others.
        ("0.25", "0.88", "FAIL: not a member by its certificate; margin "
         "-1.3877787807814457e-17 is within rounding of 0; g does not fail in floats\n"),
        ("0.5", "0.96", "pass\n"), ("0.8", "0.99", "pass\n"),
        ("0.2", "0.84", "pass\n"), ("0.4", "0.94", "pass\n"),
    ])
    def test_margin_zero_names_no_witness(self, capsys, alpha, m, want):
        rc = main(["check-convexity", "--f", "powdecay", "--alpha", alpha, "--m", m])
        assert rc == (0 if want == "pass\n" else 1)
        assert capsys.readouterr().out == want

    def test_certified_for_every_q(self, capsys):
        # g = |f'|^2000 underflows on [1, 2]; the certificate holds for
        # every q > 0, so no sampled g is needed to answer.
        rc = main(["check-convexity", "--f", "powdecay", "--alpha", "0.5", "--m", "0.5",
                   "--q", "2000"])
        assert rc == 0
        assert capsys.readouterr().out == "pass\n"

    def test_exit_code_is_the_certificates_answer(self, corpus, capsys):
        for spec in corpus.values():
            for alpha, m in itertools.product((0.05, 0.5, 1.0), (0.25, 0.95, 1.0)):
                rc = main(["check-convexity", "--f", spec.id, "--alpha", str(alpha),
                           "--m", str(m), "--q", "3"])
                assert rc == (0 if spec.member(alpha, m) else 1), (spec.id, alpha, m)
        capsys.readouterr()


class TestVerifyCommand:
    def test_classical_pass(self, capsys):
        rc = main(
            ["verify", "--theorem", "classical", "--f", "linear",
             "--a", "0", "--b", "1", "--x", "0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == "classical: pass lhs=0 rhs=0.25 margin=0.25"

    def test_theorem_pass(self, capsys):
        rc = main(
            ["verify", "--theorem", "t22", "--f", "powdecay", "--x", "1.4",
             "--mu", "0.5", "--alpha", "0.5", "--m", "0.5"]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("t22: pass")

    @pytest.mark.parametrize("a", ["-1", "nan"])
    def test_classical_outside_the_domain_exits_2(self, capsys, a):
        # A nan end used to be integrated, bisecting nan panels until numpy
        # failed to allocate.
        rc = main(["verify", "--theorem", "classical", "--f", "linear",
                   "--a", a, "--b", "1", "--x", "0.5"])
        assert rc == 2
        assert "outside domain of 'linear'" in capsys.readouterr().err

    def test_classical_empty_interval_exits_2(self, capsys):
        # The mean divided by b - a = 0 before the bound checked a < b.
        rc = main(["verify", "--theorem", "classical", "--f", "linear",
                   "--a", "1", "--b", "1", "--x", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: a < b required\n"

    def test_hypothesis_error_exits_2(self, capsys):
        rc = main(
            ["verify", "--theorem", "t24", "--f", "powdecay", "--x", "1.4",
             "--mu", "0.5", "--alpha", "0.5", "--m", "0.5", "--q", "1"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    REMARK = ["verify", "--theorem", "remark_q1", "--f", "powdecay", "--x", "1.4",
              "--mu", "0.5", "--alpha", "0.5", "--m", "0.5", "--q", "1", "--u", "0.5"]

    def test_in_box_remark_passes(self, capsys):
        assert main(self.REMARK) == 0
        assert capsys.readouterr().out.startswith("remark_q1: pass")

    def test_pinned_parameter_outside_box_exits_2(self, capsys):
        argv = [*self.REMARK]
        argv[argv.index("remark_q1")] = "t22"
        argv[argv.index("--q") + 1] = "2"
        assert main(argv) == 2
        assert "q = 1 required" in capsys.readouterr().err

    def test_split_for_theorem_without_it_exits_2(self, capsys):
        # t26's RHS has no Young split, so a u it would ignore is refused
        argv = ["verify", "--theorem", "t26", "--f", "powdecay", "--x", "1.4",
                "--mu", "0.5", "--alpha", "0.5", "--m", "0.5", "--q", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("t26: pass")
        assert main([*argv, "--u", "0.5"]) == 2
        assert "u, v not used" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, named",
        [(["--u", "0.5"], "--u"), (["--mu", "0.3", "--q", "7"], "--mu, --q"),
         (["--alpha", "1"], "--alpha"), (["--m", "1"], "--m")],
    )
    def test_classical_refuses_fractional_parameters(self, capsys, extra, named):
        # the classical estimate would ignore them
        argv = ["verify", "--theorem", "classical", "--f", "linear", "--x", "1.0"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, *extra]) == 2
        assert capsys.readouterr().err == f"error: classical on 'linear': {named} not used\n"


# One instance on powdecay, outside the box of the theorems below; each
# command exits 2 with its message on stderr and nothing on stdout.
SMOKE_VERIFY = "--f powdecay --x 1.4 --mu 0.5 --alpha 0.5 --m 0.5 --q 2"


@pytest.mark.parametrize("argv, message", [
    (f"verify --theorem mu1 {SMOKE_VERIFY}", "mu = 1 required"),
    (f"verify --theorem mm {SMOKE_VERIFY}", "u, v required"),
    ("frac-int --f powdecay --a -1 --x 1.5 --mu 0.5", "outside domain of 'powdecay'"),
    ("frac-int --f powdecay --a 1.2 --x 1.5 --mu 0.5 --upper", "--a not used"),
    # Gamma(401) overflows a float: math.gamma raised OverflowError (exit 1).
    ("frac-int --f powdecay --x 1.5 --mu 400", "gamma(401.0) overflows a float"),
    ("verify --theorem t22 --f powdecay --x 1.4 --mu 400", "gamma(401.0) overflows a float"),
], ids=["mu1", "mm", "frac-int-a-outside", "frac-int-upper-a-unread",
        "frac-int-gamma-overflow", "verify-gamma-overflow"])
def test_smoke_step_command_exits_2(capsys, argv, message):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


class TestDefaultSweepListing:
    """The shipped default sweep: which verdicts it lists, in which order,
    and that each holds.  The digest is over the (theorem, function, x, mu,
    alpha, m, q, u, holds) JSON lines, which leaves out the float bits of lhs
    and rhs that numpy's vectorized exp/pow may round differently by host."""

    COUNTS = {"t26": 5184, "mm": 5184, "t24": 2916, "t22": 1728,
              "mu1": 1296, "remark_q1": 1296, "set": 288}
    TUPLES_SHA256 = "6238511069f18af2c957e3776f587bc1d1f60c27f3508a736829edb70a7d174b"

    def test_listing_counts_and_digest(self, default_sweep):
        verdicts = list(verdict_rows(default_sweep))
        assert len(verdicts) == 17892
        assert all(v["holds"] for v in verdicts)
        assert collections.Counter(v["theorem"] for v in verdicts) == self.COUNTS
        keys = ("theorem", "function", "x", "mu", "alpha", "m", "q", "u", "holds")
        h = hashlib.sha256()
        for v in verdicts:
            h.update(json.dumps([v[k] for k in keys]).encode() + b"\n")
        assert h.hexdigest() == self.TUPLES_SHA256


class TestSweepCommand:
    def test_small_sweep_passes(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SMALL_SWEEP)
        out = tmp_path / "report.json"
        rc = main(["sweep", "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["verdicts"] and all(v["holds"] for v in report["verdicts"])
        err = capsys.readouterr().err
        assert "t22:" in err and "fail" in err

    def test_byte_identical_reports(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SMALL_SWEEP)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("dest", ["output", "stdout"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("sweep", ["small", "default"])
    def test_writes_the_rendered_report(self, sweep, fmt, dest, default_sweep, tmp_path, capsys):
        # One formatting path behind both destinations: what the command
        # writes is `render_report` of the sweep, byte for byte.
        text = (SMALL_SWEEP if sweep == "small" else "") + f"format = {fmt}\n"
        cfg = parse_config(text)
        report = run_sweep(cfg) if sweep == "small" else default_sweep
        if sweep == "default":
            assert dataclasses.replace(cfg, out_format="json") == SweepConfig()
        want = render_report(report, fmt)
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        out = tmp_path / f"report.{fmt}"
        argv = ["sweep", "--config", str(path)]
        assert main(argv + ["--output", str(out)] if dest == "output" else argv) == 0
        stdout = capsys.readouterr().out
        if dest == "output":
            assert out.read_bytes() == want.encode()
            assert stdout == f"report written to {out}\n"
        else:
            assert stdout == want

    def test_writing_holds_less_than_half_the_report(self, default_sweep, tmp_path, monkeypatch):
        # The report is streamed one (group, x) row at a time: writing it
        # must not hold the whole text, let alone a second, encoded copy of
        # it.  Each piece stays below glibc's 128 KiB mmap threshold, so its
        # pages come from the heap the piece before it freed.
        for fmt in ("json", "csv"):
            assert max(map(len, report_chunks(default_sweep, fmt))) < 128 * 1024
        monkeypatch.setattr(cli_mod, "run_sweep", lambda cfg: default_sweep)
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["sweep", "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 6_000_000
        assert peak < size / 2, (peak, size)

    # A t22 instance with lhs/rhs = 0.96, checked against its printed bound
    # understated by half (`understated_t22`): a false bound, not a false
    # hypothesis, which the sweep itself must catch.
    CRAFTED_VIOLATION = (
        "functions = affine08\n"
        "theorems = t22\n"
        "x_fracs = 0.95\n"
        "mu = 1.0\n"
        "alpha = 1.0\n"
        "m = 0.5\n"
        "q = 1.0\n"
    )

    @pytest.fixture
    def understated_t22(self, monkeypatch):
        # The theorem record looks its factor up at call time.
        factor_t22 = bnd.factor_t22
        monkeypatch.setattr(bnd, "factor_t22", lambda bp: 0.5 * factor_t22(bp))

    def test_crafted_violation_exits_1(self, tmp_path, capsys, understated_t22):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(self.CRAFTED_VIOLATION)
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert any(not v["holds"] for v in report["verdicts"])

    @pytest.mark.parametrize(
        "line, message",
        [("abs_tol = inf", "abs_tol in (0, 1e-08] required"),
         ("abs_tol = 1e300", "abs_tol in (0, 1e-08] required"),
         ("rel_tol = inf", "rel_tol in (0, 1e-08] required")],
    )
    def test_loose_tolerance_exits_2(self, tmp_path, capsys, line, message, understated_t22):
        # A verdict holds down to a margin of -100 * abs_tol: a tolerance
        # loose enough would pass the crafted violation with exit 0.  The
        # error names the key and the value, as read.
        key, value = line.split(" = ")
        cfg = tmp_path / "loose.cfg"
        cfg.write_text(self.CRAFTED_VIOLATION + line + "\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {key} = {float(value)!r}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "line, message",
        [("rel_tol = 0.0", "rel_tol = 0.0: rel_tol in (0, 1e-08] required"),
         ("max_subdivisions = 0", "max_subdivisions = 0: max_subdivisions must be >= 1"),
         ("max_subdivisions = -3", "max_subdivisions = -3: max_subdivisions must be >= 1")],
    )
    def test_quadrature_value_out_of_range_exits_2(self, tmp_path, capsys, line, message):
        # A config error like any other list or quadrature value's, not
        # QuadConfig's own DomainError, which names neither key nor value.
        with pytest.raises(ConfigError) as got:
            parse_config(line)
        assert str(got.value) == message
        cfg = tmp_path / "range.cfg"
        cfg.write_text(line + "\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_crafted_violation_exits_2(self, tmp_path, capsys):
        # An understated M and a nan f are rejected when the member is built:
        # the nan one used to build, and fail only inside quadrature.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "functions = bad\n"
            "function.bad = affine slope=0.8 intercept=0.0 lo=1.0 hi=2.0 "
            "declared_M=0.1\n"
        )
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2
        assert "declared M=0.1 is below sup|f'| = 0.8" in capsys.readouterr().err
        cfg.write_text("functions = bad\nfunction.bad = affine slope=0.8 intercept=nan lo=1 hi=2\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: intercept must be finite, got nan\n"

    def test_large_intercept_passes_the_audit(self, tmp_path, capsys):
        # The finite-difference check allows for the rounding of |f| ~ 1e8,
        # and the sweep's verdicts hold at that size.
        cfg = tmp_path / "big.cfg"
        cfg.write_text("functions = big\ntheorems = t22\n"
                       "function.big = affine slope=0.5 intercept=1e8 lo=1 hi=2\n")
        (big,) = resolve_corpus(parse_config(cfg.read_text()))
        assert grid_oracle.audit(big) == []
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 0
        assert "t22: 432 pass, 0 fail" in capsys.readouterr().err

    # |f'| understated by M (0.5 < 0.8), and |f'| rising (r < 0): hypotheses
    # of every theorem, rejected when the member is built, whether or not
    # `functions` selects it.
    @pytest.mark.parametrize("listed", ["no", "yes"])
    @pytest.mark.parametrize(
        "line, message",
        [("function.p = affine slope=0.8 intercept=0.1 lo=1 hi=2 declared_M=0.5",
          "declared M=0.5 is below sup|f'| = 0.8 on [1.0, 2.0]"),
         ("function.p = power_decay M=0.5 r=-0.5 lo=1 hi=2",
          "power_decay family needs r >= 0 (|f'| non-increasing), got r=-0.5")],
        ids=["understated-M", "rising-derivative"],
    )
    def test_false_hypothesis_exits_2(self, tmp_path, capsys, listed, line, message):
        cfg = tmp_path / "hypothesis.cfg"
        selected = "p" if listed == "yes" else "const1"
        cfg.write_text(f"functions = {selected}\n{line}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_theorem_met_nowhere_exits_2(self, tmp_path, capsys):
        # const1 is in no geometric class and expdecay in none at m = 1: an
        # empty sweep must not pass, and the report is still written as it is
        cfg = tmp_path / "unmet.cfg"
        cfg.write_text("functions = const1,expdecay\ntheorems = t22,t26\nm = 1.0\n")
        out = tmp_path / "report.json"
        rc = main(["sweep", "--config", str(cfg), "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        for theorem in ("t22", "t26"):
            assert (
                f"error: {theorem}: no corpus function met its hypotheses" in err
            )
        report = json.loads(out.read_text())
        assert report["summary"] == {} and report["verdicts"] == []

    def test_off_the_default_grid_gets_verdicts(self, tmp_path, capsys):
        # Membership is certified at any (alpha, m), not only at the default
        # sweep's values: every theorem gets verdicts, and they hold.
        cfg = tmp_path / "off.cfg"
        cfg.write_text("alpha = 0.3\nm = 0.4\nq = 2.5\nx_fracs = 0.25,0.75\nmu = 0.5,1.5\n")
        out = tmp_path / "report.json"
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["summary"]) == set(THEOREMS)
        assert report["verdicts"] and all(v["holds"] for v in report["verdicts"])
        assert "error" not in capsys.readouterr().err

    def test_off_grid_ci_step(self, tmp_path, capsys):
        # alpha, m and q off the default grid, at the default x and mu grid:
        # the sweep exits 0 and lists verdicts; every theorem gets some, and
        # they hold.
        cfg = tmp_path / "off-grid.cfg"
        cfg.write_text(TestSweepMatchesPerVerdictOracle.OFF_GRID)
        out = tmp_path / "off-grid.json"
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["summary"]) == set(THEOREMS)
        assert len(report["verdicts"]) == 675
        assert all(v["holds"] for v in report["verdicts"])
        assert "error" not in capsys.readouterr().err

    def test_default_sweep_ci_step(self, tmp_path, capsys, monkeypatch):
        # The default sweep through `main`, each command a fresh sweep: the
        # count and tuple digest of the written report, its indented-dump
        # equality, a second --output, stdout, and CSV file against CSV
        # stdout.
        monkeypatch.chdir(tmp_path)

        def sweep(*argv):
            assert main(["sweep", *argv]) == 0
            return capsys.readouterr().out

        sweep("--output", "report.json")
        data = (tmp_path / "report.json").read_bytes()
        text = data.decode()
        verdicts = json.loads(text)["verdicts"]
        assert len(verdicts) == 17892
        keys = ("theorem", "function", "x", "mu", "alpha", "m", "q", "u", "holds")
        h = hashlib.sha256()
        for v in verdicts:
            h.update(json.dumps([v[k] for k in keys]).encode() + b"\n")
        assert h.hexdigest() == TestDefaultSweepListing.TUPLES_SHA256
        # The renderer against an independent one: json's own indented dump.
        assert json.dumps(json.loads(text), indent=2) + "\n" == text
        sweep("--output", "report-again.json")
        assert (tmp_path / "report-again.json").read_bytes() == data
        # The report streams to a file and to stdout through one path.
        assert sweep().encode() == data
        (tmp_path / "csv.cfg").write_text("format = csv\n")
        sweep("--config", "csv.cfg", "--output", "report.csv")
        assert sweep("--config", "csv.cfg").encode() == (tmp_path / "report.csv").read_bytes()

    def test_one_theorem_met_nowhere_exits_2(self, tmp_path, capsys):
        # t24 needs q > 1; with q = 1 only t22 has verdicts
        cfg = tmp_path / "partly.cfg"
        cfg.write_text(
            "functions = powdecay\ntheorems = t22,t24\nx_fracs = 0.5\n"
            "mu = 1.0\nalpha = 0.5\nm = 0.5\nq = 1.0\n"
        )
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: t24:" in captured.err and "error: t22:" not in captured.err
        assert json.loads(captured.out)["summary"].keys() == {"t22"}

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a config\n")
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2

    @pytest.mark.parametrize(
        "line, named",
        [("abs_tol = banana", "abs_tol"), ("alpha = 0.5,1.5", "alpha = 1.5"),
         ("seed = 1", "unknown config keys: ['seed']"),
         ("x_fracs = 0.5,1.5", "x_fracs = 1.5"), ("mu = 0", "mu = 0.0"),
         # lam = 0 once ended in a ZeroDivisionError traceback, exit 1.
         ("function.e = exp_decay M=0.5 lam=0 lo=1 hi=2", "error: lam > 0 required\n"),
         ("abs_tol = inf", "error: abs_tol = inf: abs_tol in (0, 1e-08] required\n"),
         ("mu = ,", "error: mu must be non-empty\n"),
         ("function.p = affine slope=0.8 intercept=0.1 lo=1 hi=2 declared_M=0.5",
          "error: declared M=0.5 is below sup|f'| = 0.8 on [1.0, 2.0]\n"),
         ("function.p = power_decay M=0.5 r=-0.5 lo=1 hi=2",
          "error: power_decay family needs r >= 0 (|f'| non-increasing), got r=-0.5\n"),
         ("function.n = affine slope=0.8 intercept=nan lo=1 hi=2",
          "error: intercept must be finite, got nan\n"),
         # Gamma(mu + 1) overflows a float: accepted once, it ended in an
         # OverflowError traceback (exit 1) inside the sweep.
         ("mu = 400", "error: mu = 400.0: gamma(401.0) overflows a float\n"),
         # A CSV row of either id once had a field too many or an empty
         # function, and no `functions` list could name the first.
         ("function.com,ma = affine slope=0.5 intercept=0.25 lo=1.0 hi=2.5",
          "error: function id 'com,ma' must be non-empty, without ',' or '\"'\n"),
         ("function. = affine slope=0.5 intercept=0.25 lo=1.0 hi=2.5",
          "error: function id '' must be non-empty, without ',' or '\"'\n"),
         ('function.q"t = affine slope=0.5 intercept=0.25 lo=1.0 hi=2.5',
          "error: function id 'q\"t' must be non-empty, without ',' or '\"'\n"),
         ("function.x = affine slope=abc intercept=0 lo=0 hi=1",
          "error: non-numeric parameter 'slope=abc'\n"),
         ("functions = nosuch", "error: unknown function ids: ['nosuch']\n")],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, line, named):
        # A value the sweep cannot use is a usage error, not a violation (1)
        # and not a sweep that quietly drops it (0).  Each line is a
        # one-line config file.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        assert main(["sweep", "--config", "/no/such/file.cfg"]) == 2


class TestConfigParsing:
    def test_defaults_roundtrip(self):
        cfg = parse_config("")
        assert cfg == SweepConfig()

    def test_comments_and_values(self):
        cfg = parse_config(SMALL_SWEEP)
        assert cfg.functions == ("powdecay", "const1")
        assert cfg.theorems == ("t22", "t26", "mm")
        assert cfg.mus == (0.5, 1.0)
        assert cfg.qs == (1.0, 2.0)

    @pytest.mark.parametrize("key", ["theorems", "x_fracs", "mu", "alpha", "m", "q", "u"])
    def test_empty_list_names_its_key(self, key):
        with pytest.raises(ConfigError) as got:
            parse_config(f"{key} = ,\n")
        assert str(got.value) == f"{key} must be non-empty"

    def test_fingerprint_tracks_content(self):
        c1 = parse_config(SMALL_SWEEP)
        c2 = parse_config(SMALL_SWEEP + "abs_tol = 1e-11\n")
        assert c1.fingerprint() != c2.fingerprint()
        assert c1.fingerprint() == parse_config(SMALL_SWEEP).fingerprint()

    @pytest.mark.parametrize(
        "text",
        [
            "no equals sign",
            "mu = banana",
            "theorems = t99",
            "format = xml",
            "wiggle = 3",
            "function.f = \n",
            "function.f = affine slope\n",
            # audit is no longer a key: any value of it is an unknown key.
            "audit = on\n",
            "audit = ture\n",
            "audit = \n",
            # Not a number: must not end in a traceback.
            "abs_tol = banana\n",
            "rel_tol = 1e-9x\n",
            "max_subdivisions = 1.5\n",
            # base_nodes is no longer a key: any value of it is an unknown key.
            "base_nodes = many\n",
            # The sweep draws nothing at random; seed is not a key.
            "seed = 1\n",
            "seed = 1.5\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize(
        "key, value", [("abs_tol", "banana"), ("max_subdivisions", "1.5")]
    )
    def test_bad_number_names_key_and_value(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be .*'{value}'"):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alpha = 1.5", "alpha = 1.5: alpha in (0, 1] required"),
            ("alpha = 0.5,1.5", "alpha = 1.5: alpha in (0, 1] required"),
            ("m = 0", "m = 0.0: m in (0, 1] required"),
            ("q = 0.5", "q = 0.5: q >= 1 required"),
            ("u = 1.0", "u = 1.0: u, v > 0 required"),
            ("alpha = nan", "alpha = nan: alpha in (0, 1] required"),
            ("x_fracs = 0.5,1.5", "x_fracs = 1.5: x in [a, b] required"),
            ("x_fracs = nan", "x_fracs = nan: x must be finite"),
            ("mu = 0", "mu = 0.0: mu > 0 required"),
            ("mu = inf", "mu = inf: mu must be finite"),
            ("mu = 170.63", "mu = 170.63: gamma(171.63) overflows a float"),
        ],
    )
    def test_out_of_domain_parameter(self, text, message):
        # Rejected when the config is built, not skipped point by point.
        with pytest.raises(ConfigError) as got:
            parse_config(text + "\n")
        assert str(got.value) == message

    def test_unknown_audit_value_exits_2(self, tmp_path, capsys):
        # The key that switched the grid audit of extra members is gone, so
        # every value of it is an unknown key, the ones it took too: the
        # audit re-ran an oracle of closed forms the families state.
        path = tmp_path / "typo.cfg"
        for value in ("ture", "true", "no"):
            path.write_text(
                f"audit = {value}\n"
                "function.bad = affine slope=0.8 intercept=nan lo=1.0 hi=2.0\n"
            )
            assert main(["sweep", "--config", str(path)]) == 2
            assert capsys.readouterr().err == "error: unknown config keys: ['audit']\n"

    def test_extra_function_resolves(self):
        cfg = parse_config(
            "function.aff = affine slope=0.5 intercept=0.0 lo=0.0 hi=1.0\n"
        )
        ids = [s.id for s in resolve_corpus(cfg)]
        assert "aff" in ids and "powdecay" in ids

    @pytest.mark.parametrize(
        "text, key",
        [
            ("mu = 1.0\nmu = 0.5\n", "mu"),
            ("abs_tol = 1e-10\n# again\nabs_tol = 1e-10\n", "abs_tol"),
            ("function.aff = affine slope=0.5 intercept=0 lo=0 hi=1\n"
             "function.aff = affine slope=0.25 intercept=0 lo=0 hi=1\n", "function.aff"),
        ],
        ids=["mu", "abs_tol", "function"],
    )
    def test_repeated_key_exits_2(self, tmp_path, capsys, text, key):
        # A second value would replace the first: one of them would be dropped.
        with pytest.raises(ConfigError, match=f"^repeated config key '{key}'$"):
            parse_config(text)
        path = tmp_path / "twice.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: repeated config key '{key}'\n"

    def test_extra_function_may_not_reuse_a_builtin_id(self, tmp_path, capsys):
        # It would replace the builtin, and its verdicts would carry the
        # builtin's label for a different function on a different domain.
        text = "function.linear = affine slope=0.5 intercept=0 lo=1 hi=2\n"
        with pytest.raises(ConfigError, match="^extra function id 'linear' is already"):
            resolve_corpus(parse_config(text))
        path = tmp_path / "shadow.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        assert "'linear' is already in the corpus" in capsys.readouterr().err


class TestRenderReport:
    def test_csv_header_and_rows(self):
        cfg = parse_config(SMALL_SWEEP + "format = csv\n")
        report = run_sweep(cfg)
        text = render_report(report, "csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("theorem,function,a,b,x,mu")
        assert len(lines) == len(list(verdict_rows(report))) + 1
        assert [len(fields) for fields in csv.reader(lines)] == [17] * len(lines)
        assert all(s["fail"] == 0 for s in report["summary"].values())

    @pytest.mark.parametrize("text", [
        SMALL_SWEEP + "u = 0.25,0.5\nformat = csv\n",
        "functions = powdecay,aff\nx_fracs = 0.1,0.5,0.9\nmu = 0.5,1.5\nformat = csv\n"
        "function.aff = affine slope=0.5 intercept=0.25 lo=1.0 hi=2.5\n",
    ], ids=["csv", "extra"])
    def test_csv_equals_csv_of_rows(self, text):
        report = run_sweep(parse_config(text))
        rows = list(verdict_rows(report))
        assert rows and any(r["u"] is not None for r in rows)
        want = sweep_oracle.render({**report, "verdicts": rows}, "csv")
        assert render_report(report, "csv") == want

    def test_json_contains_fingerprint(self):
        cfg = parse_config(SMALL_SWEEP)
        report = run_sweep(cfg)
        assert report["config_fingerprint"] == cfg.fingerprint()

    @staticmethod
    def _oracle(report):
        return json.dumps({**report, "verdicts": list(verdict_rows(report))}, indent=2) + "\n"

    # The dense configs list one point per run: each row of a group's table
    # holds one verdict per mu.
    @pytest.mark.parametrize("text", [
        SMALL_SWEEP, BATCH_SWEEP,
        pytest.param(DENSE_SWEEP, id="dense"), pytest.param(QUAD_DENSE_SWEEP, id="quad-dense"),
    ])
    def test_json_equals_indented_dump(self, text):
        report = run_sweep(parse_config(text))
        assert render_report(report, "json") == self._oracle(report)

    def test_point_less_run_between_runs_with_points(self):
        # It adds no column to its group's table, so the text is that of
        # the group without it, and the row's holds stay bools.
        report = run_sweep(parse_config(SMALL_SWEEP))
        tol_margin, groups = report["verdicts"]
        g = next(g for g in groups if len(g.runs) >= 2 and all(r.points for r in g.runs))
        none = report_mod.Run(0.75, [], g.runs[0].lhs)
        group = g._replace(runs=[g.runs[0], none, *g.runs[1:]])
        without = render_report({**report, "verdicts": Verdicts(tol_margin, [g])}, "json")
        report = {**report, "verdicts": Verdicts(tol_margin, [group])}
        text = render_report(report, "json")
        assert text == self._oracle(report) == without
        assert '"holds": true' in text and '"holds": 0.0' not in text

    def test_non_finite_run_beside_finite_ones(self):
        # Each value of a group whose one run holds inf and nan is written as
        # json writes it, the finite runs' values too.
        report = run_sweep(parse_config(SMALL_SWEEP))
        tol_margin, groups = report["verdicts"]
        g = next(g for g in groups if len(g.runs) >= 2)
        first, *others = g.runs
        rhs, margin = g.rhs.copy(), g.margin.copy()
        n = len(first.points)  # the first run's columns
        rhs[0, 0], margin[-1, n - 1] = float("inf"), float("nan")
        assert np.isfinite(rhs[:, n:]).all() and np.isfinite(margin[:, n:]).all()
        # The table's columns in the order of the group's runs.
        order = [*range(n, rhs.shape[1]), *range(n), *range(n, rhs.shape[1])]
        group = g._replace(runs=[*others, first, *others], rhs=rhs[:, order],
                           margin=margin[:, order], holds=g.holds[:, order])
        report = {**report, "verdicts": Verdicts(tol_margin, [g, group, g])}
        text = render_report(report, "json")
        assert text == self._oracle(report)
        assert '"rhs": Infinity' in text and '"margin": NaN' in text

    def test_json_without_verdicts(self):
        report = {"config_fingerprint": "0" * 64, "version": "0.1.0",
                  "summary": {}, "verdicts": Verdicts(1e-8, [])}
        assert render_report(report, "json") == self._oracle(report)
        # Groups, x values and runs without a verdict list none either.
        empty = np.empty((1, 0))
        run = report_mod.Run(1.0, [], np.zeros(1))
        group = report_mod.Group("t22", "f", 0.0, 1.0, [0.5], [run],
                                 empty, empty, empty.astype(bool))
        none = np.empty((0, 0))
        report["verdicts"] = Verdicts(1e-8, [group, group._replace(runs=[]), group._replace(
            xs=[], runs=[], rhs=none, margin=none, holds=none.astype(bool))])
        assert render_report(report, "json") == self._oracle(report)

    def test_groups_of_one_function_with_their_own_columns(self):
        # Groups of one function at the same mu whose lhs columns, or x
        # lists, are other objects with other values: the renderer keeps a
        # column's text by the column's identity, never by (function, mu).
        report = run_sweep(parse_config(SMALL_SWEEP))
        tol_margin, groups = report["verdicts"]
        g = groups[0]
        own_lhs = g._replace(theorem="own lhs",
                             runs=[r._replace(lhs=r.lhs + 1.0) for r in g.runs])
        own_xs = g._replace(theorem="own xs", xs=[x + 1.0 for x in g.xs])
        assert [r.mu for r in own_lhs.runs] == [r.mu for r in g.runs]
        report = {**report, "verdicts": Verdicts(tol_margin, [g, own_lhs, own_xs, g, *groups])}
        assert render_report(report, "json") == self._oracle(report)

    def test_default_sweep_equals_indented_dump(self, default_sweep):
        assert render_report(default_sweep, "json") == self._oracle(default_sweep)

    def test_none_takes_no_json_call(self, default_sweep, monkeypatch):
        # None, the u and v of every point without the Young split, is most
        # of the values the renderer hands to json: it now spells them
        # itself, with the same bytes.
        want = render_report(default_sweep, "json")
        dumps, kinds = json.dumps, []

        def counted(v, **kw):
            kinds.append(type(v))
            return dumps(v, **kw)

        monkeypatch.setattr(report_mod.json, "dumps", counted)
        assert report_mod._value_json(None) == dumps(None) == "null"
        assert render_report(default_sweep, "json") == want
        assert kinds and type(None) not in kinds

    @pytest.mark.parametrize(
        "report", [{"verdicts": [], "version": "1"}, {"verdicts": []}],
        ids=["verdicts-first", "verdicts-only"])
    def test_json_verdicts_must_be_last_after_another_key(self, report):
        with pytest.raises(ValueError, match="want 'verdicts' last"):
            render_report(report, "json")

    @pytest.mark.parametrize("fmt", ["xml", "JSON", ""])
    def test_unknown_format_raises(self, fmt):
        # Named at the call, before any piece: a caller that opens its
        # destination after the call never truncates it for nothing.
        report = {"version": "1", "verdicts": Verdicts(1e-8, [])}
        with pytest.raises(ValueError, match=f"unknown report format {fmt!r}"):
            report_chunks(report, fmt)
        with pytest.raises(ValueError, match=f"unknown report format {fmt!r}"):
            render_report(report, fmt)

    def test_json_verdicts_last_equals_indented_dump(self):
        report = {"version": "1", "verdicts": Verdicts(1e-8, [])}
        assert render_report(report, "json") == self._oracle(report)

    # Equal values with different text (0.0 and -0.0; 1, 1.0 and True) and
    # values json spells its own way: what a group, x or mu may hold.
    POOL = [0.0, -0.0, 1, 1.0, True, False, None, float("nan"), float("inf"),
            float("-inf"), 0.1, 1e300, 5e-324, -7, 2**70, "t22",
            'q"uote', "com,ma", "new\nline", "},", "},\n      {", "ünïcødé ∫",
            [], {}, [1.5, None, "x"], {"k": [0.5, {"z": True}]}]
    # The floats a run's lhs and a group's rhs and margin may hold: finite
    # ones, and with them those json spells its own way.
    FINITE = [0.0, -0.0, 0.1, 1.0, 1e300, -1e300, 5e-324, -5e-324, 1 - 2**-53]
    FLOATS = FINITE + [float("nan"), float("inf"), float("-inf")]
    # Values a point accepts, again equal ones with different text.
    POINT_VALUES = {
        "alpha": [1, 1.0, True, 0.1, 5e-324], "m": [1, 1.0, True, 0.5, 5e-324],
        "M": [1, 1.0, True, 0.5, 5e-324], "q": [1, 1.0, True, 1e300, float("inf")],
        "u": [None, 0.5, 0.1, 5e-324, 1 - 2**-53],
    }

    @pytest.mark.parametrize("seed", range(4))
    def test_json_random_records_equal_indented_dump(self, seed):
        import random

        rng = random.Random(seed)

        def value():
            # An equal value in a distinct object, where one can be made.
            v = rng.choice(self.POOL)
            return float(repr(v)) if type(v) is float and rng.random() < 0.5 else v

        def floats(shape, pool):
            return np.array([rng.choice(pool) for _ in range(int(np.prod(shape)))],
                            dtype=float).reshape(shape)

        frac = FracParams(0.0, 1.0, 0.0, 1.0)
        groups, kinds = [], set()
        while sum(g.rhs.size for g in groups) < 300:
            xs = [value() for _ in range(rng.randint(0, 6))]
            runs = []
            for _ in range(rng.randint(0, 4)):
                points = [
                    BoundParams(frac, **{k: rng.choice(vs) for k, vs in self.POINT_VALUES.items()})
                    for _ in range(rng.randint(0, 5))
                ]
                runs.append(report_mod.Run(value(), points, floats(len(xs), self.FLOATS)))
            shape = (len(xs), sum(len(r.points) for r in runs))
            # An all-finite table, or one that may mix finite and not.
            pool = rng.choice((self.FINITE, self.FLOATS))
            rhs, margin = floats(shape, pool), floats(shape, pool)
            kinds.add(bool(np.isfinite(rhs).all() and np.isfinite(margin).all()))
            holds = np.array([rng.random() < 0.5 for _ in range(rhs.size)],
                             dtype=bool).reshape(shape)
            groups.append(report_mod.Group(value(), value(), value(), value(), xs, runs,
                                           rhs, margin, holds))
        assert kinds == {True, False}
        report = {"config_fingerprint": "0" * 64, "version": "0.1.0",
                  "summary": {"t22": {"pass": 1, "fail": 0, "worst_margin": -0.0}},
                  "verdicts": Verdicts(value(), groups)}
        assert render_report(report, "json") == self._oracle(report)

    # A verdict's flat record, key by key, as the JSON report lists it.
    RECORD_KEYS = ("theorem", "lhs", "rhs", "margin", "holds", "tol_margin", "function",
                   "a", "b", "x", "mu", "alpha", "m", "M", "q", "u", "v")

    def test_verdict_keys_in_sweep_order(self):
        report = run_sweep(parse_config(SMALL_SWEEP))
        rows = list(verdict_rows(report))
        assert rows and all(tuple(r) == self.RECORD_KEYS for r in rows)
        # The text lists each verdict's keys in that order, with its values.
        text = render_report(report, "json")
        records = dict(json.loads(text, object_pairs_hook=list))["verdicts"]
        assert [[k for k, _ in r] for r in records] == [list(self.RECORD_KEYS)] * len(rows)
        assert [dict(r) for r in records] == rows

    def test_json_awkward_strings_and_floats(self):
        base = run_sweep(parse_config(SMALL_SWEEP))
        tol_margin, (group, *_) = base["verdicts"]
        run = group.runs[0]
        bp, rhs, holds = run.points[0], group.rhs[0, 0], group.holds[0, 0]
        points = [dataclasses.replace(bp, u=None), bp]
        ids = ['q"uote', "com,ma", "new\nline", "},", "},\n      {", "ünïcødé ∫"]
        specials = [float("nan"), float("inf"), float("-inf"), -0.0]
        tiny_huge = [5e-324, 1e300, -1e300, -0.0]
        groups = []
        for k, fid in enumerate(ids):
            # A run whose columns mix finite and non-finite values at each
            # x, and a run whose columns hold extreme finite ones.
            mixed = run._replace(points=points, lhs=np.array([specials[k % 4], rhs]))
            finite = run._replace(points=points[::-1], lhs=np.array([tiny_huge[k % 4], -0.0]))
            groups.append(group._replace(
                function=fid, xs=[group.xs[0], -0.0], runs=[mixed, finite],
                rhs=np.array([[rhs, specials[(k + 2) % 4], tiny_huge[(k + 1) % 4], rhs],
                              [specials[(k + 2) % 4], rhs, rhs, tiny_huge[(k + 2) % 4]]]),
                margin=np.array([[specials[(k + 1) % 4], -0.0, -0.0, tiny_huge[(k + 3) % 4]],
                                 [-0.0, specials[(k + 1) % 4], tiny_huge[k % 4], -0.0]]),
                holds=np.array([[holds, not holds, holds, holds],
                                [not holds, holds, not holds, holds]])))
        report = {**base, "verdicts": Verdicts(tol_margin, groups)}
        assert render_report(report, "json") == self._oracle(report)

    def test_records_hold_python_values(self, default_sweep):
        # `_fmt` and the JSON renderer tell a bool by `isinstance(v, bool)`,
        # which a numpy bool fails: every record value is a Python one.
        rows = list(verdict_rows(default_sweep))
        assert len(rows) == 17892
        kinds = {k: {type(r[k]) for r in rows} for k in self.RECORD_KEYS}
        assert kinds["holds"] == {bool}
        for key in ("lhs", "rhs", "margin", "tol_margin", "a", "b", "x", "mu",
                    "alpha", "m", "M", "q"):
            assert kinds[key] == {float}, key
        assert kinds["u"] <= {float, type(None)} and kinds["v"] <= {float, type(None)}
        want = sweep_oracle.render({**default_sweep, "verdicts": rows}, "csv")
        assert render_report(default_sweep, "csv") == want

    def test_summary_of_a_run_with_a_nan_margin(self, tmp_path, monkeypatch):
        # A nan LHS at the middle x makes that row's margins nan: they fail,
        # and the worst margin is nan, wherever the nan comes.
        text = ("functions = powdecay\ntheorems = t22\nx_fracs = 0.25,0.5,0.75\nmu = 0.5\n"
                "alpha = 0.5,1.0\nm = 0.5\nq = 1.0\n")
        cfg = parse_config(text)
        signed_many = report_mod.ostrowski_signed_many

        def nan_in_the_middle(f, a, b, x, mu, quad):
            values = signed_many(f, a, b, x, mu, quad)
            values[1] = float("nan")
            return values

        monkeypatch.setattr(report_mod, "ostrowski_signed_many", nan_in_the_middle)
        report = run_sweep(cfg)
        rows = list(verdict_rows(report))
        nan_rows = [r for r in rows if r["margin"] != r["margin"]]
        assert len(nan_rows) == 2 and len(rows) == 6
        assert rows[0]["margin"] == rows[0]["margin"]
        assert not any(r["holds"] for r in nan_rows)
        summary = report["summary"]["t22"]
        assert summary["pass"] == sum(r["holds"] for r in rows) == 4
        assert summary["fail"] == 2
        assert summary["worst_margin"] != summary["worst_margin"]
        # The exit code reads the summary's fail counts: the sweep fails.
        path = tmp_path / "nan.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 1


class TestBatchedSweep:
    """The sweep integrates one batch per (function, mu); what it reports and
    raises must be what one instance at a time gives."""

    def test_lhs_equals_one_instance_at_a_time(self, corpus):
        cfg = parse_config(BATCH_SWEEP)
        verdicts = list(verdict_rows(run_sweep(cfg)))
        assert {v["x"] for v in verdicts if v["function"] == "linear"} >= {0.0, 3.0}
        assert {v["mu"] for v in verdicts} == {0.25, 1.0, 2.5}
        for v in verdicts:
            frac = FracParams(v["a"], v["b"], v["x"], v["mu"])
            assert v["lhs"] == ostrowski_lhs(corpus[v["function"]], frac, cfg.quad)

    def test_function_without_applicable_theorem_is_never_integrated(
        self, corpus, monkeypatch
    ):
        def boom(u):
            raise RuntimeError("integrand evaluated")

        def with_boom(base):
            spec = dataclasses.replace(corpus[base], id="boom", f=boom, fprime=boom)
            monkeypatch.setattr(report_mod, "resolve_corpus", lambda cfg: [spec])

        cfg = parse_config(BATCH_SWEEP)
        with_boom("const1")  # no membership: nothing applies
        assert list(verdict_rows(run_sweep(cfg))) == []
        with_boom("linear")  # memberships hold: the sweep must integrate it
        with pytest.raises(RuntimeError, match="integrand evaluated"):
            run_sweep(cfg)

    # Depth-1 failures of the refinement, which integrates what the rule
    # pair on [0, 1] cannot resolve.  On a power_decay with r = 21 over
    # [1, 10], mu = 0.5 and mu = 2.5 converge by depth 1 at these x and
    # mu = 0.1 fails at x = 7.75 and 5.5: the mu = 0.1 batch, second in
    # batch order, fails first, at its first x.  On a steep power_decay at
    # 1e-13 tolerance, mu = 1.5 fails only at x = b and mu = 1 already at
    # x = 1.5: the mu = 1.5 batch, first in batch order, fails at an
    # instance that comes after (1.5, 1.0) in sweep order.
    FAILING = {
        "by-mu": (
            "functions = wide\nx_fracs = 0.75,0.25,0.5\nmu = 0.5,0.1,2.5\n"
            "function.wide = power_decay M=0.5 r=21 lo=1.0 hi=10.0\n"
        ),
        "by-x": (
            "functions = steep\nx_fracs = 0.5,0.1,1.0\nmu = 1.5,1.0\n"
            "abs_tol = 1e-13\nrel_tol = 1e-13\n"
            "function.steep = power_decay M=0.5 r=160 lo=1.0 hi=2.0\n"
        ),
    }
    # The first failing instance in batch order (x, mu).
    FIRST_FAILING = {"by-mu": (7.75, 0.1), "by-x": (2.0, 1.5)}
    T22_DEPTH_1 = "theorems = t22\nalpha = 1.0\nm = 0.5\nq = 1.0\nmax_subdivisions = 1\n"

    @staticmethod
    def _failures(cfg):
        """(x, mu, message) of every failing instance, one instance at a
        time, in batch order: mu, then x (every t22 instance of these
        configs applies)."""
        (f,) = resolve_corpus(cfg)
        a, b = f.domain
        out = []
        for mu in cfg.mus:
            for frac_x in cfg.x_fracs:
                x = a + frac_x * (b - a)
                try:
                    ostrowski_lhs(f, FracParams(a, b, x, mu), cfg.quad)
                except ConvergenceError as exc:
                    out.append((x, mu, str(exc)))
        return out

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_first_failing_instance_in_sweep_order_is_raised(self, case, tmp_path, capsys):
        text = self.T22_DEPTH_1 + self.FAILING[case]
        cfg = parse_config(text)
        failures = self._failures(cfg)
        x, mu, want = failures[0]
        assert (x, mu) == self.FIRST_FAILING[case]
        # Every failing instance has its own message, so the raised one
        # names the instance.
        assert len({message for *_, message in failures}) == len(failures) > 1
        with pytest.raises(ConvergenceError) as got:
            run_sweep(cfg)
        assert str(got.value) == want
        path = tmp_path / "failing.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_message_names_the_failing_integral(self):
        cfg = parse_config(self.T22_DEPTH_1 + self.FAILING["by-mu"])
        with pytest.raises(ConvergenceError) as got:
            run_sweep(cfg)
        assert str(got.value).startswith(
            "fractional integral anchored at 1.0 with end 7.75, mu = 0.1: quadrature on [")

    def test_failing_sweep_leaves_the_output_file_unchanged(self, tmp_path, capsys):
        # The report is streamed, but the file is opened only once the
        # sweep has returned: one that raises first does not truncate it.
        path = tmp_path / "failing.cfg"
        path.write_text(self.T22_DEPTH_1 + self.FAILING["by-mu"])
        out = tmp_path / "report.json"
        out.write_bytes(b"an earlier report\n")
        assert main(["sweep", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"an earlier report\n"

    def test_point_factor_error_before_any_quadrature(self, monkeypatch):
        # M = 1e-300 underflows t26's c = M^(q alpha (1-m)) at q = 3 but not
        # at q = 1.  t22's points, listed first, apply; the error of t26's
        # point factor still comes before any integrand is evaluated.
        cfg = parse_config(
            "functions = tiny\ntheorems = t22,t26\nx_fracs = 0.25,0.75\nmu = 0.5,1.5\n"
            "alpha = 1.0\nm = 0.25\nq = 1.0,3.0\n"
            "function.tiny = affine slope=1e-300 intercept=1.0 lo=1.0 hi=2.0\n"
        )
        (tiny,) = resolve_corpus(cfg)
        assert report_mod._points("t22", tiny, cfg)

        def boom(u):
            raise RuntimeError("integrand evaluated")

        spec = dataclasses.replace(tiny, f=boom, fprime=boom)
        monkeypatch.setattr(report_mod, "resolve_corpus", lambda cfg: [spec])
        with pytest.raises(DomainError) as got:
            run_sweep(cfg)
        assert str(got.value) == "c in [float_info.min, 1] required"


class TestHypothesesCheckedOncePerPoint:
    """The sweep checks hypotheses once per (function, theorem, alpha, m, q,
    u), and for a theorem whose box names mu once per mu too; what it emits
    must be what one check per instance gives."""

    CONFIGS = {
        "batch": BATCH_SWEEP,
        "mixed-alpha-m": (
            "theorems = t22,t24,t26,mm\nx_fracs = 0.25,0.75\nmu = 0.5,2.5\n"
            "alpha = 0.3,0.5\nm = 0.4,0.5\nq = 1.0,2.0\n"
        ),
        "mu1": "theorems = mu1,t22,set\nx_fracs = 0.5,1.0\nmu = 0.5,1.0\nm = 0.5\nq = 1.0\n",
        "two-u": (
            "theorems = mm,remark_q1\nx_fracs = 0.0,0.5\nmu = 1.5\n"
            "alpha = 0.5,1.0\nm = 0.25\nq = 1.0,3.0\nu = 0.25,0.5\n"
        ),
        # const1 is in no geometric class, and powdecay is not
        # (0.25, 0.9)-geometrically convex: every point with alpha = 0.25 is
        # rejected, at every x.
        "no-claim": (
            "functions = const1,powdecay\n"
            "theorems = mm,remark_q1,t26\nx_fracs = 0.25,0.5,0.75\nmu = 1.5\n"
            "alpha = 0.25,0.5\nm = 0.9\nq = 1.0,2.0\nu = 0.5\n"
        ),
        # Repeated values repeat verdicts, but each point is checked once.
        "repeats": (
            "theorems = t22,t26\nx_fracs = 0.25,0.75,0.25\nmu = 0.5,1.0,0.5\n"
            "alpha = 0.5,0.5\nm = 0.5\nq = 1.0,2.0\n"
        ),
    }

    @staticmethod
    def _reference(cfg):
        """One `_check_hypotheses` per instance, in sweep order: the emitted
        instances and the distinct points checked."""
        out, checked = [], set()
        for f in resolve_corpus(cfg):
            a, b = f.domain
            for theorem in cfg.theorems:
                for frac_x in cfg.x_fracs:
                    x = a + frac_x * (b - a)
                    for mu, alpha, m, q, u in report_mod._grid_for(theorem, cfg):
                        frac = FracParams(a, b, x, mu)
                        bp = BoundParams(frac, f.M, alpha, m, q, u)
                        checked.add((f.id, theorem, alpha, m, q, u))
                        try:
                            _check_hypotheses(theorem, f, bp)
                        except HypothesisError:
                            continue
                        out.append((theorem, f.id, x, mu, alpha, m, q, u))
        return out, checked

    @staticmethod
    def _listed(cfg):
        """`_points` over the corpus, spread over every x: the instances in
        sweep order."""
        out = []
        for f in resolve_corpus(cfg):
            a, b = f.domain
            for theorem in cfg.theorems:
                runs = report_mod._points(theorem, f, cfg)
                for frac_x in cfg.x_fracs:
                    x = a + frac_x * (b - a)
                    for mu, points in runs:
                        assert all(bp.frac.mu == mu for bp, _ in points)
                        out += [(theorem, f.id, x, mu, bp.alpha, bp.m, bp.q, bp.u)
                                for bp, _ in points]
        return out

    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_same_instances_as_one_check_per_instance(self, case, corpus):
        cfg = parse_config(self.CONFIGS[case])
        want, _ = self._reference(cfg)
        assert want
        assert self._listed(cfg) == want
        verdicts = list(verdict_rows(run_sweep(cfg)))
        keys = ("theorem", "function", "x", "mu", "alpha", "m", "q", "u")
        got = [tuple(v[k] for k in keys) for v in verdicts]
        assert got == want
        for v in verdicts:
            bp = BoundParams(
                FracParams(v["a"], v["b"], v["x"], v["mu"]),
                v["M"], v["alpha"], v["m"], v["q"], v["u"],
            )
            _check_hypotheses(v["theorem"], corpus[v["function"]], bp)

    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_one_check_per_point(self, case, monkeypatch):
        cfg = parse_config(self.CONFIGS[case])
        seen = []

        def counting(theorem, f, bp):
            seen.append((f.id, theorem, bp.alpha, bp.m, bp.q, bp.u))
            return _check_hypotheses(theorem, f, bp)

        monkeypatch.setattr(report_mod, "_check_hypotheses", counting)
        run_sweep(cfg)
        # Not once per mu: mu1's box, the only one to name mu, pins it, so
        # its points are distinct without mu too.
        assert len(seen) == len(set(seen))
        assert set(seen) == self._reference(cfg)[1]

    def test_default_sweep_checks(self, monkeypatch):
        calls = []

        def counting(theorem, f, bp):
            calls.append(theorem)
            return _check_hypotheses(theorem, f, bp)

        monkeypatch.setattr(report_mod, "_check_hypotheses", counting)
        assert len(list(verdict_rows(run_sweep(SweepConfig())))) == 17892
        assert len(calls) == 1194

    @pytest.mark.parametrize(
        "text", [BATCH_SWEEP, "", CONFIGS["repeats"]], ids=["batch", "default", "repeats"])
    def test_one_lhs_call_per_function_and_mu(self, text, monkeypatch):
        """A sweep builds no `FracParams` per x, only one per run of a
        theorem's grid that shares mu (its points', at x = a), and makes
        exactly one LHS call per (function, mu) that has a verdict, over
        the function's distinct x values in `x_fracs` order."""
        cfg = parse_config(text)
        verdicts = self._reference(cfg)[0]
        pairs = {(f, mu) for _, f, _, mu, *_ in verdicts}
        runs = sum(
            len(list(itertools.groupby(report_mod._grid_for(t, cfg), key=lambda p: p[0])))
            for t in cfg.theorems
        ) * len(resolve_corpus(cfg))
        built, calls = [], []

        class Counting(FracParams):
            def __post_init__(self):
                built.append((self.a, self.x))
                super().__post_init__()

        signed_many = report_mod.ostrowski_signed_many

        def counting(f, a, b, x, mu, quad):
            calls.append((f.id, mu, list(x)))
            return signed_many(f, a, b, x, mu, quad)

        monkeypatch.setattr(report_mod, "FracParams", Counting)
        monkeypatch.setattr(report_mod, "ostrowski_signed_many", counting)
        run_sweep(cfg)
        assert len(built) == runs and all(x == a for a, x in built)
        assert len(calls) == len(pairs) and {(f, mu) for f, mu, _ in calls} == pairs
        for fid, mu, xs in calls:
            want = list(dict.fromkeys(x for _, f, x, m, *_ in verdicts if (f, m) == (fid, mu)))
            assert xs == want

    def test_group_states_each_point_once(self):
        # A group holds each of its points once, in the run of its mu, with
        # one column per point and one row per x: the renderer formats a
        # point's values once per group.
        cfg = parse_config(self.CONFIGS["two-u"])
        groups = run_sweep(cfg)["verdicts"].groups
        assert groups
        for g in groups:
            assert len(g.xs) == len(cfg.x_fracs)
            keys = [(bp.frac.mu, bp.alpha, bp.m, bp.q, bp.u) for r in g.runs for bp in r.points]
            assert len(set(keys)) == len(keys) > 1
            for r in g.runs:
                assert all(bp.frac.mu == r.mu and bp.v == 1.0 - bp.u for bp in r.points)
                assert r.lhs.shape == (len(g.xs),)
            assert g.rhs.shape == g.margin.shape == g.holds.shape == (len(g.xs), len(keys))
            assert g.holds.dtype == bool

    def test_rejected_bound_params_built_once_per_point(self, monkeypatch):
        cfg = parse_config(self.CONFIGS["no-claim"])
        rejected = sum(
            1 for t in cfg.theorems for _, alpha, *_ in report_mod._grid_for(t, cfg)
            if alpha == 0.25
        )
        assert rejected and len(cfg.x_fracs) > 1
        built = []

        class Counting(BoundParams):
            def __post_init__(self):
                built.append(self.alpha)
                super().__post_init__()

        monkeypatch.setattr(report_mod, "BoundParams", Counting)
        for f in resolve_corpus(cfg):
            built.clear()
            for theorem in cfg.theorems:
                report_mod._points(theorem, f, cfg)
            assert built.count(0.25) == rejected


class TestSweepMatchesPerVerdictOracle:
    """The columnar sweep returns, record for record (`verdict_rows`), the
    report of the per-verdict sweep it replaced (tests/sweep_oracle.py) and
    renders to the same bytes.  The exceptions are the theorems whose printed product
    groups otherwise than point factor times geometry factor: `set`
    (M * geometry factor / (mu + 1)) and, where b - a is not a power of 2,
    `mu1` (... * ((x-a)^2 + (b-x)^2) / (2(b-a))).  Their rhs and margin may
    differ from the oracle's by 1e-15 relative to the oracle's rhs."""

    REGROUPED = ("set", "mu1")

    QUAD_DENSE = QUAD_DENSE_SWEEP
    EXTRA_MEMBER = (
        "functions = powdecay,aff\nx_fracs = 0.1,0.5,0.9\nmu = 0.5,1.5\n"
        "function.aff = affine slope=0.5 intercept=0.25 lo=1.0 hi=2.5\n"
    )

    @classmethod
    def _assert_same(cls, got, want):
        want = {**want, "summary": dict(want["summary"]),
                "verdicts": [dict(w) for w in want["verdicts"]]}
        rows = list(verdict_rows(got))
        for g, w in zip(rows, want["verdicts"]):
            if w["theorem"] in cls.REGROUPED:
                for key in ("rhs", "margin"):
                    assert abs(g[key] - w[key]) <= 1e-15 * abs(w["rhs"])
                    w[key] = g[key]
        for theorem in cls.REGROUPED:
            margins = [w["margin"] for w in want["verdicts"] if w["theorem"] == theorem]
            if margins:
                want["summary"][theorem] = {**want["summary"][theorem],
                                            "worst_margin": min(margins)}
        assert {**got, "verdicts": rows} == want
        for fmt in ("json", "csv"):
            assert render_report(got, fmt) == sweep_oracle.render(want, fmt)

    def test_default_sweep(self, default_sweep):
        self._assert_same(default_sweep, sweep_oracle.run_sweep(SweepConfig()))

    @pytest.mark.parametrize("case", sorted(TestHypothesesCheckedOncePerPoint.CONFIGS))
    def test_structure_configs(self, case):
        cfg = parse_config(TestHypothesesCheckedOncePerPoint.CONFIGS[case])
        self._assert_same(run_sweep(cfg), sweep_oracle.run_sweep(cfg))

    # alpha, m and q off the default grid, at the default x and mu.
    OFF_GRID = "alpha = 0.3\nm = 0.4\nq = 2.5\n"

    @pytest.mark.parametrize("text", [QUAD_DENSE, EXTRA_MEMBER, OFF_GRID],
                             ids=["quad-dense", "extra", "off-grid"])
    def test_other_configs(self, text):
        cfg = parse_config(text)
        got = run_sweep(cfg)
        assert got["verdicts"].groups
        self._assert_same(got, sweep_oracle.run_sweep(cfg))

    def test_point_factor_times_geometry_is_the_rhs(self, corpus):
        """Over the default grid, for every theorem: the factor of the point
        at the first x, times the geometry factor at any x, is bit for bit
        the scalar RHS, and the printed product there (for `set`, within
        1e-15 relative)."""
        cfg = SweepConfig()
        checked = 0
        for theorem, record in THEOREMS.items():
            for f in corpus.values():
                a, b = f.domain
                fracs = [FracParams(a, b, a + t * (b - a), mu)
                         for t in cfg.x_fracs for mu in cfg.mus]
                for mu, alpha, m, q, u in report_mod._grid_for(theorem, cfg):
                    at = [fr for fr in fracs if fr.mu == mu]
                    bps = [BoundParams(fr, f.M, alpha, m, q, u) for fr in at]
                    try:
                        _check_hypotheses(theorem, f, bps[0])
                    except HypothesisError:
                        continue
                    factor = record.factor(bps[0])
                    got = [(factor * geometry_factor(bp.frac)).hex() for bp in bps]
                    assert got == [record.rhs(bp).hex() for bp in bps]
                    printed = [sweep_oracle.RHS[theorem](bp) for bp in bps]
                    if theorem == "set":
                        assert all(abs(float.fromhex(g) - p) <= 1e-15 * p
                                   for g, p in zip(got, printed))
                    else:
                        assert got == [p.hex() for p in printed]
                    checked += len(bps)
        # Every verdict of the default sweep.
        assert checked == 17892


class TestDenseStressSweep:
    """The dense stress sweep through `cli.main`: t22 and set on the whole
    corpus at 99 x-fractions and small mu.  Every verdict holds, and the
    written report is stable."""

    DENSE = DENSE_SWEEP
    KEYS = ("theorem", "function", "x", "mu", "alpha", "m", "q", "u")

    @staticmethod
    def _sweep(directory, text, name):
        cfg, out = directory / f"{name}.cfg", directory / f"{name}.json"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
        return out.read_bytes()

    @pytest.fixture(scope="class")
    def dense(self, tmp_path_factory):
        return self._sweep(tmp_path_factory.mktemp("dense"), self.DENSE, "dense")

    def test_every_verdict_holds(self, dense):
        verdicts = json.loads(dense)["verdicts"]
        assert len(verdicts) == 3564
        assert all(v["holds"] for v in verdicts), [v for v in verdicts if not v["holds"]][:3]

    def test_file_equals_its_indented_dump(self, dense):
        # The renderer against an independent one: json's own indented dump.
        text = dense.decode()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_repeated_sweep_is_byte_identical(self, dense, tmp_path):
        # Not pinned to a SHA-256: lhs bits can differ between hosts.
        assert self._sweep(tmp_path, self.DENSE, "again") == dense

    @pytest.mark.parametrize("frac", ["0.005", "0.505", "0.985"])
    def test_one_x_fraction_has_the_dense_lhs_bits(self, dense, tmp_path, frac):
        # Each (f, mu) batch is two integrals here, against the 198 of the
        # dense batches; each integral's sums are its own, so batching must
        # not change a bit of any lhs.
        text = "\n".join(f"x_fracs = {frac}" if line.startswith("x_fracs") else line
                         for line in self.DENSE.splitlines()) + "\n"
        one = json.loads(self._sweep(tmp_path, text, "one"))["verdicts"]
        assert len(one) == 36
        lhs = {tuple(v[k] for k in self.KEYS): v["lhs"] for v in json.loads(dense)["verdicts"]}
        assert [lhs[tuple(v[k] for k in self.KEYS)].hex() for v in one] == [
            v["lhs"].hex() for v in one]


class TestCanonicalText:
    """`canonical_text` is the fingerprinted statement of a config: parsed
    back, it must give the same config."""

    EXTRA = (
        "function.aff = affine slope=0.5 intercept=0.25 lo=1.0 hi=2.5 declared_M=0.75\n"
        "function.ed = exp_decay M=0.5 lam=0.02 lo=1 hi=2\n"
        "format = csv\nabs_tol = 1e-11\nmax_subdivisions = 8\n"
    )
    CONFIGS = {"default": "", "small": SMALL_SWEEP, "extra": EXTRA,
               **TestHypothesesCheckedOncePerPoint.CONFIGS}

    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_parses_back(self, case):
        cfg = parse_config(self.CONFIGS[case])
        assert parse_config(cfg.canonical_text()) == cfg


def test_module_entry_point_in_real_processes(tmp_path):
    """`python -m ostrowski_frac.cli`, each command in its own process, run
    from a directory outside the repo: the exit codes 0, 1 and 2 and what
    each writes to stdout and stderr.  An exception that escaped `main` would
    exit 1 with a traceback.  The only test here that spawns a process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cases = [
        ("check-convexity --f powdecay --alpha 0.5 --m 0.5 --q 2", 0, "pass\n", ""),
        ("check-convexity --f expdecay", 1, "counterexample x=1 y=2 t=0.5 "
         "lhs=0.49587497438321498 rhs=0.49502491687458405\n", ""),
        ("frac-int --f powdecay --x 1.5 --mu 400", 2, "",
         "error: gamma(401.0) overflows a float\n"),
    ]
    procs = [subprocess.Popen([sys.executable, "-m", "ostrowski_frac.cli", *argv.split()],
                              cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for argv, *_ in cases]
    for proc, (argv, rc, out, err) in zip(procs, cases):
        got_out, got_err = proc.communicate(timeout=60)
        assert (proc.returncode, got_out, got_err) == (rc, out, err), argv
