import collections
import csv
import dataclasses
import fractions
import hashlib
import io
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
from ostrowski_frac import fracint
from ostrowski_frac import report as report_mod
from ostrowski_frac import verify as verify_mod
from ostrowski_frac.bounds import BoundParams, geometry_factor
from ostrowski_frac.cli import main
from ostrowski_frac.fracint import ConvergenceError, DomainError, FracParams, QuadConfig
from ostrowski_frac.report import (
    ConfigError,
    SweepConfig,
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

    @pytest.mark.parametrize("alpha,m,margin,bound", [
        # The exact margin (1 - m) ln 2 - (1 - alpha) / alpha * 0.04 ln 2 is 0
        # at each of these; in floats it is -1.4e-17 at the first and > 0 at
        # the others, each within its rounding bound, so none is certified.
        ("0.25", "0.88", "-1.3877787807814457e-17", "2.955064163756787e-16"),
        ("0.5", "0.96", "2.42861286636753e-17", "9.850213879189296e-17"),
        ("0.8", "0.99", "7.806255641895632e-18", "2.4625534697973234e-17"),
        ("0.2", "0.84", "1.3877787807814457e-17", "3.9400855516757164e-16"),
        ("0.4", "0.94", "4.163336342344337e-17", "1.4775320818783943e-16"),
    ], ids=["0.25-0.88", "0.5-0.96", "0.8-0.99", "0.2-0.84", "0.4-0.94"])
    def test_margin_zero_names_no_witness(self, capsys, alpha, m, margin, bound):
        rc = main(["check-convexity", "--f", "powdecay", "--alpha", alpha, "--m", m])
        assert rc == 1
        assert capsys.readouterr().out == (
            f"FAIL: not a member by its certificate; margin {margin} is within its "
            f"rounding bound {bound} of 0\n")

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

    @pytest.mark.parametrize("extra, message", [
        (["--x", "5", "--mu", "0"], "x in [a, b] required"),
        (["--x", "5", "--alpha", "0"], "x in [a, b] required"),
        (["--x", "1.4", "--mu", "nan", "--alpha", "0"], "mu must be finite"),
    ], ids=["x-and-mu", "x-and-alpha", "mu-and-alpha"])
    def test_first_of_two_faults_is_named(self, capsys, extra, message):
        # The instance (a, b, x, mu) is checked before the point (alpha, m,
        # q, u), and x before mu.
        assert main(["verify", "--theorem", "t22", "--f", "powdecay", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

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


class TestTinyMu:
    """Below mu of about 1.25e-305 the quadrature rule's weights overflow.
    Every command names that with exit 2, the sweep before any quadrature,
    and none warns: the test run turns every warning into an error."""

    MESSAGE = "mu too small for finite quadrature weights"
    VERIFY = ["verify", "--theorem", "t22", "--f", "powdecay", "--x", "1.4",
              "--alpha", "0.5", "--m", "0.5", "--mu"]
    FRAC_INT = ["frac-int", "--f", "powdecay", "--x", "1.4", "--mu"]

    @pytest.mark.parametrize("argv", [VERIFY, FRAC_INT, [*FRAC_INT[:-1], "--upper", "--mu"]],
                             ids=["verify", "frac-int", "frac-int-upper"])
    @pytest.mark.parametrize("mu", ["1e-310", "1.2e-305"])
    def test_command_exits_2(self, capsys, argv, mu):
        assert main([*argv, mu]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {self.MESSAGE}\n"

    def test_sweep_names_the_value_before_any_quadrature(self, tmp_path, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(report_mod, "ostrowski_signed_many", boom)
        path = tmp_path / "tiny.cfg"
        path.write_text("mu = 0.5,1e-310\n")
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: mu = 1e-310: {self.MESSAGE}\n"

    def test_mu_1e_300_still_works(self, tmp_path, capsys):
        assert main([*self.VERIFY, "1e-300"]) == 0
        assert main([*self.FRAC_INT, "1e-300"]) == 0
        path = tmp_path / "small.cfg"
        path.write_text("functions = powdecay\ntheorems = t22\nx_fracs = 0.5\nmu = 1e-300\n"
                        "alpha = 0.5\nm = 0.5\n")
        assert main(["sweep", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 0
        assert "error" not in capsys.readouterr().err


class TestLargeMu:
    """Above mu of about 150 on [1, 2] at x = 1.4, the scale |x - c|^mu /
    Gamma(mu + 1) of a fractional integral is subnormal, and by mu = 160
    it is 0, which once made the lhs f(x)'s term alone and let a false
    inequality pass.  Every command names the line with exit 2; a line of
    width 0 keeps its exact scale 0."""

    VERIFY = ["verify", "--theorem", "t22", "--f", "powdecay", "--x", "1.4", "--mu"]
    FRAC_INT = TestTinyMu.FRAC_INT

    @pytest.mark.parametrize("argv, mu, line", [
        (VERIFY, "170", "anchored at 1.0 with end 1.4, mu = 170.0"),
        (VERIFY, "150", "anchored at 1.0 with end 1.4, mu = 150.0"),
        (FRAC_INT, "160", "anchored at 1.4 with end 1.0, mu = 160.0"),
        ([*FRAC_INT[:-1], "--upper", "--mu"], "160", "anchored at 1.4 with end 2.0, mu = 160.0"),
    ], ids=["verify-170", "verify-150", "frac-int", "frac-int-upper"])
    def test_command_exits_2(self, capsys, argv, mu, line):
        assert main([*argv, mu]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: fractional integral {line}: scale ")
        assert captured.err.endswith(" is below the smallest normal float\n")

    def test_sweep_names_the_function(self, tmp_path, capsys):
        # linear on [0, 3]: mu = 155 underflows the scale of its side
        # anchored at 0 with end 0.15, before any of its quadrature.
        path = tmp_path / "large-mu.cfg"
        path.write_text("mu = 0.5,155\n")
        assert main(["sweep", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: 'linear': fractional integral anchored at 0.0 with end "
            "0.15000000000000002, mu = 155.0: scale ")
        assert captured.err.endswith(" is below the smallest normal float\n")

    def test_mu_140_still_works(self, capsys):
        assert main([*self.VERIFY, "140"]) == 0
        assert main([*self.FRAC_INT, "140"]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["1.0", "2.0"])
    def test_zero_width_side_at_large_mu(self, x, capsys):
        # One side has width 0 and scale 0, the other width 1 and a normal
        # scale 1 / Gamma(171).
        assert main(["verify", "--theorem", "t22", "--f", "powdecay", "--x", x,
                     "--mu", "170"]) == 0
        assert "error" not in capsys.readouterr().err


class TestWideDomainOverflow:
    """On [1, 1000] at x = 500.5, |x - c|^mu of a fractional integral
    overflows a float from mu of about 114.2 on, the geometry factor's
    (x - a)^(mu + 1) a little earlier, and the sum of its two powers
    earlier still (mu of about 113.12).  Each is a DomainError that names
    it, with exit 2: never an OverflowError with the exit code 1 of a failed
    verdict, nor an inf rhs by which a verdict passes vacuously; below
    those mu the sweep runs.  A subnormal scale
    keeps its own text (`TestLargeMu`)."""

    WIDE = ("functions = wide\ntheorems = t22\nx_fracs = 0.5\nmu = {mu}\nalpha = 1\n"
            "m = 0.5\nq = 1\nfunction.wide = power_decay M=0.5 r=2 lo=1 hi=1000\n")
    INSTANCE = FracParams(1.0, 1000.0, 500.5, 114.0)

    @pytest.mark.parametrize("mu, message", [
        ("120", "'wide': fractional integral anchored at 1.0 with end 500.5, mu = 120.0: "
                "|end - anchor|^mu overflows a float"),
        ("114", "'wide': geometry factor at a = 1.0, b = 1000.0, x = 500.5, mu = 114.0: "
                "(x - a)^(mu + 1) or (b - x)^(mu + 1) overflows a float"),
        ("113.2", "'wide': geometry factor at a = 1.0, b = 1000.0, x = 500.5, mu = 113.2: "
                  "(x - a)^(mu + 1) + (b - x)^(mu + 1) overflows a float"),
    ], ids=["side-power", "geometry", "geometry-sum"])
    def test_sweep_exits_2(self, tmp_path, capsys, mu, message):
        path = tmp_path / "wide.cfg"
        path.write_text(self.WIDE.format(mu=mu))
        out = tmp_path / "r.json"
        assert main(["sweep", "--config", str(path), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.err

    def test_sweep_below_overflow_runs(self, tmp_path, capsys):
        path = tmp_path / "wide.cfg"
        path.write_text(self.WIDE.format(mu="100"))
        assert main(["sweep", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 0
        assert "error" not in capsys.readouterr().err

    def test_verify_theorem_and_identity_raise(self):
        (f,) = resolve_corpus(parse_config(self.WIDE.format(mu="114")))
        bp = BoundParams(f.M, 1.0, 0.5, 1.0)
        with pytest.raises(DomainError, match=r"^geometry factor at a = 1\.0, b = 1000\.0, "
                           r"x = 500\.5, mu = 114\.0: .* overflows a float$"):
            verify_mod.verify_theorem("t22", f, self.INSTANCE, bp)
        with pytest.raises(DomainError, match=r"^weight .* of the identity for 'wide' at "
                           r"a = 1\.0, b = 1000\.0, x = 500\.5, mu = 114\.0 overflows a float$"):
            verify_mod.lemma_identity_residual(f, self.INSTANCE)

    def test_verify_theorem_raises_on_the_geometry_sum(self):
        # Each power is finite at mu = 113.2, but their sum is not: the rhs
        # would be inf and the verdict would pass vacuously.
        (f,) = resolve_corpus(parse_config(self.WIDE.format(mu="113.2")))
        instance = FracParams(1.0, 1000.0, 500.5, 113.2)
        assert not fracint.pow_overflows(499.5, 114.2)  # x - a = b - x = 499.5
        with pytest.raises(DomainError, match=r"^geometry factor at a = 1\.0, b = 1000\.0, "
                           r"x = 500\.5, mu = 113\.2: \(x - a\)\^\(mu \+ 1\) \+ .* "
                           r"overflows a float$"):
            verify_mod.verify_theorem("t22", f, instance, BoundParams(f.M, 1.0, 0.5, 1.0))


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
        # The sweep looks the record up at call time; t26, whose factor t22
        # shares, keeps its own.
        t22 = THEOREMS["t22"]
        monkeypatch.setitem(THEOREMS, "t22", dataclasses.replace(
            t22, factor=lambda bp, mu: 0.5 * t22.factor(bp, mu)))

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
          "error: function id 'com,ma' must be non-empty, without ',', '\"', '=', "
          "'#', a line break or leading or trailing whitespace\n"),
         ("function. = affine slope=0.5 intercept=0.25 lo=1.0 hi=2.5",
          "error: function id '' must be non-empty, without ',', '\"', '=', "
          "'#', a line break or leading or trailing whitespace\n"),
         ('function.q"t = affine slope=0.5 intercept=0.25 lo=1.0 hi=2.5',
          "error: function id 'q\"t' must be non-empty, without ',', '\"', '=', "
          "'#', a line break or leading or trailing whitespace\n"),
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
            ("mu = 0.5,1e-310", "mu = 1e-310: mu too small for finite quadrature weights"),
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

    def test_repeated_family_parameter_exits_2(self, tmp_path, capsys):
        # The second value replaced the first, so the member differed from
        # its config line, and its fingerprint from the line written once.
        text = "function.aff = affine slope=0.5 slope=0.9 intercept=0.25 lo=1.0 hi=2.5\n"
        message = "repeated parameter 'slope' in function 'aff'"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(text)
        path = tmp_path / "twice.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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
        cfg = parse_config(SMALL_SWEEP + "format = csv\nabs_tol = 1e-11\n")
        report = run_sweep(cfg)
        text = render_report(report, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == ("theorem,lhs,rhs,margin,holds,tol_margin,function,a,b,x,mu,"
                            "alpha,m,M,q,u,v")
        assert len(lines) == len(list(verdict_rows(report))) + 1
        assert [len(fields) for fields in csv.reader(lines)] == [17] * len(lines)
        assert all(s["fail"] == 0 for s in report["summary"].values())
        # Each group carries the verdict rule's tolerance, 100 * abs_tol
        # (9.999999999999999e-10 here), and so does each record of both
        # formats.
        tol_margin = 100.0 * 1e-11
        assert report["verdicts"] and {g.tol_margin for g in report["verdicts"]} == {tol_margin}
        assert {r[5] for r in csv.reader(lines[1:])} == {repr(tol_margin)}
        records = json.loads(render_report(report, "json"))["verdicts"]
        assert len(records) == len(lines) - 1
        assert {r["tol_margin"] for r in records} == {tol_margin}

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

    @staticmethod
    def _with_non_finite_run():
        """The small sweep's report, its first group of several mus between
        two copies of itself with inf in one rhs and nan in one margin, both
        at one mu, and only finite values at its other mus."""
        report = run_sweep(parse_config(SMALL_SWEEP))
        groups = report["verdicts"]
        g = next(g for g in groups if len(g.mus) >= 2)
        first, *others = g.mus
        rhs, margin = g.rhs.copy(), g.margin.copy()
        rhs[0, 0, 0], margin[-1, 0, -1] = float("inf"), float("nan")
        assert np.isfinite(rhs[:, 1:]).all() and np.isfinite(margin[:, 1:]).all()
        # The tables' mu axis in the order of the group's mus.
        order = [*range(1, len(g.mus)), 0, *range(1, len(g.mus))]
        group = g._replace(mus=(*others, first, *others), lhs=g.lhs[:, order],
                           rhs=rhs[:, order], margin=margin[:, order], holds=g.holds[:, order])
        return {**report, "verdicts": [g, group, g]}

    def test_non_finite_run_beside_finite_ones(self):
        # Each value of a group that holds inf and nan at one mu is written
        # as json writes it, and so are the finite values at its other mus.
        report = self._with_non_finite_run()
        text = render_report(report, "json")
        assert text == self._oracle(report)
        assert '"rhs": Infinity' in text and '"margin": NaN' in text

    def _assert_csv_reads_back(self, report):
        """Every field of the CSV report, read back through `csv.DictReader`,
        is its `verdict_rows` value: a float with the same bits (`.hex()`,
        nan and the infinities included), an empty field as None, true and
        false as bools, and each id as itself."""
        def value(key, text):
            if key in ("theorem", "function"):
                return text
            if key == "holds":
                return {"true": True, "false": False}[text]
            return None if text == "" else float(text).hex()

        reader = csv.DictReader(io.StringIO(render_report(report, "csv")))
        assert reader.fieldnames == list(self.RECORD_KEYS)
        got = [{k: value(k, text) for k, text in r.items()} for r in reader]
        want = [{k: v.hex() if isinstance(v, float) else v for k, v in r.items()}
                for r in verdict_rows(report)]
        assert len(got) == len(want)
        # The first record that differs, not a diff of all of them.
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert bad is None, (bad, got[bad], want[bad])
        return got

    def test_default_csv_reads_back_as_verdict_rows(self, default_sweep):
        got = self._assert_csv_reads_back(default_sweep)
        assert len(got) == 17892
        assert {r["u"] is None for r in got} == {True, False}

    def test_non_finite_csv_reads_back_as_verdict_rows(self):
        got = self._assert_csv_reads_back(self._with_non_finite_run())
        assert "inf" in {r["rhs"] for r in got} and "nan" in {r["margin"] for r in got}

    def test_json_without_verdicts(self):
        report = {"config_fingerprint": "0" * 64, "version": "0.1.0",
                  "summary": {}, "verdicts": []}
        assert render_report(report, "json") == self._oracle(report)
        # Groups, x values and mu values without a verdict list none either.
        empty = np.empty((1, 1, 0))
        group = report_mod.Group("t22", "f", 0.0, 1.0, [0.5], (1.0, 1.0), np.zeros((1, 2)),
                                 [], empty, empty, empty.astype(bool), 1e-8)
        none = np.empty((0, 0, 0))
        report["verdicts"] = [
            group, group._replace(mus=(), lhs=np.zeros((1, 0))),
            group._replace(xs=[], mus=(), lhs=np.zeros((0, 0)), rhs=none, margin=none,
                           holds=none.astype(bool))]
        assert render_report(report, "json") == self._oracle(report)
        # Beside a sweep's group, a point-less group with mu values adds no
        # verdict, and the sweep's holds stay bools.
        sweep = run_sweep(parse_config(SMALL_SWEEP))
        g, *_ = sweep["verdicts"]
        alone = render_report({**sweep, "verdicts": [g]}, "json")
        point_less = g._replace(points=[], rhs=np.empty((len(g.xs), len(g.mus), 0)),
                                margin=np.empty((len(g.xs), len(g.mus), 0)),
                                holds=np.empty((len(g.xs), len(g.mus), 0), dtype=bool))
        sweep["verdicts"] = [point_less, g, point_less]
        text = render_report(sweep, "json")
        assert text == self._oracle(sweep) == alone
        assert '"holds": true' in text and '"holds": 0.0' not in text

    def test_groups_of_one_function_with_their_own_columns(self):
        # Groups of one function at the same mu values whose lhs tables, or
        # x lists, are other objects with other values: the renderer keeps a
        # table's text by the table's identity, never by (function, mus).
        report = run_sweep(parse_config(SMALL_SWEEP))
        groups = report["verdicts"]
        g = groups[0]
        own_lhs = g._replace(theorem="own lhs", lhs=g.lhs + 1.0)
        own_xs = g._replace(theorem="own xs", xs=[x + 1.0 for x in g.xs])
        assert own_lhs.mus == g.mus
        report = {**report, "verdicts": [g, own_lhs, own_xs, g, *groups]}
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
        report = {"version": "1", "verdicts": []}
        with pytest.raises(ValueError, match=f"unknown report format {fmt!r}"):
            report_chunks(report, fmt)
        with pytest.raises(ValueError, match=f"unknown report format {fmt!r}"):
            render_report(report, fmt)

    def test_json_verdicts_last_equals_indented_dump(self):
        report = {"version": "1", "verdicts": []}
        assert render_report(report, "json") == self._oracle(report)

    # Equal values with different text (0.0 and -0.0; 1, 1.0 and True) and
    # values json spells its own way: what a group's scalars or mu may hold.
    POOL = [0.0, -0.0, 1, 1.0, True, False, None, float("nan"), float("inf"),
            float("-inf"), 0.1, 1e300, 5e-324, -7, 2**70, "t22",
            'q"uote', "com,ma", "new\nline", "},", "},\n      {", "ünïcødé ∫"]
    # What an x may hold: the floats among them.
    X_POOL = [v for v in POOL if type(v) is float]
    # The floats a run's lhs and a group's rhs and margin may hold: finite
    # ones, and with them those json spells its own way.
    FINITE = [0.0, -0.0, 0.1, 1.0, 1e300, -1e300, 5e-324, -5e-324, 1 - 2**-53,
              # Beside where repr switches to exponent notation.
              1e-4, 9.999999999999999e-05, 1.2777531299829059e-05, 1e16,
              9999999999999998.0, -1e-05]
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

        def value(pool=self.POOL):
            # An equal value in a distinct object, where one can be made.
            v = rng.choice(pool)
            return float(repr(v)) if type(v) is float and rng.random() < 0.5 else v

        def floats(shape, pool):
            return np.array([rng.choice(pool) for _ in range(int(np.prod(shape)))],
                            dtype=float).reshape(shape)

        def points():
            return [
                BoundParams(**{k: rng.choice(vs) for k, vs in self.POINT_VALUES.items()})
                for _ in range(rng.randint(0, 5))
            ]

        def holds_of(shape):
            return np.array([rng.random() < 0.5 for _ in range(int(np.prod(shape)))],
                            dtype=bool).reshape(shape)

        groups, kinds, rows = [], set(), set()
        # Until each kind of shared table or repeated row below has come up.
        while sum(g.rhs.size for g in groups) < 300 or rows != {
                "shared", "shared lhs", "other mus", "repeated", "repeated non-finite",
                "signed zero"}:
            draw = rng.random() if groups else 1.0
            if draw < 0.45:
                g = rng.choice(groups)
            if draw < 0.15:
                # A group that shares an earlier group's rhs table, as alike
                # groups of a sweep do, with its own lhs, margin and holds.
                groups.append(g._replace(
                    theorem=value(), function=value(), lhs=floats(g.lhs.shape, self.FLOATS),
                    margin=floats(g.rhs.shape, self.FLOATS), holds=~g.holds))
                rows.add("shared")
                continue
            if draw < 0.3:
                # A group that shares an earlier group's x list, mu values and
                # lhs table, as a function's groups of equal mus do, with its
                # own points and verdict tables.
                listed = points()
                shape = (len(g.xs), len(g.mus), len(listed))
                groups.append(g._replace(
                    theorem=value(), points=listed, rhs=floats(shape, self.FLOATS),
                    margin=floats(shape, self.FLOATS), holds=holds_of(shape)))
                rows.add("shared lhs")
                continue
            if draw < 0.45:
                # A group that shares an earlier group's x list, with other mu
                # values, as a `mu1` group beside the other groups of its
                # function: some of the earlier group's, with their lhs
                # columns copied into a table of its own, and one more, so
                # that it has another number of them.
                count = rng.choice([n for n in range(len(g.mus) + 1) if n != len(g.mus) - 1])
                cols = rng.sample(range(len(g.mus)), count)
                mus = (*[g.mus[j] for j in cols], value())
                assert len(mus) != len(g.mus)
                lhs = np.concatenate([g.lhs[:, cols], floats((len(g.xs), 1), self.FLOATS)],
                                     axis=1)
                listed = points()
                shape = (len(g.xs), len(mus), len(listed))
                groups.append(g._replace(
                    theorem=value(), mus=mus, lhs=lhs, points=listed,
                    rhs=floats(shape, self.FLOATS), margin=floats(shape, self.FLOATS),
                    holds=holds_of(shape)))
                rows.add("other mus")
                continue
            xs = [value(self.X_POOL) for _ in range(rng.randint(0, 6))]
            mus = tuple(value() for _ in range(rng.randint(0, 4)))
            lhs = floats((len(xs), len(mus)), self.FLOATS)
            listed = points()
            shape = (len(xs), len(mus), len(listed))
            # An all-finite table, or one that may mix finite and not.
            pool = rng.choice((self.FINITE, self.FLOATS))
            rhs, margin = floats(shape, pool), floats(shape, pool)
            by_x = rhs.reshape(len(xs), -1) if xs else rhs  # a view, its rows the report's
            if by_x.shape[0] >= 2 and by_x.shape[1] and rng.random() < 0.5:
                # A row repeated bit for bit, or one equal to another as
                # floats but not as bits: a text kept by value would take
                # the other's.
                i, j = rng.sample(range(by_x.shape[0]), 2)
                by_x[j] = by_x[i]
                if rng.random() < 0.5:
                    k = rng.randrange(by_x.shape[1])
                    by_x[i, k], by_x[j, k] = 0.0, -0.0
                    rows.add("signed zero")
                else:
                    rows.add("repeated" if np.isfinite(by_x[i]).all() else "repeated non-finite")
            kinds.add(bool(np.isfinite(rhs).all() and np.isfinite(margin).all()))
            groups.append(report_mod.Group(value(), value(), value(), value(), xs, mus, lhs,
                                           listed, rhs, margin, holds_of(shape), value()))
        assert kinds == {True, False}
        report = {"config_fingerprint": "0" * 64, "version": "0.1.0",
                  "summary": {"t22": {"pass": 1, "fail": 0, "worst_margin": -0.0}},
                  "verdicts": groups}
        assert render_report(report, "json") == self._oracle(report)
        # The same tables in CSV, equal to csv.writer's text of the records,
        # with each value a CSV field may not hold (strings) replaced by one
        # float per object, so that shared mus stay shared.
        safe = {}

        def field(v):
            if isinstance(v, str):
                return safe.setdefault(id(v), (v, float(len(safe))))[1]
            return v

        def fields(vs):
            return safe.setdefault(id(vs), (vs, type(vs)(map(field, vs))))[1]

        report["verdicts"] = [
            g._replace(theorem="t", function="f", a=field(g.a), b=field(g.b),
                       mus=fields(g.mus), tol_margin=field(g.tol_margin)) for g in groups]
        rows = list(verdict_rows(report))
        assert render_report(report, "csv") == sweep_oracle.render(
            {**report, "verdicts": rows}, "csv")

    def test_table_texts_are_repr(self):
        """`_texts` writes a finite float table as `float.__repr__` does, as a
        list and as an array: on seeded random bit patterns, each binade
        as often as the next; on log-uniform draws from the range where
        repr's notation is plain, where the text is orjson's; and on the
        floats at and beside the bounds of that range."""
        rng = np.random.default_rng(2018)
        n = 200_000
        sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
        bits = (sign | (np.arange(n, dtype=np.uint64) % np.uint64(2047) << np.uint64(52))
                | rng.integers(0, 2**52, n, dtype=np.uint64))
        plain = np.copysign(10.0 ** rng.uniform(-4, 16, n), sign.view(np.float64))
        edges = [np.nextafter(v, to) for v in (1e-4, 1e16) for to in (0.0, v, np.inf)]
        special = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3,
                   *edges]
        values = np.concatenate([[*special, *(-v for v in special)], bits.view(np.float64),
                                 plain])
        assert np.isfinite(values).all()
        want = list(map(float.__repr__, values.tolist()))
        assert report_mod._texts(values, None) == want
        assert report_mod._texts(values.reshape(2, -1), None) == want
        assert report_mod._texts(values.tolist(), None) == want

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
        group, *_ = base["verdicts"]
        mu = group.mus[0]
        bp, rhs, holds = group.points[0], group.rhs[0, 0, 0], group.holds[0, 0, 0]
        points = [dataclasses.replace(bp, u=None), bp]
        ids = ['q"uote', "com,ma", "new\nline", "},", "},\n      {", "ünïcødé ∫"]
        specials = [float("nan"), float("inf"), float("-inf"), -0.0]
        tiny_huge = [5e-324, 1e300, -1e300, -0.0]
        groups = []
        for k, fid in enumerate(ids):
            # Two columns of one mu: an lhs column that mixes finite and
            # non-finite values over x, and one that holds extreme finite ones.
            lhs = np.array([[specials[k % 4], tiny_huge[k % 4]], [rhs, -0.0]])
            groups.append(group._replace(
                function=fid, xs=[group.xs[0], -0.0], mus=(mu, mu), lhs=lhs, points=points,
                rhs=np.array([[rhs, specials[(k + 2) % 4], tiny_huge[(k + 1) % 4], rhs],
                              [specials[(k + 2) % 4], rhs, rhs, tiny_huge[(k + 2) % 4]]]
                             ).reshape(2, 2, 2),
                margin=np.array([[specials[(k + 1) % 4], -0.0, -0.0, tiny_huge[(k + 3) % 4]],
                                 [-0.0, specials[(k + 1) % 4], tiny_huge[k % 4], -0.0]]
                                ).reshape(2, 2, 2),
                holds=np.array([[holds, not holds, holds, holds],
                                [not holds, holds, not holds, holds]]).reshape(2, 2, 2)))
        report = {**base, "verdicts": groups}
        assert render_report(report, "json") == self._oracle(report)

    def test_records_hold_python_values(self, default_sweep):
        # json and the oracle's CSV writer tell a bool by its type, which a
        # numpy bool fails: every record value is a Python one.
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

        def nan_in_the_middle(f, a, b, x, mus, quad):
            values = signed_many(f, a, b, x, mus, quad)
            values[:, 1] = float("nan")
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
    """The sweep integrates one batch per function, over its mu values; what
    it reports and raises must be what one instance at a time gives."""

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

    def test_later_subnormal_scale_before_earlier_failure(self, tmp_path, capsys):
        # mu = 0.1 fails at depth 1 at x = 7.75 (as in "by-mu"), and mu =
        # 150, later, underflows the scale of the side anchored at 1 with
        # end 1.09.  Every mu's scales are checked before the function's
        # quadrature, so the later mu's DomainError is raised.
        text = self.T22_DEPTH_1 + (
            "functions = wide\nx_fracs = 0.75,0.01\nmu = 0.1,150\n"
            "function.wide = power_decay M=0.5 r=21 lo=1.0 hi=10.0\n")
        cfg = parse_config(text)
        (f,) = resolve_corpus(cfg)
        with pytest.raises(ConvergenceError, match=r"^fractional integral anchored at 1\.0 "
                           r"with end 7\.75, mu = 0\.1: quadrature on "):
            ostrowski_lhs(f, FracParams(1.0, 10.0, 7.75, 0.1), cfg.quad)
        path = tmp_path / "later-subnormal.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: 'wide': fractional integral anchored at 1.0 with end 1.09, mu = 150.0: "
            "scale |end - anchor|^mu / Gamma(mu + 1) = 0.0 is below the smallest normal float")

    @pytest.mark.parametrize("text,xs", [("", 9), (DENSE_SWEEP, 99)], ids=["default", "dense"])
    def test_one_level_0_evaluation_per_function(self, text, xs, monkeypatch):
        """The integrand of a function's sides is evaluated on the level-0
        nodes once for all its mu values (the default sweep has 4, the
        dense one 6): one batch for each of the 4 functions with verdicts,
        two sides per distinct x, 49 nodes per side."""
        batch = fracint.clenshaw_curtis_many
        level_0 = []  # the points of each batch's first integrand call

        def spy(phi, count, mus, cfg):
            sizes = []

            def counted(u, k):
                sizes.append(u.size)
                return phi(u, k)

            try:
                return batch(counted, count, mus, cfg)
            finally:
                level_0.append(sizes[0])

        monkeypatch.setattr(fracint, "clenshaw_curtis_many", spy)
        run_sweep(parse_config(text))
        assert level_0 == [xs * 2 * (fracint.CC_DEGREE + 1)] * 4

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
        assert report_mod._points("t22", tiny, cfg)[1]

        def boom(u):
            raise RuntimeError("integrand evaluated")

        spec = dataclasses.replace(tiny, f=boom, fprime=boom)
        monkeypatch.setattr(report_mod, "resolve_corpus", lambda cfg: [spec])
        with pytest.raises(DomainError) as got:
            run_sweep(cfg)
        assert str(got.value) == ("'tiny': t26 at mu=0.5, alpha=1.0, m=0.25, q=3.0, u=None: "
                                  "c in [float_info.min, 1] required")

    def test_point_factor_error_names_the_point(self, tmp_path, capsys):
        # At q = 1e308, t26's c = M^(q alpha (1-m)) underflows to 0 at the
        # first point of affine08, the first function with a t26 point.
        path = tmp_path / "huge-q.cfg"
        path.write_text("theorems = t26\nq = 1e308\n")
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: 'affine08': t26 at mu=0.5, alpha=0.25, m=0.25, q=1e+308, u=None: "
            "c in [float_info.min, 1] required\n")


class TestHypothesesCheckedOncePerPoint:
    """The sweep decides the hypotheses over columns, once per value of
    each axis, and checks no point on its own; what it emits must be what
    one check per instance gives."""

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
        """One `_check_hypotheses` per instance of the oracle's grid, in
        sweep order: the emitted instances and the distinct points checked."""
        out, checked = [], set()
        for f in resolve_corpus(cfg):
            a, b = f.domain
            for theorem in cfg.theorems:
                for frac_x in cfg.x_fracs:
                    x = a + frac_x * (b - a)
                    for mu, alpha, m, q, u in sweep_oracle.grid(theorem, cfg):
                        frac = FracParams(a, b, x, mu)
                        bp = BoundParams(f.M, alpha, m, q, u)
                        checked.add((f.id, theorem, alpha, m, q, u))
                        try:
                            _check_hypotheses(theorem, f, frac.b, frac.mu, bp)
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
                mus, points, _ = report_mod._points(theorem, f, cfg)
                for frac_x in cfg.x_fracs:
                    x = a + frac_x * (b - a)
                    out += [(theorem, f.id, x, mu, bp.alpha, bp.m, bp.q, bp.u)
                            for mu in mus for bp in points]
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
            bp = BoundParams(v["M"], v["alpha"], v["m"], v["q"], v["u"])
            _check_hypotheses(v["theorem"], corpus[v["function"]], v["b"], v["mu"], bp)

    @staticmethod
    def _counting(monkeypatch):
        """Count, through `report`, the `BoundParams` built (as (alpha, m,
        q, u)) and, through `verify`, the one-row hypothesis checks."""
        built, checked = [], []

        class Counting(BoundParams):
            def __post_init__(self):
                built.append((self.alpha, self.m, self.q, self.u))
                super().__post_init__()

        def counting(*args):
            checked.append(args)
            return _check_hypotheses(*args)

        monkeypatch.setattr(report_mod, "BoundParams", Counting)
        monkeypatch.setattr(verify_mod, "_check_hypotheses", counting)
        return built, checked

    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_no_check_per_point(self, case, monkeypatch):
        cfg = parse_config(self.CONFIGS[case])
        built, checked = self._counting(monkeypatch)
        assert list(verdict_rows(run_sweep(cfg)))
        assert built and not checked

    def test_default_sweep_makes_no_check(self, monkeypatch):
        """The default sweep makes no one-row hypothesis check and builds
        one `BoundParams` per distinct admitted point of each (function,
        theorem): 605, where one per distinct grid point would be 1,194."""
        cfg = SweepConfig()
        want = sum(len(dict.fromkeys(p[1:] for p in self._admitted(theorem, f, cfg)))
                   for f in resolve_corpus(cfg) for theorem in cfg.theorems)
        built, checked = self._counting(monkeypatch)
        assert len(list(verdict_rows(run_sweep(cfg)))) == 17892
        assert not checked
        assert len(built) == want == 605

    @staticmethod
    def _reuse(cfg, monkeypatch, out_format="json"):
        """The sweep's report, with its point-factor evaluations (through
        the `bounds.factor_*` names) and `geometry_factors` calls counted,
        then the values the renderer formats (`report._texts`) in
        `out_format`: those of margin tables, and the others beyond one
        text per value of each x list and lhs table object."""
        counts = collections.Counter()

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted

        for name in dir(bnd):
            if name.startswith("factor_"):
                monkeypatch.setattr(bnd, name, counting("factor", getattr(bnd, name)))
        monkeypatch.setattr(report_mod, "geometry_factors",
                            counting("geometry", report_mod.geometry_factors))
        report = run_sweep(cfg)
        groups = [g for g in report["verdicts"] if g.holds.size]
        margins = {id(g.margin) for g in groups}
        texts = report_mod._texts

        def counted_texts(values, value):
            counts["margin text" if id(values) in margins else "text"] += np.size(values)
            return texts(values, value)

        monkeypatch.setattr(report_mod, "_texts", counted_texts)
        render_report(report, out_format)
        columns = {id(v): np.size(v) for g in groups for v in (g.xs, g.lhs)}
        counts["rhs text"] = counts.pop("text") - sum(columns.values())
        return report, counts

    def test_default_sweep_computes_each_recurring_value_once(self, monkeypatch):
        """A point factor once per (bounds factor, point values, mu), one
        callable for `mm` and `remark_q1` and one for `t22` and `t26`; a geometry column once per
        (domain, mu); an rhs table once per alike groups, powdecay's and
        expdecay's among them; and its text once per table.  Each margin
        is formatted once."""
        assert THEOREMS["mm"].factor is THEOREMS["remark_q1"].factor
        assert THEOREMS["t22"].factor is THEOREMS["t26"].factor
        report, counts = self._reuse(SweepConfig(), monkeypatch)
        groups = report["verdicts"]
        tables = {id(g.rhs): g.rhs for g in groups}
        assert counts == {"factor": 1160, "geometry": 8, "rhs text": 12168,
                          "margin text": 17892}
        assert (len(groups), len(tables)) == (21, 15)
        assert sum(t.size for t in tables.values()) == 12168
        assert sum(g.rhs.size for g in groups) == 17892
        by_function = {(g.theorem, g.function): g.rhs for g in groups}
        assert by_function["t22", "powdecay"] is by_function["t22", "expdecay"]

    def test_csv_formats_each_rhs_table_once(self, monkeypatch):
        """CSV renders through the same table texts as JSON: one rhs text
        per value of each distinct table, 12,168 on the default sweep, and
        one per margin."""
        _, counts = self._reuse(SweepConfig(), monkeypatch, "csv")
        assert counts == {"factor": 1160, "geometry": 8, "rhs text": 12168,
                          "margin text": 17892}

    def test_default_sweep_shares_one_lhs_table_per_function_and_mus(self):
        """The groups of a function with equal mus share one (x, mu) lhs
        array, and each `mu1` group has its own: 7 tables for 21 groups.
        Each column is bit for bit a one-mu `ostrowski_signed_many` call.
        A function's groups share one x list of Python floats."""
        cfg = SweepConfig()
        groups = run_sweep(cfg)["verdicts"]
        tables = {id(g.lhs): g for g in groups}
        assert (len(groups), len(tables)) == (21, 7)
        shared = {}
        for g in groups:
            assert shared.setdefault((g.function, g.mus), g.lhs) is g.lhs
        assert len(shared) == len(tables)
        mu1 = [g for g in groups if g.theorem == "mu1"]
        assert mu1 and all(g.mus == (1.0,) for g in mu1)
        assert all(sum(h.lhs is g.lhs for h in groups) == 1 for g in mu1)
        xs = {}
        for g in groups:
            assert xs.setdefault(g.function, g.xs) is g.xs
        assert len(xs) == 4  # const1 and const2 have no group
        assert all(type(v) is float for x_list in xs.values() for v in x_list)
        specs = {f.id: f for f in resolve_corpus(cfg)}
        for g in tables.values():
            assert g.lhs.shape == (len(g.xs), len(g.mus)) and g.lhs.dtype == np.float64
            for j, mu in enumerate(g.mus):
                (want,) = np.abs(verify_mod.ostrowski_signed_many(
                    specs[g.function], g.a, g.b, g.xs, (mu,), cfg.quad))
                assert [v.hex() for v in g.lhs[:, j].tolist()] == [v.hex() for v in want.tolist()]

    def test_quad_dense_shares_tables_but_repeats_no_row(self, monkeypatch):
        # Seeded x-fractions are not mirrored: no rhs row recurs within a
        # table.  Each distinct table's values are formatted once each.
        report, counts = self._reuse(parse_config(QUAD_DENSE_SWEEP), monkeypatch)
        groups = report["verdicts"]
        tables = {id(g.rhs): g.rhs for g in groups}
        assert counts["geometry"] == 12 and (len(groups), len(tables)) == (6, 5)
        assert all(len({row.tobytes() for row in t}) == len(t) for t in tables.values())
        assert counts["rhs text"] == sum(t.size for t in tables.values())

    def test_factor_patched_between_sweeps_is_seen(self, monkeypatch):
        # Every memo lives in one sweep: the second sweep in the process
        # reads the patched factor, for both records that print it.
        cfg = parse_config(self.CONFIGS["two-u"])
        before = run_sweep(cfg)["verdicts"]
        factor_mm = bnd.factor_mm
        monkeypatch.setattr(bnd, "factor_mm", lambda bp, mu: 2.0 * factor_mm(bp, mu))
        after = run_sweep(cfg)["verdicts"]
        assert {g.theorem for g in after} == {"mm", "remark_q1"}
        for g, h in zip(before, after, strict=True):
            assert np.array_equal(h.rhs, 2.0 * g.rhs)

    @pytest.mark.parametrize(
        "text", [BATCH_SWEEP, "", CONFIGS["repeats"], CONFIGS["mu1"]],
        ids=["batch", "default", "repeats", "mu1"])
    def test_one_lhs_call_per_function(self, text, monkeypatch):
        """A sweep makes exactly one LHS call per function that has a
        verdict, over the mu values of its verdicts in order of first
        appearance and every configured x, repeats included, in `x_fracs`
        order."""
        cfg = parse_config(text)
        verdicts = self._reference(cfg)[0]
        calls = []
        signed_many = report_mod.ostrowski_signed_many

        def counting(f, a, b, x, mus, quad):
            calls.append((f.id, list(mus), list(x)))
            return signed_many(f, a, b, x, mus, quad)

        monkeypatch.setattr(report_mod, "ostrowski_signed_many", counting)
        run_sweep(cfg)
        want = {}  # function -> its mus, in order of first appearance
        for _, f, _, mu, *_ in verdicts:
            want.setdefault(f, {})[mu] = None
        domains = {f.id: f.domain for f in resolve_corpus(cfg)}
        assert calls == [(f, list(mus), [a + frac_x * (b - a) for frac_x in cfg.x_fracs])
                         for f, mus in want.items() for a, b in [domains[f]]]

    def test_group_states_each_point_once(self):
        # A group holds each of its points once, beside its mu values and
        # its (x, mu) lhs table, with one table axis each for x, mu and
        # point: the renderer formats a point's values once per group.
        cfg = parse_config(self.CONFIGS["two-u"])
        groups = run_sweep(cfg)["verdicts"]
        assert groups
        for g in groups:
            assert len(g.xs) == len(cfg.x_fracs)
            keys = [(mu, bp.alpha, bp.m, bp.q, bp.u) for mu in g.mus for bp in g.points]
            assert len(set(keys)) == len(keys) > 1
            assert all(bp.v == 1.0 - bp.u for bp in g.points)
            assert g.lhs.shape == (len(g.xs), len(g.mus))
            shape = (len(g.xs), len(g.mus), len(g.points))
            assert g.rhs.shape == g.margin.shape == g.holds.shape == shape
            assert g.holds.dtype == bool

    @staticmethod
    def _admitted(theorem, f, cfg):
        """The oracle's grid points (mu, alpha, m, q, u) of a theorem that
        one `_check_hypotheses` call each admits on f, in grid order."""
        out = []
        for p in sweep_oracle.grid(theorem, cfg):
            try:
                _check_hypotheses(theorem, f, f.domain[1], p[0], BoundParams(f.M, *p[1:]))
            except HypothesisError:
                continue
            out.append(p)
        return out

    @pytest.mark.parametrize("case", ["no-claim", "repeats"])
    @pytest.mark.parametrize("extra_mus", [(), (0.75, 2.0, 3.5)], ids=["config-mu", "more-mu"])
    def test_one_bound_params_per_admitted_point(self, case, extra_mus, monkeypatch):
        """`_points` builds one `BoundParams` per distinct admitted (alpha,
        m, q, u) on f, in grid order, and none for a rejected one, whatever
        the number of mu values; it makes no hypothesis check of its own.
        It lists the points once, for every mu, a repeated one as the same
        object, beside one row of point factors per mu."""
        cfg = parse_config(self.CONFIGS[case])
        cfg = dataclasses.replace(cfg, mus=cfg.mus + extra_mus)
        rejected = 0
        for f in resolve_corpus(cfg):
            for theorem in cfg.theorems:
                admitted = list(dict.fromkeys(p[1:] for p in self._admitted(theorem, f, cfg)))
                points = dict.fromkeys(p[1:] for p in sweep_oracle.grid(theorem, cfg))
                with monkeypatch.context() as patch:
                    built, checked = self._counting(patch)
                    mus, listed, table = report_mod._points(theorem, f, cfg)
                assert built == admitted and not checked
                rejected += len(points) - len(admitted)
                assert len({id(bp) for bp in listed}) == len(admitted)
                assert table.shape == (len(mus), len(listed))
        assert rejected

    @pytest.mark.parametrize("case", ["batch", "mixed-alpha-m", "repeats"])
    def test_point_text_once_per_group(self, case, monkeypatch):
        """The renderer formats each point's alpha-to-v text once per group,
        in either format, by position, though the point recurs at every mu
        of the group: its v is read once per listing, where one read per
        mu was the design before."""
        cfg = parse_config(self.CONFIGS[case])
        reads = []

        class Counting(BoundParams):
            @property
            def v(self):
                reads.append(id(self))
                return super().v

        monkeypatch.setattr(report_mod, "BoundParams", Counting)
        report = run_sweep(cfg)
        groups = report["verdicts"]
        assert any(len(g.mus) > 1 for g in groups)
        for g, out_format in itertools.product(groups, ("json", "csv")):
            reads.clear()
            text = render_report({"n": 1, "verdicts": [g]}, out_format)
            if out_format == "json":
                assert json.loads(text)["verdicts"]
            assert reads == [id(bp) for bp in g.points]


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
        assert got["verdicts"]
        self._assert_same(got, sweep_oracle.run_sweep(cfg))

    def test_point_factor_times_geometry_is_the_rhs(self, corpus):
        """Over the default grid, for every theorem: the factor of the point
        at its mu, times the geometry factor at any x, is bit for bit
        the scalar RHS, and the printed product there (for `set`, within
        1e-15 relative)."""
        cfg = SweepConfig()
        checked = 0
        for theorem, record in THEOREMS.items():
            for f in corpus.values():
                a, b = f.domain
                fracs = [FracParams(a, b, a + t * (b - a), mu)
                         for t in cfg.x_fracs for mu in cfg.mus]
                for mu, alpha, m, q, u in sweep_oracle.grid(theorem, cfg):
                    at = [fr for fr in fracs if fr.mu == mu]
                    bp = BoundParams(f.M, alpha, m, q, u)
                    try:
                        _check_hypotheses(theorem, f, b, mu, bp)
                    except HypothesisError:
                        continue
                    factor = record.factor(bp, mu)
                    got = [(factor * geometry_factor(fr)).hex() for fr in at]
                    assert got == [record.rhs(bp, fr).hex() for fr in at]
                    printed = [sweep_oracle.RHS[theorem](fr, bp) for fr in at]
                    if theorem == "set":
                        assert all(abs(float.fromhex(g) - p) <= 1e-15 * p
                                   for g, p in zip(got, printed))
                    else:
                        assert got == [p.hex() for p in printed]
                    checked += len(at)
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

    # Configs built in code with numbers of other types, and their file form.
    BUILT = {
        "numpy-and-int": (dict(functions=("powdecay",), mus=(np.float64(0.5), 1.0),
                               alphas=(1, 0.5)),
                          "functions = powdecay\nmu = 0.5,1.0\nalpha = 1.0,0.5\n"),
        "numpy-quad": (dict(quad=QuadConfig(np.float64(1e-11), 1e-9, np.int64(8))),
                       "abs_tol = 1e-11\nmax_subdivisions = 8\n"),
        "int-family-parameter": (
            dict(functions=("aff",), extra_functions=(
                ("affine", "aff", (("slope", 1), ("intercept", np.float64(0.25)),
                                   ("lo", 1), ("hi", 2.5))),)),
            "functions = aff\nfunction.aff = affine slope=1.0 intercept=0.25 lo=1.0 hi=2.5\n"),
        "float32-and-fraction": (
            dict(x_fracs=(np.float32(0.1), fractions.Fraction(1, 2)), qs=(np.int64(2),)),
            "x_fracs = 0.10000000149011612,0.5\nq = 2.0\n"),
        "list-ids": (dict(functions=["linear"], theorems=["t22"]),
                     "functions = linear\ntheorems = t22\n"),
    }

    @pytest.mark.parametrize("case", sorted(BUILT))
    def test_built_config_parses_back_as_its_file_form(self, case):
        kwargs, text = self.BUILT[case]
        cfg = SweepConfig(**kwargs)
        assert parse_config(cfg.canonical_text()) == cfg == parse_config(text)
        assert hash(cfg) == hash(parse_config(text))
        assert cfg.fingerprint() == parse_config(text).fingerprint()
        assert {type(v) for key in ("x_fracs", "mus", "alphas", "ms", "qs", "us")
                for v in getattr(cfg, key)} == {float}
        quad = cfg.quad
        assert [type(quad.abs_tol), type(quad.rel_tol), type(quad.max_subdivisions)] == [
            float, float, int]
        if case in ("numpy-and-int", "int-family-parameter"):  # an int rendered as 1
            report = run_sweep(cfg)
            assert render_report(report, "json") == render_report(
                run_sweep(parse_config(text)), "json")

    AFFINE = (("slope", 0.5), ("intercept", 0.25), ("lo", 1.0), ("hi", 2.5))

    # Each id a config line cannot carry: the canonical text would not parse,
    # or parse back to another config.
    @pytest.mark.parametrize("fid", ["a\nb", "a\rb", "a\u2028b", "a#b", "a=b", " a", "a ",
                                     "a\t"])
    def test_function_id_that_no_line_holds_is_an_error(self, fid):
        with pytest.raises(ConfigError) as got:
            SweepConfig(functions=(fid,), extra_functions=(("affine", fid, self.AFFINE),))
        assert str(got.value) == (
            f"function id {fid!r} must be non-empty, without ',', '\"', '=', '#', "
            "a line break or leading or trailing whitespace")

    def test_function_id_with_an_inner_space_parses_back(self):
        cfg = SweepConfig(functions=("a b",), extra_functions=(("affine", "a b", self.AFFINE),))
        assert parse_config(cfg.canonical_text()) == cfg
        rows = csv.DictReader(io.StringIO(render_report(run_sweep(cfg), "csv")))
        assert {r["function"] for r in rows} == {"a b"}

    # Extra members and `functions` lists built in code: each fault is a
    # ConfigError when the config is built, in the words of the family or
    # of `parse_config`, not a DomainError or an unknown id in the sweep;
    # each accepted config parses back.  A message ending in ": " is a
    # prefix, followed by Python's own TypeError text.
    @pytest.mark.parametrize("functions, extra, message", [
        (("aff",), [("affine", "aff", (("slope x", 0.5), *AFFINE[1:]))],
         "bad parameters for family 'affine': "),
        (("aff",), [("affine", "aff", (("slope#", 0.5), *AFFINE[1:]))],
         "bad parameters for family 'affine': "),
        (("aff",), [("aff ine", "aff", AFFINE)],
         "unknown family 'aff ine'; known: ['affine', 'constant', 'exp_decay', 'power_decay']"),
        (("aff",), [("affine", "aff", (("slope", 0.5), ("slope", 0.6), *AFFINE[1:]))],
         "repeated parameter 'slope' in function 'aff'"),
        (("aff",), [("affine", "aff", AFFINE), ("affine", "aff", AFFINE)],
         "repeated extra function id 'aff'"),
        (("aff",), [("affine", "linear", AFFINE)],
         "extra function id 'linear' is already in the corpus"),
        (("linear,affine08",), [], "unknown function ids: ['linear,affine08']"),
        ((" linear",), [], "unknown function ids: [' linear']"),
        (("",), [], "unknown function ids: ['']"),
        (("linear", "affine08"), [], None),
        (("aff",), [("affine", "aff", AFFINE)], None),
        ((), [("affine", "aff", AFFINE), ("affine", "aff2", AFFINE)], None),
    ], ids=["key-with-space", "key-with-hash", "family-with-space", "repeated-parameter",
            "repeated-id", "builtin-id", "comma-in-id", "leading-space", "empty-id",
            "builtin-ids", "extra-id", "two-extras"])
    def test_functions_are_checked_when_built(self, functions, extra, message):
        one = dict(theorems=("t22",), x_fracs=(0.5,), mus=(1.0,))
        if message is None:
            cfg = SweepConfig(functions=functions, extra_functions=extra, **one)
            assert parse_config(cfg.canonical_text()) == cfg
            assert run_sweep(cfg)["verdicts"]
            return
        with pytest.raises(ConfigError) as got:
            SweepConfig(functions=functions, extra_functions=extra, **one)
        assert (str(got.value).startswith(message) if message.endswith(": ")
                else str(got.value) == message)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(us=(None,)), "u = None: a real number, not a bool, required"),
        (dict(alphas=(0.5, True)), "alpha = True: a real number, not a bool, required"),
        (dict(qs=(np.bool_(True),)),
         f"q = {np.bool_(True)!r}: a real number, not a bool, required"),
        (dict(mus=("0.5",)), "mu = '0.5': a real number, not a bool, required"),
        (dict(ms=(2**1024,)), f"m = {2**1024}: int too large to convert to float"),
        (dict(extra_functions=(("affine", "aff", (("slope", "1"),)),)),
         "function.aff slope = '1': a real number, not a bool, required"),
        (dict(quad=QuadConfig(max_subdivisions=8.0)),
         "max_subdivisions = 8.0: an integer, not a bool, required"),
        (dict(quad=QuadConfig(max_subdivisions=True)),
         "max_subdivisions = True: an integer, not a bool, required"),
    ])
    def test_other_numbers_are_config_errors(self, kwargs, message):
        # Only a real number that is not a bool is stored, as a float or int.
        with pytest.raises(ConfigError) as got:
            SweepConfig(**kwargs)
        assert str(got.value) == message


def _env_with_src(**extra) -> dict:
    """The environment of a child `python -m ostrowski_frac.cli`: this one,
    with the package's source first on PYTHONPATH, and `extra`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point_in_real_processes(tmp_path):
    """`python -m ostrowski_frac.cli`, each command in its own process, run
    from a directory outside the repo: the exit codes 0, 1 and 2 and what
    each writes to stdout and stderr.  An exception that escaped `main` would
    exit 1 with a traceback."""
    env = _env_with_src()
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


def _tuple_digest(records) -> str:
    """SHA-256 over the ordered (theorem, function, x, mu, alpha, m, q, u,
    holds) tuples of verdict records, each as its JSON text."""
    keys = ("theorem", "function", "x", "mu", "alpha", "m", "q", "u", "holds")
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps([r[k] for k in keys]).encode() + b"\n")
    return h.hexdigest()


def test_default_sweep_verdicts_do_not_depend_on_avx512_dispatch(tmp_path, default_sweep):
    """The default sweep in a process whose numpy may not dispatch to
    AVX-512 kernels exits 0 with the verdicts of this process.  Its last
    bits may differ (numpy's vectorised kernels round differently), so
    only the (theorem, function, x, mu, point, holds) tuples are compared.
    On a CPU without those features both runs take the same kernels.
    stderr is not read: numpy may warn about a feature it cannot disable."""
    out = tmp_path / "report.json"
    env = _env_with_src(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    proc = subprocess.run([sys.executable, "-m", "ostrowski_frac.cli", "sweep", "--output",
                           str(out)], cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0
    records = json.loads(out.read_text())["verdicts"]
    assert len(records) == 17892
    assert _tuple_digest(records) == _tuple_digest(verdict_rows(default_sweep))
