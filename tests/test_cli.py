import collections
import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
import sweep_oracle

from ostrowski_frac import corpus as corpus_mod
from ostrowski_frac import report as report_mod
from ostrowski_frac.bounds import BoundParams, geometry_factor
from ostrowski_frac.cli import main
from ostrowski_frac.fracint import ConvergenceError, DomainError, FracParams
from ostrowski_frac.report import (
    ConfigError,
    SweepConfig,
    all_hold,
    parse_config,
    render_report,
    resolve_corpus,
    run_sweep,
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


class TestCheckConvexityCommand:
    def test_pass(self, capsys):
        rc = main(
            ["check-convexity", "--f", "powdecay", "--alpha", "0.5", "--m", "0.5",
             "--q", "2"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "pass"

    def test_non_finite_g_exits_2(self, capsys):
        # |f'|^nan is nan everywhere, and every comparison with nan is False.
        rc = main(
            ["check-convexity", "--f", "powdecay", "--alpha", "0.5", "--m", "0.5",
             "--q", "nan"]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: g not finite on the grid\n"

    def test_counterexample_exits_1(self, capsys):
        # alpha and m default to 1: expdecay's |f'| is not geometrically
        # convex (by AM-GM), so the grid finds a counterexample
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


class TestDefaultSweepListing:
    """The shipped default sweep: which verdicts it lists, in which order,
    and that each holds.  The digest is over the (theorem, function, x, mu,
    alpha, m, q, u, holds) JSON lines, which leaves out the float bits of lhs
    and rhs that numpy's vectorized exp/pow may round differently by host."""

    COUNTS = {"t26": 5184, "mm": 5184, "t24": 2916, "t22": 1728,
              "mu1": 1296, "remark_q1": 1296, "set": 288}
    TUPLES_SHA256 = "6238511069f18af2c957e3776f587bc1d1f60c27f3508a736829edb70a7d174b"

    def test_listing_counts_and_digest(self, default_sweep):
        verdicts = default_sweep["verdicts"]
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

    # An extra member whose declared M understates |f'|; audit disabled so
    # the sweep itself must catch the violated inequality.
    CRAFTED_VIOLATION = (
        "functions = bad\n"
        "theorems = t22\n"
        "x_fracs = 0.95\n"
        "mu = 1.0\n"
        "alpha = 1.0\n"
        "m = 0.5\n"
        "q = 1.0\n"
        "audit = false\n"
        "function.bad = affine slope=0.8 intercept=0.0 lo=1.0 hi=2.0 "
        "declared_M=0.1\n"
    )

    def test_crafted_violation_exits_1(self, tmp_path, capsys):
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
    def test_loose_tolerance_exits_2(self, tmp_path, capsys, line, message):
        # A verdict holds down to a margin of -100 * abs_tol: a tolerance
        # loose enough would pass the crafted violation with exit 0.
        cfg = tmp_path / "loose.cfg"
        cfg.write_text(self.CRAFTED_VIOLATION + line + "\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_audit_catches_crafted_violation_by_default(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "functions = bad\n"
            "function.bad = affine slope=0.8 intercept=0.0 lo=1.0 hi=2.0 "
            "declared_M=0.1\n"
        )
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2
        assert "failed audit" in capsys.readouterr().err

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
        assert report["verdicts"] and all_hold(report)
        assert "error" not in capsys.readouterr().err

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
         ("x_fracs = 0.5,1.5", "x_fracs = 1.5"), ("mu = 0", "mu = 0.0")],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, line, named):
        # A value the sweep cannot use is a usage error, not a violation (1)
        # and not a sweep that quietly drops it (0).
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        assert main(["sweep", "--config", "/no/such/file.cfg"]) == 2


class TestCorpusAuditCommand:
    IDS = ("linear", "affine08", "const1", "const2", "powdecay", "expdecay")

    def test_every_builtin_passes(self, capsys):
        assert main(["corpus-audit"]) == 0
        assert capsys.readouterr().out == "".join(f"{fid}: pass\n" for fid in self.IDS)

    def test_failure_is_reported_with_each_spec_audited_once(self, monkeypatch, capsys):
        audited = []
        audit = corpus_mod.audit

        def failing(spec, *args):
            audited.append(spec.id)
            return ["boom", "bang"] if spec.id == "expdecay" else audit(spec, *args)

        monkeypatch.setattr(corpus_mod, "audit", failing)
        assert main(["corpus-audit"]) == 1
        captured = capsys.readouterr()
        assert audited == list(self.IDS)
        assert captured.out == "".join(
            f"{fid}: pass\n" for fid in self.IDS[:-1]) + "expdecay: FAIL\n  - boom\n  - bang\n"
        assert captured.err == ""


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
            # Not a boolean: must not silently skip the audit.
            "audit = on\n",
            "audit = ture\n",
            "audit = \n",
            # Not a number: must not end in a traceback.
            "abs_tol = banana\n",
            "rel_tol = 1e-9x\n",
            "max_subdivisions = 1.5\n",
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
        ],
    )
    def test_out_of_domain_parameter(self, text, message):
        # Rejected when the config is built, not skipped point by point.
        with pytest.raises(ConfigError) as got:
            parse_config(text + "\n")
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "value, audit",
        [("true", True), ("TRUE", True), ("Yes", True), ("1", True),
         ("false", False), ("False", False), ("NO", False), ("0", False)],
    )
    def test_audit_values(self, value, audit):
        assert parse_config(f"audit = {value}\n").audit_extra is audit

    def test_unknown_audit_value_exits_2(self, tmp_path, capsys):
        # The crafted member fails its audit, so skipping the audit would let it through.
        path = tmp_path / "typo.cfg"
        path.write_text(
            "audit = ture\n"
            "function.bad = affine slope=0.8 intercept=0.0 lo=1.0 hi=2.0 declared_M=0.1\n"
        )
        assert main(["sweep", "--config", str(path)]) == 2
        assert "audit must be one of" in capsys.readouterr().err

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
        assert len(lines) == len(report["verdicts"]) + 1
        assert all_hold(report)

    def test_json_contains_fingerprint(self):
        cfg = parse_config(SMALL_SWEEP)
        report = run_sweep(cfg)
        assert report["config_fingerprint"] == cfg.fingerprint()

    @staticmethod
    def _oracle(report):
        return json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("text", [SMALL_SWEEP, BATCH_SWEEP])
    def test_json_equals_indented_dump(self, text):
        report = run_sweep(parse_config(text))
        assert render_report(report, "json") == self._oracle(report)

    def test_json_without_verdicts(self):
        report = {"config_fingerprint": "0" * 64, "version": "0.1.0",
                  "summary": {}, "verdicts": []}
        assert render_report(report, "json") == self._oracle(report)

    def test_default_sweep_equals_indented_dump(self, default_sweep):
        assert render_report(default_sweep, "json") == self._oracle(default_sweep)

    @pytest.mark.parametrize(
        "report", [{"verdicts": [], "version": "1"}, {"verdicts": []}],
        ids=["verdicts-first", "verdicts-only"])
    def test_json_verdicts_must_be_last_after_another_key(self, report):
        with pytest.raises(ValueError, match="want 'verdicts' last"):
            render_report(report, "json")

    def test_json_verdicts_last_equals_indented_dump(self):
        report = {"version": "1", "verdicts": []}
        assert render_report(report, "json") == self._oracle(report)

    # Equal values with different text (0.0 and -0.0; 1, 1.0 and True) and
    # values json spells its own way: an identity key must tell them apart.
    POOL = [0.0, -0.0, 1, 1.0, True, False, None, float("nan"), float("inf"),
            float("-inf"), 0.1, 1e300, 5e-324, -7, 2**70, "t22",
            'q"uote', "com,ma", "new\nline", "},", "},\n      {", "ünïcødé ∫",
            [], {}, [1.5, None, "x"], {"k": [0.5, {"z": True}]}]

    @pytest.mark.parametrize("seed", range(4))
    def test_json_random_records_equal_indented_dump(self, seed):
        import random

        rng = random.Random(seed)

        def copy(v):
            # An equal value in a distinct object, where one can be made.
            return float(repr(v)) if type(v) is float else v

        shared = [rng.choice(self.POOL) for _ in range(12)]
        verdicts = []
        for _ in range(300):
            verdicts.append({
                k: rng.choice(shared) if rng.random() < 0.7 else copy(rng.choice(self.POOL))
                for k in report_mod._VERDICT_KEYS
            })
        report = {"config_fingerprint": "0" * 64, "version": "0.1.0",
                  "summary": {"t22": {"pass": 1, "fail": 0, "worst_margin": -0.0}},
                  "verdicts": verdicts}
        assert render_report(report, "json") == self._oracle(report)

    def test_json_record_keys_must_be_in_sweep_order(self):
        base = run_sweep(parse_config(SMALL_SWEEP))
        record = base["verdicts"][0]
        keys = list(record)
        missing = {k: v for k, v in record.items() if k != "tol_margin"}
        reordered = {k: record[k] for k in [keys[1], keys[0], *keys[2:]]}
        extra = {**record, "note": "x"}
        for bad in (missing, reordered, extra):
            report = {**base, "verdicts": [record, bad]}
            with pytest.raises(ValueError, match="verdict keys"):
                render_report(report, "json")

    def test_json_awkward_strings_and_floats(self):
        base = run_sweep(parse_config(SMALL_SWEEP))
        record = base["verdicts"][0]
        ids = ['q"uote', "com,ma", "new\nline", "},", "},\n      {", "ünïcødé ∫"]
        specials = [float("nan"), float("inf"), float("-inf"), -0.0]
        verdicts = []
        for i, fid in enumerate(ids):
            verdicts.append({**record, "function": fid,
                             "lhs": specials[i % 4], "margin": specials[(i + 1) % 4],
                             "u": None, "v": None})
        report = {**base, "verdicts": verdicts}
        assert render_report(report, "json") == self._oracle(report)


class TestBatchedSweep:
    """The sweep integrates one batch per (function, mu); what it reports and
    raises must be what one instance at a time gives."""

    def test_lhs_equals_one_instance_at_a_time(self, corpus):
        cfg = parse_config(BATCH_SWEEP)
        verdicts = run_sweep(cfg)["verdicts"]
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
        assert run_sweep(cfg)["verdicts"] == []
        with_boom("linear")  # memberships hold: the sweep must integrate it
        with pytest.raises(RuntimeError, match="integrand evaluated"):
            run_sweep(cfg)

    # Depth-1 failures.  On linear only mu = 2.5 and mu = 1.5 fail, at
    # every x: the mu = 2.5 batch comes first, its first x fails.  On a
    # steep power_decay at 1e-15 tolerance, mu = 1 fails only at x = b and
    # mu = 0.5 already at x = 0.1: the mu = 1 batch, first in batch order,
    # fails at an instance that comes after (0.1, 0.5) in sweep order.
    FAILING = {
        "by-mu": "functions = linear\nx_fracs = 0.75,0.25\nmu = 0.5,2.5,1.5\n",
        "by-x": (
            "functions = steep\nx_fracs = 0.5,0.1,1.0\nmu = 1.0,0.5\n"
            "abs_tol = 1e-15\nrel_tol = 1e-15\naudit = false\n"
            "function.steep = power_decay M=0.5 r=80 lo=1.0 hi=2.0\n"
        ),
    }
    # The first failing instance in batch order (x, mu).
    FIRST_FAILING = {"by-mu": (2.25, 2.5), "by-x": (2.0, 1.0)}
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

    def test_point_factor_error_before_any_quadrature(self, monkeypatch):
        # M = 1e-300 underflows t26's c = M^(q alpha (1-m)) at q = 3 but not
        # at q = 1.  t22's points, listed first, apply; the error of t26's
        # point factor still comes before any integrand is evaluated.
        cfg = parse_config(
            "functions = tiny\ntheorems = t22,t26\nx_fracs = 0.25,0.75\nmu = 0.5,1.5\n"
            "alpha = 1.0\nm = 0.25\nq = 1.0,3.0\naudit = false\n"
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
    """The sweep checks hypotheses once per (function, theorem, mu, alpha,
    m, q, u); what it emits must be what one check per instance gives."""

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
                        bp = BoundParams(frac, f.M, alpha, m, q, u,
                                         None if u is None else 1.0 - u)
                        checked.add((f.id, theorem, mu, alpha, m, q, u))
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
        verdicts = run_sweep(cfg)["verdicts"]
        keys = ("theorem", "function", "x", "mu", "alpha", "m", "q", "u")
        got = [tuple(v[k] for k in keys) for v in verdicts]
        assert got == want
        for v in verdicts:
            bp = BoundParams(
                FracParams(v["a"], v["b"], v["x"], v["mu"]),
                v["M"], v["alpha"], v["m"], v["q"], v["u"], v["v"],
            )
            _check_hypotheses(v["theorem"], corpus[v["function"]], bp)

    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_one_check_per_point(self, case, monkeypatch):
        cfg = parse_config(self.CONFIGS[case])
        seen = []

        def counting(theorem, f, bp):
            seen.append((f.id, theorem, bp.frac.mu, bp.alpha, bp.m, bp.q, bp.u))
            return _check_hypotheses(theorem, f, bp)

        monkeypatch.setattr(report_mod, "_check_hypotheses", counting)
        run_sweep(cfg)
        assert len(seen) == len(set(seen))
        assert set(seen) == self._reference(cfg)[1]

    @pytest.mark.parametrize(
        "text", [BATCH_SWEEP, "", CONFIGS["repeats"]], ids=["batch", "default", "repeats"])
    def test_one_frac_params_per_x_and_mu(self, text, monkeypatch):
        """A sweep builds one `FracParams` per (function, x, mu) that has a
        verdict, and one per run of a theorem's grid that shares mu."""
        cfg = parse_config(text)
        pairs = {(f, x, mu) for _, f, x, mu, *_ in self._reference(cfg)[0]}
        runs = sum(
            len(list(itertools.groupby(report_mod._grid_for(t, cfg), key=lambda p: p[0])))
            for t in cfg.theorems
        ) * len(resolve_corpus(cfg))
        built = []

        class Counting(FracParams):
            def __post_init__(self):
                built.append((self.x, self.mu))
                super().__post_init__()

        monkeypatch.setattr(report_mod, "FracParams", Counting)
        run_sweep(cfg)
        assert len(built) == len(pairs) + runs

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
    """The columnar sweep returns, record for record, the report of the
    per-verdict sweep it replaced (tests/sweep_oracle.py) and renders to
    the same bytes.  The exceptions are the theorems whose printed product
    groups otherwise than point factor times geometry factor: `set`
    (M * geometry factor / (mu + 1)) and, where b - a is not a power of 2,
    `mu1` (... * ((x-a)^2 + (b-x)^2) / (2(b-a))).  Their rhs and margin may
    differ from the oracle's by 1e-15 relative to the oracle's rhs."""

    REGROUPED = ("set", "mu1")

    # quad-dense's grid: t22 and set at small mu, x-fractions drawn one per bin.
    QUAD_DENSE = (
        "theorems = t22,set\n"
        "x_fracs = " + ",".join(
            repr(0.005 + 0.03 * (k + float(u)))
            for k, u in enumerate(np.random.default_rng(7).uniform(size=33))) + "\n"
        "mu = 0.1,0.25,0.5,1,1.5,2.5\nalpha = 1\nm = 0.5\nq = 1\n"
    )
    EXTRA_MEMBER = (
        "functions = powdecay,aff\nx_fracs = 0.1,0.5,0.9\nmu = 0.5,1.5\n"
        "function.aff = affine slope=0.5 intercept=0.25 lo=1.0 hi=2.5\n"
    )

    @classmethod
    def _assert_same(cls, got, want):
        want = {**want, "summary": dict(want["summary"]),
                "verdicts": [dict(w) for w in want["verdicts"]]}
        for g, w in zip(got["verdicts"], want["verdicts"]):
            if w["theorem"] in cls.REGROUPED:
                for key in ("rhs", "margin"):
                    assert abs(g[key] - w[key]) <= 1e-15 * abs(w["rhs"])
                    w[key] = g[key]
        for theorem in cls.REGROUPED:
            margins = [w["margin"] for w in want["verdicts"] if w["theorem"] == theorem]
            if margins:
                want["summary"][theorem] = {**want["summary"][theorem],
                                            "worst_margin": min(margins)}
        assert got == want
        for fmt in ("json", "csv"):
            assert render_report(got, fmt) == render_report(want, fmt)

    def test_default_sweep(self, default_sweep):
        self._assert_same(default_sweep, sweep_oracle.run_sweep(SweepConfig()))

    @pytest.mark.parametrize("case", sorted(TestHypothesesCheckedOncePerPoint.CONFIGS))
    def test_structure_configs(self, case):
        cfg = parse_config(TestHypothesesCheckedOncePerPoint.CONFIGS[case])
        self._assert_same(run_sweep(cfg), sweep_oracle.run_sweep(cfg))

    @pytest.mark.parametrize("text", [QUAD_DENSE, EXTRA_MEMBER], ids=["quad-dense", "extra"])
    def test_other_configs(self, text):
        cfg = parse_config(text)
        got = run_sweep(cfg)
        assert got["verdicts"]
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
                    bps = [BoundParams(fr, f.M, alpha, m, q, u, None if u is None else 1.0 - u)
                           for fr in at]
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
