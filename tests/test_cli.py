"""End-to-end command line checks driven through main() in process."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from multiarm.cli import build_parser, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def read(path):
    return path.read_text(encoding="utf-8")


def csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture()
def two_doc():
    return json.loads(read(CONFIGS / "two_treatment.json"))


@pytest.fixture()
def case_doc():
    return json.loads(read(CONFIGS / "case_study.json"))


class TestDesignKnown:
    def test_first_criterion(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "design-known", "--config", str(CONFIGS / "two_treatment.json"),
            "--out", str(out),
        ])
        assert code == 0
        rows = csv_rows(out / "design_known.csv")
        assert rows[0] == ["quantity", "arm", "value"]
        total = next(r for r in rows if r[0] == "total")
        assert total[2] == "222"
        report = read(out / "design_known_report.txt")
        assert "criterion: 1 (ALL_PROMISING)" in report
        assert '"delta_star": 0.5' in report

    def test_second_criterion(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "design-known", "--config", str(CONFIGS / "two_treatment.json"),
            "--criterion", "2", "--out", str(out),
        ])
        assert code == 0
        rows = csv_rows(out / "design_known.csv")
        total = next(r for r in rows if r[0] == "total")
        assert total[2] == "177"

    def test_requires_known_precision(self, tmp_path, two_doc):
        del two_doc["design"]["v"]
        cfg = write_config(tmp_path, two_doc)
        assert main(["design-known", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestDesignUnknown:
    def test_case_study_total(self, tmp_path, case_doc):
        cfg = write_config(tmp_path, case_doc)
        out = tmp_path / "out"
        code = main(["design-unknown", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = csv_rows(out / "design_unknown.csv")
        total = next(r for r in rows if r[0] == "total")
        assert total[2] == "4278"
        met = next(r for r in rows if r[0] == "criterion_met")
        assert met[2] == "1"

    def test_missing_assurance(self, tmp_path, case_doc):
        del case_doc["precision_prior"]["assurance"]
        cfg = write_config(tmp_path, case_doc)
        assert main(["design-unknown", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_infeasible_assurance(self, tmp_path, case_doc):
        case_doc["precision_prior"]["assurance"] = 1.0 - 1e-12
        cfg = write_config(tmp_path, case_doc)
        out = tmp_path / "out"
        assert main(["design-unknown", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()


class TestAnalyze:
    def test_case_study_report(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "analyze", "--config", str(CONFIGS / "case_study.json"),
            "--out", str(out),
        ])
        assert code == 0
        report = read(out / "analysis_report.txt")
        assert "outcome: PROCEED" in report
        assert "promising treatments (eta = 0.9500): 1 2 3 4" in report

    def test_byte_stable_with_seed(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "analyze", "--config", str(CONFIGS / "case_study.json"),
                "--seed", "11", "--out", str(out),
            ])
            assert code == 0
            outs.append(out)
        for fname in ("analysis.csv", "analysis_report.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_needs_some_precision_model(self, tmp_path, two_doc):
        del two_doc["design"]["v"]
        two_doc["data"] = {"n": [1, 1, 1], "mean": [0.0, 0.1, 0.2], "sd": [1.0, 1.0, 1.0]}
        cfg = write_config(tmp_path, two_doc)
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_requires_data(self, tmp_path, two_doc):
        cfg = write_config(tmp_path, two_doc)
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("sd_threshold", [0.0, -2.0, math.inf, math.nan])
    def test_invalid_sd_threshold(self, tmp_path, case_doc, capsys, sd_threshold):
        case_doc["analysis"]["sd_threshold"] = sd_threshold
        cfg = write_config(tmp_path, case_doc)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        assert "analysis.sd_threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sd_threshold, above", [(1e-300, 1.0), (1e200, 0.0)])
    def test_extreme_sd_threshold(self, tmp_path, case_doc, sd_threshold, above):
        # The threshold precision 1 / sd**2 overflows or underflows.
        case_doc["analysis"]["sd_threshold"] = sd_threshold
        cfg = write_config(tmp_path, case_doc)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [r for r in csv_rows(out / "analysis.csv") if r[0] == "prob_sd_above"]
        assert [(r[1], r[2]) for r in rows] == [
            ("gamma_posterior", repr(sd_threshold)), ("gamma_prior", repr(sd_threshold)),
        ]
        assert [float(r[3]) for r in rows] == pytest.approx([above, above], abs=1e-300)


class TestDunnett:
    def test_case_study_pvalue(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "dunnett", "--config", str(CONFIGS / "case_study.json"),
            "--out", str(out),
        ])
        assert code == 0
        rows = csv_rows(out / "dunnett.csv")
        p = float(next(r for r in rows if r[0] == "p_value")[2])
        assert p == pytest.approx(1.8370326809587289e-07, rel=1e-9)
        report = read(out / "dunnett_report.txt")
        assert "1.8370e-07" in report

    def test_reference_statistic_override(self, tmp_path, case_doc):
        case_doc["dunnett"]["z_star"] = 5.21
        cfg = write_config(tmp_path, case_doc)
        out = tmp_path / "out"
        assert main(["dunnett", "--config", str(cfg), "--out", str(out)]) == 0
        rows = csv_rows(out / "dunnett.csv")
        p = float(next(r for r in rows if r[0] == "p_value")[2])
        assert p == pytest.approx(2.45834489389883e-07, rel=1e-9)

    @pytest.mark.parametrize("z_star, want", [(math.inf, "0.0"), (-math.inf, "1.0")])
    def test_infinite_reference_statistic(self, tmp_path, case_doc, z_star, want):
        case_doc["dunnett"]["z_star"] = z_star
        cfg = write_config(tmp_path, case_doc)
        out = tmp_path / "out"
        assert main(["dunnett", "--config", str(cfg), "--out", str(out)]) == 0
        rows = csv_rows(out / "dunnett.csv")
        assert next(r for r in rows if r[0] == "p_value")[2] == want


class TestBoundary:
    def test_csv_layout(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "boundary", "--config", str(CONFIGS / "two_treatment.json"),
            "--out", str(out),
        ])
        assert code == 0
        text = read(out / "boundary.csv")
        lines = text.splitlines()
        assert lines[0] == "# criterion=1"
        assert lines[1] == "boundary,delta11,delta12"
        proceed = [l for l in lines if l.startswith("Proceed,")]
        abandon = [l for l in lines if l.startswith("Abandon,")]
        assert len(proceed) == 3
        assert len(abandon) >= 2

    def test_criterion_tag_follows_flag(self, tmp_path):
        out = tmp_path / "out"
        main([
            "boundary", "--config", str(CONFIGS / "two_treatment.json"),
            "--criterion", "2", "--out", str(out),
        ])
        assert read(out / "boundary.csv").splitlines()[0] == "# criterion=2"

    def test_more_than_two_treatments_unsupported(self, tmp_path, case_doc):
        cfg = write_config(tmp_path, case_doc)
        assert main(["boundary", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestReproduceTables:
    def test_all_rows_match(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce-tables", "--out", str(out)])
        assert code == 0
        comp = csv_rows(out / "comparative_designs.csv")
        assured = csv_rows(out / "assured_designs.csv")
        comp_matches = [r[-1] for r in comp[1:]]
        assured_matches = [r[-1] for r in assured[1:]]
        assert comp_matches == ["pass"] * 4
        assert assured_matches == ["pass"] * 14
        report = read(out / "reproduce_tables_report.txt")
        assert "comparative designs: 4/4 rows match" in report
        assert "assurance designs: 14/14 rows match" in report


class TestFormats:
    def test_csv_only(self, tmp_path):
        out = tmp_path / "out"
        main([
            "design-known", "--config", str(CONFIGS / "two_treatment.json"),
            "--format", "csv", "--out", str(out),
        ])
        assert (out / "design_known.csv").exists()
        assert not (out / "design_known_report.txt").exists()

    def test_report_only(self, tmp_path):
        out = tmp_path / "out"
        main([
            "design-known", "--config", str(CONFIGS / "two_treatment.json"),
            "--format", "report", "--out", str(out),
        ])
        assert not (out / "design_known.csv").exists()
        assert (out / "design_known_report.txt").exists()


class TestBadInput:
    def test_unknown_key_rejected(self, tmp_path, two_doc):
        two_doc["design"]["fudge"] = 1.0
        cfg = write_config(tmp_path, two_doc)
        assert main(["design-known", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_v_and_sd_together(self, tmp_path, two_doc):
        two_doc["design"]["sd"] = 1.0
        cfg = write_config(tmp_path, two_doc)
        assert main(["design-known", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["design-known", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main([
            "design-known", "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path),
        ]) == 2

    def test_data_length_mismatch(self, tmp_path, case_doc):
        case_doc["data"]["n"] = case_doc["data"]["n"][:-1]
        cfg = write_config(tmp_path, case_doc)
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key, arm, value, named", [
        ("mean", 0, math.nan, "arm 0: mean"),
        ("mean", 2, math.inf, "arm 2: mean"),
        # Finite, but its sum of squares overflows.
        ("mean", 1, 1e300, "arm 1: mean 1e+300"),
        ("sd", 3, math.nan, "arm 3: sd"),
    ])
    def test_non_finite_data(self, tmp_path, case_doc, capsys, key, arm, value, named):
        data = case_doc["data"]
        if key == "sd":
            data["sd"] = data.pop("se")
        data[key][arm] = value
        cfg = write_config(tmp_path, case_doc)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key", [
        ("design-known", "design", "sd"),
        ("analyze", "analysis", "sd_threshold"),
    ])
    def test_integer_beyond_float_range(self, tmp_path, case_doc, capsys, command, section, key):
        case_doc[section][key] = 10**400
        cfg = write_config(tmp_path, case_doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config {section}/{key}: integer beyond the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


# The flags each subcommand reads besides the COMMON ones.
COMMON = {"--out", "--format"}
FLAGS = {
    "design-known": {"--config", "--criterion"},
    "design-unknown": {"--config", "--criterion"},
    "boundary": {"--config", "--criterion"},
    "analyze": {"--config", "--seed"},
    "dunnett": {"--config"},
    "reproduce-tables": set(),
}
FLAG_VALUES = {
    "--config": str(CONFIGS / "case_study.json"),
    "--criterion": "2",
    "--seed": "3",
    "--out": "out",
    "--format": "csv",
}


def _with(flags):
    return [part for flag in sorted(flags) for part in (flag, FLAG_VALUES[flag])]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_accepted_flags(command):
    args = build_parser().parse_args([command, *_with(FLAGS[command] | COMMON)])
    assert args.command == command


UNREAD = [(c, f) for c in sorted(FLAGS) for f in sorted(FLAG_VALUES.keys() - FLAGS[c] - COMMON)]


@pytest.mark.parametrize("command, flag", UNREAD)
def test_unread_flag_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *_with(FLAGS[command]), *_with({flag})])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable, "-m", "multiarm", "design-known",
            "--config", str(CONFIGS / "two_treatment.json"), "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "design_known.csv" in proc.stdout
    assert (out / "design_known.csv").exists()


def test_import_leaves_out_scipy_stats_integrate_and_optimize():
    # All three add start-up time, and nothing in the package needs them.
    names = ("scipy.stats", "scipy.integrate", "scipy.optimize")
    code = f"import sys, multiarm.cli; print(sorted(m for m in {names!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
