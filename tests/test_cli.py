"""End-to-end command line checks driven through main() in process."""

import contextlib
import copy
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiarm.cli import _SCHEMA, _validate, build_parser, main
from multiarm.exceptions import DomainError

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
BUNDLED = {
    path.stem: json.loads(path.read_text(encoding="utf-8"))
    for path in (CONFIGS / "case_study.json", CONFIGS / "two_treatment.json",
                 ROOT / "tests" / "configs" / "three_arm.json")
}


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

    @pytest.mark.parametrize("allocation", [1e150, 1e200, 1e300])
    def test_allocation_leaves_no_precision_budget(self, tmp_path, capsys, allocation):
        # Beyond about 1e160 SciPy's beta quantile of the budget is NaN,
        # which counts as none.
        doc = copy.deepcopy(BUNDLED["three_arm"])
        doc["design"]["allocation"] = allocation
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["design-unknown", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "leaves no precision budget" in err and "nan" not in err
        assert not out.exists()

    def test_prior_narrower_than_double_precision_is_known_precision(self, tmp_path, case_doc):
        # Gamma(1e40, 4.9e41) pins the precision at 1/49 = 1/sd**2.
        case_doc["precision_prior"].update(alpha=1e40, beta=4.9e41)
        cfg = write_config(tmp_path, case_doc)
        sizes = {}
        for command in ("design-unknown", "design-known"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
            sizes[command] = [r[2] for r in csv_rows(out / f"{command.replace('-', '_')}.csv") if r[0] == "n"]
        assert sizes["design-unknown"] == sizes["design-known"] == ["64", "35", "35", "35", "35"]


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

    def test_raw_sums_match_standard_errors(self, tmp_path, case_doc):
        # The same data given as raw sums of squared responses, sum(y^2) =
        # (n - 1) sd^2 + n mean^2, analyses as the standard errors do.
        def analysis(name):
            cfg = write_config(tmp_path, case_doc, name=f"{name}.json")
            assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            return csv_rows(tmp_path / name / "analysis.csv")

        want = analysis("se")
        data = case_doc["data"]
        data["ss"] = [
            (n - 1) * (se * math.sqrt(n)) ** 2 + n * m * m
            for n, m, se in zip(data["n"], data["mean"], data.pop("se"))
        ]
        got = analysis("ss")
        assert len(got) == len(want)
        for row_got, row_want in zip(got, want):
            assert row_got[:3] == row_want[:3]
            for g, w in zip(row_got[3:], row_want[3:]):
                if g != w:
                    assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=1e-15), row_want

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

    def test_integral_float_points(self, tmp_path, two_doc):
        # JSON Schema counts 25.0 as an integer, so it sets the same grid as 25.
        outs = []
        for points in (25, 25.0):
            two_doc["boundary"]["points"] = points
            cfg = write_config(tmp_path, two_doc)
            outs.append(tmp_path / repr(points))
            assert main(["boundary", "--config", str(cfg), "--format", "csv", "--out", str(outs[-1])]) == 0
        assert read(outs[0] / "boundary.csv") == read(outs[1] / "boundary.csv")

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

    def test_raw_sums_below_the_mean_floor(self, tmp_path, case_doc, capsys):
        # Raw sums can never fall below n * mean^2; arm 2 does.
        data = case_doc["data"]
        del data["se"]
        data["ss"] = [n * m * m for n, m in zip(data["n"], data["mean"])]
        data["ss"][2] *= 0.5
        cfg = write_config(tmp_path, case_doc)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        assert "arm 2: ss=" in capsys.readouterr().err
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

    @pytest.mark.parametrize("config, command, path, value, named", [
        # 1 / sd**2 underflows to zero or overflows.
        ("case_study", "design-known", "design/sd", 1e-300, "design: sd"),
        ("case_study", "design-known", "design/sd", 1e200, "design: sd"),
        # The information target overflows.
        *(("case_study", command, "design/delta_star", 1e-300, "delta_star")
          for command in ("design-known", "design-unknown", "dunnett")),
        ("two_treatment", "boundary", "design/delta_star", 1e-300, "delta_star"),
        # The arm sizes, or the information they carry, overflow.
        ("three_arm", "design-known", "design/allocation", 1e308, "overflows"),
        ("case_study", "design-known", "design/sd", 1e154, "overflows"),
        # The shrinkage term of the precision update overflows.
        ("case_study", "analyze", "design/priors/1/mean", 1e300, "arm 1"),
        # A zero target recruits nobody onto arm 3, which has no prior
        # information, so it has no threshold.
        ("three_arm", "design-known --criterion 2", "design/zeta", 0.5, "arm 3"),
    ])
    def test_degenerate_config_names_cause(self, tmp_path, capsys, config, command, path, value, named):
        doc = copy.deepcopy(BUNDLED[config])
        _put(doc, tuple(int(key) if key.isdigit() else key for key in path.split("/")), value)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


def _nodes(node, path=()):
    """Every (path, value) of a parsed JSON document, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


EXTREMES = [0, 1, -1, 0.5, 1e12, 1e-12, 1e300, 1e-300, 5e153, math.inf, -math.inf, math.nan]
# Leaves left unmutated: the boundary grid size and the Monte Carlo draw
# count allocate and run in proportion to their value by design.
UNBOUNDED = {("boundary", "points"), ("monte_carlo", "n_draws")}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_config_crashes_the_cli(data):
    doc = copy.deepcopy(BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))])
    leaves = [path for path, x in _nodes(doc) if _is_number(x) and path not in UNBOUNDED]
    for path in data.draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=2, unique=True)):
        _put(doc, path, data.draw(st.sampled_from(EXTREMES)))
    argv = [data.draw(st.sampled_from(["design-known", "design-unknown", "analyze", "dunnett", "boundary"]))]
    if argv[0] in ("design-known", "design-unknown", "boundary"):
        argv += ["--criterion", data.draw(st.sampled_from(["1", "2"]))]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)


# What a node of a config is swapped for: other JSON types, bools, integral
# floats, values below the schema's minima and integers beyond the float range.
SWAPS = [None, True, False, "equal", "x", [], {}, [1.0, 2.0], {"mean": 0.0},
         0, 1, -1, 2, 0.0, 1.0, 2.0, 0.5, -0.5, math.nan, math.inf, 10**400, -10**400]


def _mutate(data, doc):
    """Apply one random change to ``doc``; returns the changed document."""
    path, node = data.draw(st.sampled_from(list(_nodes(doc))))
    kind = data.draw(st.sampled_from(["swap", "retype", "delete", "add"]))
    if kind == "add" and isinstance(node, dict):
        node["unexpected"] = 1.0
    elif kind == "delete" and path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    elif kind == "retype" and path and _is_number(node) and abs(node) < 1e300:
        _put(doc, path, float(node) if isinstance(node, int) else int(node))
    elif path:
        _put(doc, path, copy.deepcopy(data.draw(st.sampled_from(SWAPS))))
    else:
        doc = copy.deepcopy(data.draw(st.sampled_from(SWAPS)))
    return doc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validate_agrees_with_jsonschema(data):
    jsonschema = pytest.importorskip("jsonschema")
    doc = copy.deepcopy(BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    errors = jsonschema.Draft202012Validator(_SCHEMA).iter_errors(doc)
    paths = {"/".join(map(str, e.absolute_path)) or "(top level)" for e in errors}
    paths |= {
        "/".join(map(str, path)) for path, x in _nodes(doc)
        if isinstance(x, int) and abs(x) > sys.float_info.max
    }
    try:
        _validate(doc, _SCHEMA)
    except DomainError as exc:
        assert str(exc).removeprefix("config ").split(": ")[0] in paths
    else:
        assert not paths


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


def test_import_leaves_out_unused_modules():
    # Each adds start-up time, and nothing in the package needs them; the
    # config schema is checked locally, and jsonschema serves only as a
    # test oracle.
    names = ("scipy.stats", "scipy.integrate", "scipy.optimize", "jsonschema")
    code = f"import sys, multiarm.cli; print(sorted(m for m in {names!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
