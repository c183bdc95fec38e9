"""Golden-output gate for the command line.

Every subcommand runs in process on both bundled configurations, with
each ``--criterion`` where it applies and ``analyze`` with and without a
seed. ``tests/configs/three_arm.json`` adds the sizing and analysis paths
those two miss: k = 3, an explicit allocation, eta = 0.5, unequal
experimental priors (so the direct assured check is skipped), assurance
0.8 and data given as standard deviations. Reports must match the stored files byte for byte; in the CSV
files, text cells must be equal and numeric cells agree within
``math.isclose(rel_tol=1e-12, abs_tol=1e-15)``. Exit codes and error
messages of the combinations that fail by design are stored too.

Regenerate the stored outputs (only when a change of output is
intended) with::

    PYTHONPATH=src python tests/test_golden.py

or store only the named cases, merged into the manifest, leaving every
other case as it is (the way to add a case)::

    PYTHONPATH=src python tests/test_golden.py NAME...
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from multiarm.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "manifest.json"


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for cfg in ("case_study", "two_treatment"):
        path = f"configs/{cfg}.json"
        for criterion in ("1", "2"):
            for command in ("design-known", "design-unknown", "boundary"):
                cases[f"{cfg}-{command}-c{criterion}"] = [
                    command, "--config", path, "--criterion", criterion,
                ]
        cases[f"{cfg}-analyze"] = ["analyze", "--config", path]
        cases[f"{cfg}-analyze-seed11"] = ["analyze", "--config", path, "--seed", "11"]
        cases[f"{cfg}-dunnett"] = ["dunnett", "--config", path]
    cases["two_treatment-design-known-csv"] = [
        "design-known", "--config", "configs/two_treatment.json", "--format", "csv",
    ]
    cases["case_study-analyze-report"] = [
        "analyze", "--config", "configs/case_study.json", "--format", "report",
    ]
    cases["reproduce-tables"] = ["reproduce-tables"]
    path = "tests/configs/three_arm.json"
    for criterion in ("1", "2"):
        for command in ("design-known", "design-unknown"):
            cases[f"three_arm-{command}-c{criterion}"] = [
                command, "--config", path, "--criterion", criterion,
            ]
    cases["three_arm-analyze"] = ["analyze", "--config", path]
    return cases


CASES = _cases()


def run_case(argv: list[str], out: Path) -> tuple[int, str, dict[str, str]]:
    """Exit code, stderr and the written files of one CLI run."""
    args = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*args, "--out", str(out)])
    files = {}
    if out.is_dir():
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}
    return code, err.getvalue(), files


def _cell_close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _csv_mismatches(got: str, want: str) -> list[str]:
    rows_got = list(csv.reader(io.StringIO(got)))
    rows_want = list(csv.reader(io.StringIO(want)))
    if len(rows_got) != len(rows_want):
        return [f"{len(rows_got)} rows, expected {len(rows_want)}"]
    bad = []
    for i, (rg, rw) in enumerate(zip(rows_got, rows_want)):
        if len(rg) != len(rw):
            bad.append(f"row {i}: {rg} != {rw}")
            continue
        bad.extend(
            f"row {i} col {j}: {g} != {w}"
            for j, (g, w) in enumerate(zip(rg, rw))
            if not _cell_close(g, w)
        )
    return bad


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_cases(manifest):
    assert sorted(manifest) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, manifest, tmp_path):
    want = manifest[name]
    code, err, files = run_case(CASES[name], tmp_path / "out")
    assert code == want["exit"]
    assert err == want["stderr"]
    assert sorted(files) == want["files"]
    for fname, text in files.items():
        stored = (GOLDEN / name / fname).read_text(encoding="utf-8")
        if fname.endswith(".csv"):
            assert _csv_mismatches(text, stored) == [], fname
        else:
            assert text == stored, fname


def regenerate(names: list[str]) -> None:
    """Store every case afresh, or only ``names`` merged into the manifest."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases: {', '.join(unknown)}")
    if names:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    else:
        shutil.rmtree(GOLDEN, ignore_errors=True)
        GOLDEN.mkdir(parents=True)
        manifest = {}
    for name in names or CASES:
        argv = CASES[name]
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        code, err, files = run_case(argv, GOLDEN / name)
        manifest[name] = {"argv": argv, "exit": code, "stderr": err, "files": sorted(files)}
        print(f"{name}: exit {code}, {len(files)} files", file=sys.stderr)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
