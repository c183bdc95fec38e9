"""Benchmark of multiarm on four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-cold, design-sweep, design-audit, analysis-stream (see
README.md). With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run instead. Lines before it describe the
run. Outputs, traces and logs go to ``.bench_out/`` in the checkout.

The library runs from ``src/`` of the checkout with every BLAS and
OpenMP thread pool pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli-cold", "design-sweep", "design-audit", "analysis-stream")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up is timed in this many fresh processes per run and reported as
# the median, so one slow cold start does not move it.
SETUP_SAMPLES = 3
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREADS)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail_of(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup: list[float], n_ops: int, elapsed: float, op_p50: float, tail: float,
               cpu_s: float, maxrss_kb: float) -> dict:
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(n_ops / elapsed, "1/s"),
        "op_p50_ms": metric(op_p50 * 1e3, "ms"),
        "op_tail_ms": metric(tail * 1e3, "ms"),
        "op_cpu_ms": metric(cpu_s / n_ops * 1e3, "ms"),
        "peak_rss_mb": metric(maxrss_kb / 1024.0, "MB"),
    }


# -- in-process workloads --------------------------------------------------


def run_worker(workload: str, seed: int, seconds: float, *extra: str) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to READY, its result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = None
    result = None
    with proc:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("{"):
                result = json.loads(line)
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(argv[2:])} exited with {proc.returncode}")
    return ready, result


def run_in_process(workload: str, seed: int, seconds: float) -> dict:
    setup = [run_worker(workload, seed, seconds, "--setup-only")[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, result = run_worker(workload, seed, seconds)
    setup.append(ready)
    times = result["op_s"]
    tail, pct = tail_of(times)
    print(f"{workload}: {len(times)} operations in {result['rounds']} rounds over {result['elapsed_s']:.2f} s; "
          f"tail is p{pct:.1f} ({TAIL_BEYOND} beyond it); set-up samples {[round(s, 3) for s in setup]}; "
          f"checks took {result['check_s']:.2f} s")
    return {
        "correct": result["check_failures"] == 0 and bool(times),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": end_to_end(setup, len(times), result["elapsed_s"], statistics.median(times), tail,
                              result["cpu_s"], result["maxrss_kb"]),
    }


def traced_worker(workload: str, seed: int, seconds: float, rounds: int | None) -> dict:
    trace = OUT / workload / f"trace-{workload}.json"
    trace.parent.mkdir(parents=True, exist_ok=True)
    extra = ["--trace-out", str(trace)] + ([] if rounds is None else ["--rounds", str(rounds)])
    _, result = run_worker(workload, seed, seconds, *extra)
    result["dump"] = json.loads(trace.read_text())
    return result


# -- cli-cold ----------------------------------------------------------------


def run_child(argv: list[str], log: Path) -> tuple[float, float, int, int]:
    """Run a child to completion: (wall s, user+system CPU s, max RSS KB, exit code)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


def cli_inputs(seed: int, where: Path) -> tuple[dict[str, Path], int]:
    """Seeded copies of the configs: the case-study data are jittered
    (means by about 0.5, standard errors by up to 10%); the returned
    integer is the Monte Carlo seed for ``analyze --seed``."""
    rng = random.Random(f"cli-cold:{seed}")
    where.mkdir(parents=True, exist_ok=True)
    docs = {}
    case = json.loads((CONFIGS / "case_study.json").read_text())
    data = case["data"]
    data["mean"] = [round(m + rng.gauss(0.0, 0.5), 3) for m in data["mean"]]
    data["se"] = [round(s * rng.uniform(0.9, 1.1), 3) for s in data["se"]]
    docs["case_study"] = case
    docs["two_treatment"] = json.loads((CONFIGS / "two_treatment.json").read_text())
    paths = {}
    for name, doc in docs.items():
        paths[name] = where / f"{name}.json"
        paths[name].write_text(json.dumps(doc, indent=2))
    return paths, rng.randrange(2**32)


def cli_operations(paths: dict[str, Path], mc_seed: int, out: Path) -> list[tuple[str, list[str]]]:
    """The round of invocations: (metric name, arguments). Each writes to
    its own directory under ``out``, named by command and config."""
    case, two = str(paths["case_study"]), str(paths["two_treatment"])
    ops = [
        ("design-known", "two", ["design-known", "--config", two]),
        ("design-known", "case", ["design-known", "--config", case]),
        ("design-unknown", "case", ["design-unknown", "--config", case]),
        ("analyze", "case", ["analyze", "--config", case]),
        ("analyze-seeded", "case", ["analyze", "--config", case, "--seed", str(mc_seed)]),
        ("dunnett", "case", ["dunnett", "--config", case]),
        ("boundary", "two", ["boundary", "--config", two]),
        ("reproduce-tables", "", ["reproduce-tables"]),
    ]
    return [(name, args + ["--out", str(out / f"{name}-{cfg}".rstrip("-"))]) for name, cfg, args in ops]


def check_cli(out: Path, paths: dict[str, Path]) -> list[str]:
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks

    case = json.loads(paths["case_study"].read_text())
    two = json.loads(paths["two_treatment"].read_text())
    errors, two_n = checks.check_cli_design_known(out / "design-known-two", two)
    errors += checks.check_cli_design_known(out / "design-known-case", case)[0]
    errors += checks.check_cli_design_unknown(out / "design-unknown-case", case)
    errors += checks.check_cli_analyze(out / "analyze-case", case, seeded=False)
    errors += checks.check_cli_analyze(out / "analyze-seeded-case", case, seeded=True)
    errors += checks.check_cli_dunnett(out / "dunnett-case", case)
    errors += checks.check_cli_boundary(out / "boundary-two", two, two_n)
    errors += checks.check_cli_tables(out / "reproduce-tables")
    return errors


def cli_rounds(ops: list, seconds: float | None, log: Path, command=None):
    """Run whole rounds until ``seconds`` have passed (one round if None).

    ``command(round, index, name, args)`` gives the argv of an invocation;
    by default the plain CLI. Returns the records (round, name, wall s,
    CPU s, max RSS KB, exit code), the round count and the elapsed time."""
    records = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (seconds is not None and time.perf_counter() - start < seconds):
        for i, (name, args) in enumerate(ops):
            argv = command(rounds, i, name, args) if command else [sys.executable, "-m", "multiarm", *args]
            records.append((rounds, name) + run_child(argv, log))
        rounds += 1
    return records, rounds, time.perf_counter() - start


def run_cli_cold(seed: int, seconds: float) -> dict:
    out = OUT / "cli-cold"
    log = out / "stderr.log"
    paths, mc_seed = cli_inputs(seed, out / "inputs")
    ops = cli_operations(paths, mc_seed, out)
    setup = [run_child([sys.executable, "-c", "import multiarm.cli"], log)[0] for _ in range(SETUP_SAMPLES)]
    records, rounds, elapsed = cli_rounds(ops, seconds, log)
    ok = [r for r in records if r[5] == 0]
    times = [r[2] for r in ok]
    slowest: dict[int, float] = {}
    for r in ok:
        slowest[r[0]] = max(slowest.get(r[0], 0.0), r[2])
    errors = check_cli(out, paths) if len(ok) == len(records) else ["some invocations failed"]
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"cli-cold: {len(records)} invocations in {rounds} rounds over {elapsed:.2f} s; "
          f"tail is the median over rounds of the slowest invocation; set-up samples {[round(s, 3) for s in setup]}")
    return {
        "correct": not errors and bool(ok),
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": end_to_end(setup, len(ok), elapsed, statistics.median(times),
                              statistics.median(slowest.values()), sum(r[3] for r in ok), max(r[4] for r in ok)),
    }


def traced_cli(seed: int, seconds: float | None) -> dict:
    """Traced cli-cold rounds; returns the dumps of every invocation."""
    out = OUT / "cli-cold"
    paths, mc_seed = cli_inputs(seed, out / "inputs")
    ops = cli_operations(paths, mc_seed, out)
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)

    def command(round_: int, i: int, name: str, args: list[str]) -> list[str]:
        return [sys.executable, str(HERE / "traced_cli.py"), "--trace-out", str(traces / f"{round_}-{i}.json"),
                "--name", name, "--", *args]

    records, rounds, elapsed = cli_rounds(ops, seconds, out / "stderr.log", command)
    dumps = [json.loads((traces / f"{r}-{i}.json").read_text()) for r in range(rounds) for i in range(len(ops))]
    failed = sum(1 for r in records if r[5] != 0)
    return {"dumps": dumps, "attempted": len(records), "failed": failed, "elapsed_s": elapsed, "paths": paths}


# -- traced run --------------------------------------------------------------


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    import layers

    if workload == "cli-cold":
        own = traced_cli(seed, seconds)
        own_pass = layers.Pass(own["dumps"])
        errors = check_cli(OUT / "cli-cold", own["paths"]) if own["failed"] == 0 else ["some invocations failed"]
        for line in errors:
            print(f"check failed: {line}", file=sys.stderr)
        correct = not errors
    else:
        own = traced_worker(workload, seed, seconds, None)
        own_pass = layers.Pass([own["dump"]])
        correct = own["check_failures"] == 0
        dump = own["dump"]
        if workload == "design-sweep":
            print(f"{workload}: {dump['quantile_requests']} max-quantile requests, "
                  f"{dump['quantile_repeats'] / dump['quantile_requests']:.3f} of them repeats of an earlier (k, rho, df, p)")
    print(f"{workload} traced: {own['attempted'] - own['failed']} operations over {own['elapsed_s']:.2f} s "
          f"({(own['attempted'] - own['failed']) / own['elapsed_s']:.3f} ops/s)")
    covers = {}
    for home in sorted(layers.homes_needed(own_pass)):
        if home == "cli-cold":
            covers[home] = layers.Pass(traced_cli(seed, None)["dumps"])
        else:
            covers[home] = layers.Pass([traced_worker(home, seed, seconds, 1)["dump"]])
        print(f"layers not reached by {workload} taken from one traced round of {home}")
    return {
        "correct": correct,
        "attempted": own["attempted"],
        "failed": own["failed"],
        "metrics": layers.layer_metrics(own_pass, covers),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="multiarm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "multiarm" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"error: {ROOT} is not a multiarm checkout (src/multiarm and configs/ are missing)", file=sys.stderr)
        return 2
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    (OUT / args.workload).mkdir(parents=True)
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds)
    elif args.workload == "cli-cold":
        result = run_cli_cold(args.seed, args.seconds)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
