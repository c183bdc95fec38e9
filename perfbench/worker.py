"""One fresh interpreter running an in-process workload.

Started by ``run.py``; not meant to be run by hand. The worker imports
the library, makes its inputs and warms each operation kind, then prints
``READY`` so the parent can time set-up from process start. Unless it is
a set-up probe, it then runs whole rounds of operations until the timed
phase has lasted ``--seconds``, checks the outputs, and prints one JSON
line with the raw measurements.

With ``--trace-out`` the library is traced and the call tree of the
timed operations is written to that file. ``--rounds`` replaces the time
limit by a fixed number of rounds (used for the short traced passes that
cover layers another workload does not reach).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--rounds", type=int)
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    import workloads

    operation = workloads.OPERATIONS[args.workload]
    stream = workloads.Stream(args.workload, args.seed)
    for item in workloads.warmup_items(args.workload):
        operation(item)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        tracer.reset()

    times: list[float] = []
    round_sizes: list[int] = []
    kept: list[tuple] = []
    failed = 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if args.rounds is not None:
            if len(round_sizes) >= args.rounds:
                break
        elif elapsed >= args.seconds:
            break
        items = stream.next_round()
        round_sizes.append(len(items))
        for item in items:
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        out = operation(item)
                else:
                    out = operation(item)
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            kept.append((item, out))
    elapsed = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    import checks

    check_start = time.perf_counter()
    failures = [] if args.rounds is not None else checks.check_workload(args.workload, kept)
    check_s = time.perf_counter() - check_start
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "attempted": sum(round_sizes),
                "failed": failed,
                "rounds": len(round_sizes),
                "elapsed_s": elapsed,
                "cpu_s": cpu,
                "op_s": times,
                "round_sizes": round_sizes,
                "maxrss_kb": maxrss_kb,
                "check_failures": len(failures),
                "check_s": check_s,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
