"""Run one ``multiarm`` CLI invocation under the tracer.

Usage: traced_cli.py --trace-out FILE --name NAME -- <cli arguments>

Times ``import multiarm.cli`` as the span ``cli.import``, installs the
tracer, runs ``main`` inside the span ``cli.NAME`` and writes the call
tree to FILE. The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tracing  # noqa: E402  (needs the path above)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = tracing.Tracer()
    with tracer.span("cli.import"):
        import multiarm.cli
    tracing.install(tracer)
    with tracer.span("op"), tracer.span(f"cli.{args.name}"):
        code = multiarm.cli.main(cli_args)
    Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
