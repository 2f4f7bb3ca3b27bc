"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload partly untraced, partly traced (see ``workloads.py``), prints
every per-layer metric, and writes the traced spans to ``perfbench/out/``.  Diagnostics go to
stderr; the last stdout line is the result object.  The exit code is 0
only when every operation succeeded and every answer checked correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    from perfbench.metrics import END_TO_END, PER_LAYER, result_line
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out_dir = HERE / "out"
    outcome = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), out_dir=out_dir
    )
    for note in outcome.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    if args.trace:
        from perfbench.trace import write_spans

        path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
        write_spans(path, outcome.spans)
        print(f"perfbench: {len(outcome.spans)} spans in {path}", file=sys.stderr)
    spec = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(result_line(
        outcome.metrics, spec, outcome.attempted, outcome.failed, outcome.correct
    )))
    return 0 if outcome.correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
