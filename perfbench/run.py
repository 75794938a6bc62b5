"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload apply_blocked --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics, interleaving untraced and traced work.
Human-readable lines (host fingerprint, the workload's named figures
with sample counts, per-layer times labelled with their clock) come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with spans when traced, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("apply_blocked", "grid_solve", "serve_mixed")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    from host import fingerprint, pin_threads

    pin_threads()  # before numpy loads
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    host = fingerprint()
    out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    print(f"# host {json.dumps(host, sort_keys=True)}")
    for name, (value, unit, n) in out.report.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit} (n={n}, measured)")
    if args.trace:
        for name, (value, unit) in out.metrics.items():
            clock = "modeled" if name.startswith("model.") else "measured"
            print(f"# layer {name} = {value:.6g} {unit} [{clock}]")
    for problem in out.problems:
        print(f"# FAILED {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host,
        "report": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in out.report.items()},
        "problems": out.problems,
        "model_clock": "modeled: SimClock seconds per op (MI300X spec)",
        "model": out.model,
    }
    if out.tracer is not None:
        out.tracer.dump(OUT_DIR / f"{stem}-spans.json", record)
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }
    record["result"] = result
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
