"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spmv_er --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout against the checkout's own ``src/``.
Every ``REPRO_*`` environment variable is cleared first, so the engine
and server run with the package defaults.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` wraps the package's layer entry points
(see ``tracer.py``) and reports the per-layer metrics instead.  Each
metric is printed as ``name = value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
copy of the result, with provenance and (traced) spans, is written to
``perfbench/out/``.

``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def clear_repro_env() -> list:
    """Remove every ``REPRO_*`` variable; returns the names removed."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def provenance(args, cleared: list, info: dict) -> dict:
    from benchmarks._util import bench_provenance

    return {
        **bench_provenance(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cleared_env": cleared,
        **info,
    }


def main(argv=None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    cleared = clear_repro_env()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from workloads import run_workload

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    values = outcome.layers if args.trace else outcome.e2e
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": entry[0]}
        for name, entry in table.items()
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, (unit, _better) in spec.REPORTED.items():
            print(f"{name} = {outcome.e2e.get(name, 0.0):.6g} {unit}")
    for name, (value, unit) in outcome.extra.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {outcome.failed / max(outcome.attempted, 1):.6g} ratio")
    for problem in outcome.problems:
        print(f"problem: {problem}")

    result = {
        "correct": not outcome.problems and outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stamp = provenance(args, cleared, outcome.info)
    print("provenance: " + json.dumps({k: v for k, v in stamp.items() if k != "options"}))
    record = {
        **result,
        "workload": args.workload,
        "reported": {name: {"value": outcome.e2e.get(name), "unit": unit}
                     for name, (unit, _better) in spec.REPORTED.items()},
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in outcome.extra.items()},
        "problems": outcome.problems,
        "provenance": stamp,
        "layer_targets": spec.layer_targets(),
        "spans": outcome.spans,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
