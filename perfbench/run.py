"""Wall-clock benchmark of the durable node (``python -m repro serve``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mainnet --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced run (plus a Chrome trace and a self-time table under
``perfbench/out/``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts
generated transactions, ``failed`` those that never reached a committed
block.  A failed correctness check exits 1 without that line.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the node."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")


def main(argv=None) -> int:
    from serveloop import HELD_OUT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, required=True, help=f"input seed ({HELD_OUT_SEED} is held out for claim checks)"
    )
    parser.add_argument(
        "--seconds", type=float, required=True, help="timed loop length on the reference host; sets a fixed block count"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    from repro.store.errors import StoreError
    from serveloop import FSYNC, TXS_PER_BLOCK, GateError, measure, worker_count

    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        result = measure(
            workload,
            seed=args.seed,
            seconds=args.seconds,
            work_dir=work_dir,
            traced=bool(args.trace),
            trace_dir=OUT_DIR,
        )
    except GateError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    except StoreError as exc:  # the node refused its own run or data dir
        print(f"perfbench: node refused the run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    session = result["session"]
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": worker_count(),
        "python": platform.python_version(),
        "backend": workload.backend,
        "workers": workload.workers,
        "fsync": FSYNC,
        "seconds": args.seconds,
        "txs_per_block": TXS_PER_BLOCK,
        "blocks": session.blocks,
        "blocks_per_s_reference": workload.blocks_per_s,
        "height": session.report.height,
        "loop_wall_s": round(session.loop_wall_s, 3),
    }
    if "tail" in result:
        context["block_tail_percentile"] = result["tail"]["percentile"]
        context["block_tail_n"] = result["tail"]["n"]
    if "traced" in result:
        context["traced_blocks"] = result["traced"].blocks
        context["trace_files"] = [os.path.relpath(p, ROOT) for p in result["trace_files"]]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print("context " + json.dumps(context, sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:<30} {entry['value']:>14.4f} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": session.generated,
                "failed": session.generated - session.committed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
