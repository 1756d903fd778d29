"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload again with bench-side layer spans and prints the per-layer
metrics, writing the spans as a Chrome trace that ``repro stats`` reads.
The last line of standard output is the JSON result; the lines before it
are the same metrics as a table, with the host fingerprint.  The full
record (fingerprint, tail percentiles, server counters, errors) is also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from multiprocessing import resource_tracker

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("archive", "archive_auto", "service")


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="scaled-down inputs, for the benchmark's self-test")
    return p.parse_args(argv)


def _table(summary: dict, details: dict) -> list[str]:
    lines = []
    for name, m in summary["metrics"].items():
        extra = details.get(name)
        note = (f"  (p{extra['percentile']:.1f} of {extra['samples']})"
                if isinstance(extra, dict) and "percentile" in extra else "")
        lines.append(f"  {name:32s} {m['value']:14.4f} {m['unit']}{note}")
    rate = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    lines.append(f"  {'error_rate':32s} {rate:14.4f} ratio"
                 f"  ({summary['failed']} failed of {summary['attempted']})")
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.host import clear_kernel_env

    ambient = clear_kernel_env()
    from perfbench import archive, service
    from perfbench.host import fingerprint
    from perfbench.ledger import LayerTrace, Result

    fp = fingerprint(ROOT, ambient)
    res = Result()
    trace = LayerTrace(args.trace == 1)
    if args.workload == "service":
        service.run(ROOT, args.seed, args.seconds, args.tiny, res, trace,
                    fp["auto_backend"])
    else:
        plan = "auto" if args.workload == "archive_auto" else "fast"
        archive.run(plan, args.seed, args.seconds, args.tiny, res, trace,
                    fp["auto_backend"])
    # multiprocessing starts a resource-tracker process for spawned workers
    # and shared memory; stop it and wait for it like every other child
    resource_tracker._resource_tracker._stop()
    summary = res.summary()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = dict(summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, fingerprint=fp, details=res.details,
                  errors=res.errors)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if trace.enabled:
        trace.write(OUT / f"{stem}.trace.json")
    print(f"{args.workload} seed={args.seed} "
          f"{'per-layer' if trace.enabled else 'end-to-end'} metrics:")
    print("\n".join(_table(summary, res.details)))
    for err in res.errors:
        print(f"  failed: {err}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
