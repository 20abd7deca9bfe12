"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads corpus degree cochains --seeds 1-10 \
        [--seconds 30] [--trace 0] [--out FILE.json]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartile (``statistics.quantiles``
with ``n=4``) as a share of the median, which is how run-to-run spread is
judged against the bounds in ``BENCHMARK.json``.  With ``--out`` the per-seed
results and the summaries are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return {"median": med, "q1": q[0], "q3": q[2], "iqr_share": (q[2] - q[0]) / med if med else 0.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=["corpus", "degree", "cochains"])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=args.seconds + 600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = dict(summarize(values), unit=runs[0]["metrics"][name]["unit"])
            s = summary[name]
            print(f"  {name:32s} median {s['median']:.6g} {s['unit']}  "
                  f"quartile spread {s['iqr_share']:.3f}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
