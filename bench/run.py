"""confalg benchmark: one workload, one seed, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload {corpus,degree,cochains} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the benchmark reads
``src/``, ``fixtures/`` and ``tests/_oracle.py`` and writes only under
``.bench_build/`` at the checkout's root.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median import
time of ``confalg.cli`` in fresh interpreters) and, from a closed loop of
whole passes over the workload's items lasting at most ``S`` seconds,
throughput, median and tail time per item, and peak resident memory.  Every
time is scaled to the reference machine speed of ``calibrate.py``, using the
calibration kernel timed next to it in the same process.  ``--trace 1``
runs one untraced pass and two traced passes, each in a fresh process, and
reports the per-layer metrics of the first traced pass, the tracing
overhead, and a determinism check: both traced passes must count exactly
the same work, and all three must give the same outputs.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when a result was printed, 1 when the determinism check
failed (the result is printed with ``correct: false``), and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "confalg"

SETUP_SAMPLES = 15
# a run must end within 180 s; workers are stopped when this budget is spent
BUDGET_S = 170.0
STARTED = time.perf_counter()
# the import is timed first, so that the kernel's imports cannot shorten it; the
# kernel then runs five times and its median gives the speed of that moment
SETUP_CODE = (
    "import sys, time; t = time.perf_counter(); import confalg.cli; "
    "dt = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import calibrate; "
    "c = sorted(calibrate.kernel_ms() for _ in range(5))[2]; "
    "print(repr(dt * calibrate.REFERENCE_MS / c), repr(dt))"
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def preflight():
    needed = [ROOT / "src" / "confalg" / "cli.py", ROOT / "tests" / "_oracle.py",
              ROOT / "fixtures" / "all.cfa"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise RuntimeError("not a confalg checkout; missing " + ", ".join(missing))


def measure_setup():
    """Median over fresh interpreters of the time to import ``confalg.cli``.

    Returns the median of the times scaled to reference speed, and that of
    the raw times.
    """
    scaled, raw = [], []
    for k in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)], cwd=ROOT,
                             env=_env(), capture_output=True, text=True, timeout=60,
                             check=True)
        if k:  # the first import may compile bytecode; users pay that once
            a, b = out.stdout.split()
            scaled.append(float(a))
            raw.append(float(b))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(items_path, out_path, seconds, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--items", str(items_path),
           "--out", str(out_path), "--seconds", str(seconds)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    remaining = BUDGET_S - (time.perf_counter() - STARTED)
    subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=sys.stderr, check=True,
                   timeout=max(remaining, 1.0))
    return json.loads(Path(out_path).read_text(encoding="utf-8"))


def at_reference_speed(res):
    """Each item's time scaled by the kernel times just before and after it."""
    calib = res["calib_ms"]
    return [ms * REFERENCE_MS / ((calib[i] + calib[i + 1]) / 2.0)
            for i, ms in enumerate(res["times_ms"])]


def tail(times_ms):
    """The highest percentile with at least ten items above it: (value, percentile)."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def faster_half(times_ms, slots):
    """For every item of the pass, its faster half of repeats over the run.

    On a machine that shares its cores with other tenants, speed drifts by
    tens of per cent over tens of seconds, while the fastest repeats of an
    item vary much less.  Keeping the faster half of each item's repeats (odd
    counts round up) removes much of that drift and keeps the mix of a pass
    intact.
    """
    by_slot = {}
    for slot, ms in zip(slots, times_ms):
        by_slot.setdefault(slot, []).append(ms)
    kept = []
    for repeats in by_slot.values():
        kept += sorted(repeats)[: (len(repeats) + 1) // 2]
    return kept


def end_to_end(items_path, seconds):
    setup_s, setup_raw_s = measure_setup()
    res = run_worker(items_path, items_path.with_name("result.json"), seconds)
    measured = res["times_ms"]
    times = faster_half(at_reference_speed(res), res["slots"])
    raw = faster_half(measured, res["slots"])
    tail_ms, tail_pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(times) / (sum(times) / 1000.0), "items/s"),
        "verdict_p50_ms": (statistics.median(times), "ms"),
        "verdict_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["rss_kb"] / 1024.0, "MiB"),
    }
    failed = len(res["failures"])
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"failed_share = {failed / len(measured):.6g} ratio "
                 f"({failed} of {len(measured)} items)")
    lines.append(f"times: faster half of each item's repeats, {len(times)} of {len(measured)} "
                 f"items ({res['passes']} passes of {len(measured) // res['passes']} items, "
                 f"loop {res['loop_s']:.2f} s); verdict_tail_ms is p{tail_pct:.2f}")
    lines.append(f"machine speed: calibration kernel median {statistics.median(res['calib_ms']):.3f} "
                 f"ms, min {min(res['calib_ms']):.3f} ms (reference {REFERENCE_MS} ms); "
                 f"unscaled: setup_s {setup_raw_s:.6g} s, "
                 f"verdicts_per_s {len(raw) / (sum(raw) / 1000.0):.6g} items/s, "
                 f"verdict_p50_ms {statistics.median(raw):.6g} ms, "
                 f"verdict_tail_ms {tail(raw)[0]:.6g} ms")
    return metrics, len(measured), res["failures"], lines


COUNT_SUFFIXES = (".calls", ".tuples", ".terms_out", ".max_terms", ".distinct_keys",
                  ".basis_only_calls", ".witnesses", ".records", ".error_records")


def traced(items_path, workload):
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain = run_worker(items_path, items_path.with_name("plain.json"), 0)
    runs = [run_worker(items_path, items_path.with_name(f"traced{k}.json"), 0,
                       spans=spans_dir / f"{workload}-{k}.bin") for k in (1, 2)]
    from tracing import METRICS, TIME_STATS

    metrics = {name: (value, "s" if METRICS[name][1] in TIME_STATS else "count")
               for name, value in runs[0]["trace"].items()}
    metrics["trace.overhead"] = (sum(at_reference_speed(runs[0])) / sum(at_reference_speed(plain)),
                                 "ratio")
    problems = list(plain["failures"])
    counts = [{k: v for k, v in r["trace"].items() if k.endswith(COUNT_SUFFIXES)} for r in runs]
    deterministic = counts[0] == counts[1]
    if not deterministic:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append("determinism: per-layer counts differ between two traced runs: "
                        + ", ".join(diff))
    for k, r in enumerate(runs, 1):
        problems += [f"traced run {k}: {f}" for f in r["failures"]]
        problems += [f"traced run {k}: {slot}: output differs from the untraced run"
                     for slot, a, b in zip(plain["slots"], plain["signatures"], r["signatures"])
                     if a != b]
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("waiting time: none (no layer has queues or retries)")
    attempted = sum(len(r["times_ms"]) for r in [plain] + runs)
    return metrics, attempted, problems, lines, deterministic


def main(argv=None):
    ap = argparse.ArgumentParser(description="confalg benchmark")
    ap.add_argument("--workload", required=True, choices=("corpus", "degree", "cochains"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        preflight()
        sys.path.insert(0, str(HERE))
        import workloads
    except (RuntimeError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    work = BUILD / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        items = workloads.build(args.workload, args.seed, ROOT, work)
        items_path = work / "items.json"
        items_path.write_text(json.dumps(items), encoding="utf-8")
        print(f"workload {args.workload}, seed {args.seed}: {len(items)} items per pass, "
              f"inputs and expected answers in {time.perf_counter() - STARTED:.1f} s")
        deterministic = True
        if args.trace:
            metrics, attempted, failures, lines, deterministic = traced(items_path, args.workload)
        else:
            metrics, attempted, failures, lines = end_to_end(items_path, args.seconds)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in lines:
        print(line)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if deterministic else 1


if __name__ == "__main__":
    sys.exit(main())
