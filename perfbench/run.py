"""Benchmark of the spectral_robustness package: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload probe_cifar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run sets the workload up SETUP_REPS times, warms up with one discarded
round, then runs rounds of fixed work back to back (a closed loop with one
caller) until ``--seconds`` of work have passed, checking each round's outputs
outside the timed region. It prints a report and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its per-layer
metrics with ``--trace 1``. It exits 1 when any check fails and 2 when the
package source is missing.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("probe_cifar", "cli_files", "shift_jacobian")
SETUP_REPS = 5
MIN_ROUNDS = 4
# Per-layer metrics taken from one set-up rather than one round.
SETUP_LAYERS = ("jacobian.fit_s", "synthetic.s")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "spectral_robustness").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def percentile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles (exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def run_workload(args) -> int:
    from tracing import Tracer, median_per_metric
    from workloads import CliFiles, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    tracer = Tracer(run_id)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    if args.workload == CliFiles.name:
        workload = CliFiles(args.seed, tracer, workdir)
    else:
        workload = WORKLOADS[args.workload](args.seed, tracer)

    attempted = failed = 0
    errors: list[str] = []
    rounds: list[dict] = []
    setups: list[tuple[float, float]] = []
    try:
        tracer.enabled = bool(args.trace)
        for _ in range(SETUP_REPS):
            tracer.start_clock()
            with tracer.span("bench.setup"):
                workload.setup()
            setups.append(tracer.stop_clock())
        tracer.enabled = False
        # Warm-up round 0 fills FFT plan caches and first-call state; discarded.
        workload.check(workload.run_round(0))

        while len(rounds) < MIN_ROUNDS or sum(r["wall"] for r in rounds) < args.seconds:
            # Traced runs alternate traced and untraced rounds; the difference
            # of their median calibrated times is the tracing overhead.
            tracer.enabled = bool(args.trace) and len(rounds) % 2 == 0
            tracer.start_clock()
            out = workload.run_round(len(rounds) + 1)
            out["wall"], out["calibrated"] = tracer.stop_clock()
            out["traced"], tracer.enabled = tracer.enabled, False
            round_errors = workload.check(out)
            attempted += out["attempted"]
            failed += min(len(round_errors), out["attempted"])
            errors.extend(round_errors)
            rounds.append(out)
    except Exception:  # the boundary of the run: report, count and stop
        traceback.print_exc()
        attempted += 1
        failed += 1
        errors.append("run stopped by an exception")
    finally:
        tracer.enabled = False
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    env = environment(args.seed)
    for message in errors[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    if not rounds:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1),
                          "metrics": {}}))
        return 1

    walls = [r["wall"] for r in rounds]
    report = [
        ("setup_s", statistics.median(c for _, c in setups), "s", len(setups)),
        ("round_s", statistics.median(r["calibrated"] for r in rounds), "s", len(rounds)),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ("setup_raw_s", statistics.median(s for s, _ in setups), "s", len(setups)),
        ("wall_s", statistics.median(walls), "s", len(walls)),
        ("failed_frac", failed / max(attempted, 1), "ratio", attempted),
    ]
    if "paths" in rounds[0]:
        report.append(("paths_per_s", sum(r["paths"] for r in rounds) / sum(walls), "paths/s", len(rounds)))
    if "path_latencies" in rounds[0]:
        lat = [t * 1e3 for r in rounds for t in r["path_latencies"]]
        report += [("path_ms_p50", percentile(lat, 50), "ms", len(lat)),
                   ("path_ms_p90", percentile(lat, 90), "ms", len(lat))]
    if "disk_bytes" in rounds[0]:
        report.append(("disk_mb", statistics.median(r["disk_bytes"] for r in rounds) / 1e6, "MB", len(rounds)))
    if "shift_maps" in rounds[0]:
        report += [
            ("shift_maps_per_s", sum(r["shift_maps"] for r in rounds) / sum(r["shift_wall"] for r in rounds),
             "maps/s", len(rounds)),
            ("jacobian_norms_per_s", sum(r["norms"] for r in rounds) / sum(r["jacobian_wall"] for r in rounds),
             "norms/s", len(rounds)),
        ]

    print(f"# {args.workload}: {len(rounds)} rounds, {attempted} checked operations, {failed} failed")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, n in report:
        print(f"{args.workload:15s} {name:28s} {value:14.6g} {unit:8s} n={n}")

    if args.trace:
        wanted = spec["per_layer"]
        round_rows = tracer.per_root("bench.round")
        for row in round_rows:
            row["trace.coverage"] = 1.0 - row["bench.glue_s"] / row["bench.wall_s"]
        values = median_per_metric(round_rows, [m["name"] for m in wanted])
        values.update(median_per_metric(tracer.per_root("bench.setup"), SETUP_LAYERS))
        values["trace.overhead_s"] = (
            statistics.median(r["calibrated"] for r in rounds if r["traced"])
            - statistics.median(r["calibrated"] for r in rounds if not r["traced"])
        )
        for m in wanted:
            print(f"{args.workload:15s} {m['name']:28s} {values[m['name']]:14.6g} {m['unit']}")
    else:
        wanted = spec["end_to_end"]
        values = {name: value for name, value, _, _ in report}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    RUN_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "environment": env, "report": report, "metrics": metrics}
    (RUN_DIR / f"{run_id}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write(RUN_DIR / f"{run_id}.spans.jsonl")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectral_robustness" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
