"""Steadiness and layer reports over repeated benchmark runs.

Run from the repository root::

    python3 perfbench/report.py steady --runs 10     # spread of every end-to-end metric
    python3 perfbench/report.py layers --seed 1      # layer x workload table, traced

``steady`` runs every workload ``--runs`` times with seeds ``--first-seed``,
``--first-seed + 1``, ... at the ``run_seconds`` of ``BENCHMARK.json``,
then runs the first seed once more and requires the same output digest.
For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to the metric's bound.

``layers`` makes two traced runs per workload with one seed, requires
identical counts from both, and prints per-request self times by layer.

Both record the commit, ``nproc``, the Python and numpy versions, the
workload seeds and the request counts in a JSON file (``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run of the benchmark command; its result and detail lines."""
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit("{} seed {} trace {} exited {}".format(
            workload, seed, trace, done.returncode))
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def steady(args) -> dict:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    bounds["request_p95_s"] = None  # printed in each run's detail, not bounded
    report = {"workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, detail = bench(workload, seed, 0)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            metrics["request_p95_s"] = detail["request_p95_s"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "requests": detail["sent"], "output_sha256": detail["output_sha256"],
                         "metrics": metrics})
            print("{} seed {}: {}".format(workload, seed, json.dumps(runs[-1]["metrics"])),
                  flush=True)
        _, again = bench(workload, args.first_seed, 0)
        repeatable = again["output_sha256"] == runs[0]["output_sha256"]
        rows = {}
        print("\n{}  (runs {}, requests per run {}-{}, output repeatable: {})".format(
            workload, len(runs), min(r["requests"] for r in runs),
            max(r["requests"] for r in runs), repeatable))
        print("  {:18s} {:>12s} {:>12s} {:>12s} {:>8s} {:>6s}".format(
            "metric", "median", "Q1", "Q3", "spread", "bound"))
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles([run["metrics"][name] for run in runs],
                                                  n=4)
            spread = (q3 - q1) / median
            if bound is None:
                verdict = "unbounded"
            else:
                verdict = ("ok" if spread < bound / 3
                           else "wide" if spread < bound else "OVER")
            if name != "setup_s" and verdict == "OVER":
                ok = False
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "verdict": verdict}
            print("  {:18s} {:12.6g} {:12.6g} {:12.6g} {:8.4f} {:>6s} {}".format(
                name, median, q1, q3, spread, "-" if bound is None else str(bound),
                verdict))
        all_correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        ok = ok and repeatable and all_correct
        report["workloads"][workload] = {"runs": runs, "metrics": rows,
                                         "repeatable_output": repeatable,
                                         "all_correct": all_correct}
    report["ok"] = ok
    return report


def layers(args) -> dict:
    report = {"workloads": {}}
    table: dict[str, dict[str, float]] = {}
    ok = True
    for workload in args.workloads:
        first, detail = bench(workload, args.seed, 1)
        second, _ = bench(workload, args.seed, 1)
        counts = {name: value["value"] for name, value in first["metrics"].items()
                  if value["unit"] in ("count", "bytes")}
        again = {name: value["value"] for name, value in second["metrics"].items()
                 if value["unit"] in ("count", "bytes")}
        identical = counts == again
        ok = ok and identical and first["correct"] and second["correct"]
        report["workloads"][workload] = {"metrics": first["metrics"], "counts_identical":
                                         identical, "requests": detail["traced"]["sent"],
                                         "layers_ms": detail["layers_ms"]}
        for name, value in first["metrics"].items():
            table.setdefault(name, {})[workload] = value["value"]
        print("{}: counts identical across two traced runs: {}".format(workload, identical),
              flush=True)
    width = max(len(name) for name in table)
    print("\n{}  {}".format("layer".ljust(width),
                            "  ".join("{:>14s}".format(w) for w in args.workloads)))
    for name, values in table.items():
        print("{}  {}".format(name.ljust(width), "  ".join(
            "{:14.6g}".format(values.get(w, float("nan"))) for w in args.workloads)))
    report["ok"] = ok
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("steady", "layers"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--runs", type=int, default=10, help="steady: runs per workload")
    parser.add_argument("--first-seed", type=int, default=1, help="steady: first seed")
    parser.add_argument("--seed", type=int, default=1, help="layers: workload seed")
    parser.add_argument("--out", default=None,
                        help="JSON report path (default .perfbench_work/MODE.json)")
    args = parser.parse_args(argv)
    args.workloads = [name for name in args.workloads.split(",") if name]
    report = steady(args) if args.mode == "steady" else layers(args)
    report.update(commit=commit(), nproc=os.cpu_count(), python=sys.version.split()[0],
                  numpy=numpy.__version__, run_seconds=SPEC["run_seconds"])
    out = Path(args.out) if args.out else ROOT / ".perfbench_work" / (args.mode + ".json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("\nreport written to {}; {}".format(out, "ok" if report["ok"] else "NOT OK"))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
