"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 bench/record.py --seeds 1-10 --out BENCH_label.json
    python3 bench/record.py --workloads state-files-d4 --seeds 1-5 --trace 1

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
reports for every metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), with the
provenance of the first run. The JSON written to ``--out`` is the record a
before/after comparison cites.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=HERE.parent, check=True,
    )
    lines = done.stdout.splitlines()
    provenance = next(
        (json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("provenance: ")),
        None,
    )
    return json.loads(lines[-1]), provenance


def summarise(values):
    ordered = sorted(values)
    median = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    record = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result, provenance = run_once(workload, seed, args.seconds, args.trace)
            record.setdefault("provenance", provenance)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
        metrics = {
            name: {"unit": unit, **summarise([r["metrics"][name]["value"] for r in results])}
            for name, unit in units.items()
        }
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"  {name}: median {m['median']:.6g} {m['unit']}, "
                  f"quartiles {m['q1']:.6g}..{m['q3']:.6g}, spread {m['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
