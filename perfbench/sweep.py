"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/sweep.py --workload NAME [--seeds 1-10] [--seconds S]
                               [--trace 0|1] [--out FILE]

For every metric it prints the median over the runs, the quartiles that
``statistics.quantiles(values, n=4)`` gives and their distance as a share of
the median (the steadiness test for the bounds in BENCHMARK.json).  The
summary also goes to FILE as JSON when ``--out`` is given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for seed in seeds_of(args.seeds):
        began = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result, details = json.loads(lines[-1]), json.loads(lines[-2])
        runs.append({"seed": seed, "result": result, "details": details,
                     "elapsed_s": round(time.monotonic() - began, 2)})
        values = {m: v["value"] for m, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{m}={v:.6g}" for m, v in values.items()
                         if not args.trace == "1" or m.endswith("_s")),
              flush=True)

    summary = {}
    for metric in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][metric]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[metric] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "unit": runs[0]["result"]["metrics"][metric]["unit"],
        }
        print(f"{metric:40s} median {median:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {summary[metric]['spread']:.4f}")
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "all_correct": all(r["result"]["correct"] for r in runs),
        "meta": {k: runs[0]["details"][k]
                 for k in ("git_sha", "code_digest", "python", "nproc")},
        "summary": summary,
        "runs": runs,
    }
    print(f"all correct: {report['all_correct']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
