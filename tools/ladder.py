"""The sieve-run ladder of two source trees, written to one BENCH_ladder.json.

    python3 tools/ladder.py --tree parent=<dir> --tree change=<dir> \
        [--rounds 5] [--out BENCH_ladder.json]

Each <dir> is a checkout of the repository (make one of another commit with
``git archive <commit> | tar -x -C <dir>``).  A rung is one sieve-run
command, run as it is written below with ``cycsieve.cli.main`` in a fresh
interpreter whose working directory is the tree and whose PYTHONPATH is the
tree's ``src``.  That process also times ``sieve.prime_fibers`` and
``sieve.value_moments``, which this script wraps before the command runs;
nothing under ``src/`` changes.  For each run the script records the wall
time of the process, its exit code, its peak RSS (``ru_maxrss`` of that
child alone, from ``os.wait4``), the two stage times, and M and rhs as the
command prints them.

The rounds are interleaved: each round runs every rung once in every tree,
and the order of the trees turns round by one each round.  The file holds
every run, and per rung and tree the median and quartiles of each figure,
and the change-over-parent ratio of each median when the trees are named
parent and change.
"""

import argparse
import functools
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

BIG_BUDGET = ["--budget", "10000000000"]

# name -> (base config, the keys it overrides, the sieve-run arguments
# after --config); the q = 3 rungs read delta_max = delta from the config,
# which no flag sets
RUNGS = {
    "cubic7": ("perfbench/inputs/cubic_n2_q7.json", {}, []),
    "q3-b5-d4": ("configs/quadric_q3.json",
                 {"b": 5, "delta": 4, "delta_max": 4}, BIG_BUDGET),
    "q3-b6-d4": ("configs/quadric_q3.json",
                 {"b": 6, "delta": 4, "delta_max": 4}, BIG_BUDGET),
    "q3-b6-d5": ("configs/quadric_q3.json",
                 {"b": 6, "delta": 5, "delta_max": 5}, BIG_BUDGET),
}

STAGES = ("prime_fibers", "value_moments")
FIGURES = ("wall_s", "peak_rss_mb", *(f"{s}_s" for s in STAGES))


def child(times_path: str, argv: list) -> int:
    """Runs cycsieve.cli.main(argv) with the stages timed, and writes their
    total seconds to times_path as JSON."""
    from cycsieve import cli
    from cycsieve import sieve

    times = dict.fromkeys(STAGES, 0.0)

    def timed(name):
        inner = getattr(sieve, name)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times[name] += time.perf_counter() - start
        return wrapper

    for name in STAGES:
        setattr(sieve, name, timed(name))
    try:
        return cli.main(argv)
    finally:
        pathlib.Path(times_path).write_text(json.dumps(times))


def rung_command(tree: pathlib.Path, rung: str, work: pathlib.Path) -> list:
    """The sieve-run arguments of a rung in a tree; a rung that overrides
    config keys reads a copy of its base config written under work."""
    base, over, extra = RUNGS[rung]
    config = base
    if over:
        data = json.loads((tree / base).read_text(encoding="utf-8"))
        data.update(over)
        config = str(work / f"{rung}.json")
        pathlib.Path(config).write_text(json.dumps(data), encoding="utf-8")
    return ["sieve-run", "--config", config, *extra, "--workers", "1",
            "--out", str(work / "out")]


def run_once(tree: pathlib.Path, rung: str) -> dict:
    """One run of a rung in a tree, in its own process."""
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        argv = rung_command(tree, rung, work)
        times_path = work / "times.json"
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        cmd = [sys.executable, os.path.abspath(__file__), "--child",
               str(times_path), "--", *argv]
        with open(work / "log", "w+b") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            log.seek(0)
            text = log.read().decode()
        times = (json.loads(times_path.read_text())
                 if times_path.exists() else {})
    found = re.search(r"^M=(\d+)\s+rhs=(\S+)", text, re.M)
    return {
        "exit_code": proc.returncode,
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        **{f"{s}_s": round(times.get(s, float("nan")), 4) for s in STAGES},
        "M": int(found.group(1)) if found else None,
        "rhs": found.group(2) if found else None,
    }


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True,
                        metavar="NAME=DIR", help="a named source tree")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", default="BENCH_ladder.json")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("quartiles need at least 2 rounds")
    trees = {}
    for item in args.tree:
        name, _, path = item.partition("=")
        trees[name] = pathlib.Path(path).resolve()
    runs = {rung: {name: [] for name in trees} for rung in RUNGS}
    order = list(trees)
    for round_ in range(args.rounds):
        turn = round_ % len(order)
        for name in order[turn:] + order[:turn]:
            for rung in RUNGS:
                run = run_once(trees[name], rung)
                runs[rung][name].append(run)
                print(json.dumps({"round": round_, "tree": name,
                                  "rung": rung, **run}), flush=True)

    out = {
        "what": "sieve-run ladder: wall time, peak RSS and the in-process "
                "times of sieve.prime_fibers and sieve.value_moments",
        "host": f"{platform.system()} {platform.machine()}, "
                f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "method": f"{args.rounds} interleaved rounds, one process a run, "
                  "--workers 1; medians and inclusive quartiles",
        "command": "tools/ladder.py " + " ".join(
            f"--tree {name}=<dir>" for name in trees)
            + f" --rounds {args.rounds}",
        "rungs": {rung: {"base_config": RUNGS[rung][0],
                         "overrides": RUNGS[rung][1],
                         "args": RUNGS[rung][2]} for rung in RUNGS},
        "results": {},
    }
    for rung in RUNGS:
        row = out["results"][rung] = {}
        for name, done in runs[rung].items():
            row[name] = {
                **{figure: summary([r[figure] for r in done])
                   for figure in FIGURES},
                "exit_codes": sorted({r["exit_code"] for r in done}),
                "M": sorted({r["M"] for r in done}, key=str),
                "rhs": sorted({r["rhs"] for r in done}, key=str),
                "runs": done,
            }
        if {"parent", "change"} <= row.keys():
            row["ratio"] = {
                figure: round(row["change"][figure]["median"]
                              / row["parent"][figure]["median"], 3)
                for figure in FIGURES}
    pathlib.Path(args.out).write_text(json.dumps(out, indent=1) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2], sys.argv[4:]))
    sys.exit(main())
