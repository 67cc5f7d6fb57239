"""The cycsieve benchmark: the CLI end to end on one named workload.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Each invocation of the CLI is a fresh interpreter (``launch.py``), started
only after the previous one has exited: a closed loop with one client.  The
workload's invocations run back to back as one iteration, and iterations
repeat while another one still fits in ``--seconds`` (at least one runs).

Every invocation is pinned to as many CPUs as it has pool workers (one
without a pool), the last ones this process may use; its pool workers inherit
the pinning.

``--trace 0`` reports the end-to-end metrics, medians over the iterations.
The three times are in seconds of a reference core (see ``Canary``): the
speed of a CPU of a shared host drifts by tens of percent over minutes, so a
thread of the benchmark times a fixed piece of pure-Python work on the CPUs
the invocation is pinned to while it runs, and each time is scaled by
CANARY_REF_NS over the mean time of that work.  The raw times are in the
details line.

  wall_s       first spawn to last exit of an iteration
  setup_s      summed over the invocations: spawn until ``cli.main`` is
               entered; median over the iterations and extra probe rounds
               that stop at ``main`` (SETUP_ROUNDS and SETUP_SPAWNS)
  cpu_s        user + system CPU of every process, pool workers included
  peak_rss_mb  largest peak resident set of any process of an iteration,
               as the launcher reads it when ``main`` returns
  ok_frac      invocations that exited 0 and passed their output checks,
               over those attempted (fail_frac = 1 - ok_frac)

``--trace 1`` runs one untraced and one traced iteration and reports the
per-layer metrics of ``layers.py``; the traced artifacts must equal the
untraced ones byte for byte, and the exact counts (``layers.EXACT``) must
equal any earlier record for the same code and inputs, kept in
``baseline/counts.json`` and in the checkout's ``.perfbench_work``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (seed, code digest, Python, nproc, artifact digest).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import layers
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
WORK = os.path.join(ROOT, ".perfbench_work")
BASELINE_COUNTS = os.path.join(HERE, "baseline", "counts.json")
LOCAL_COUNTS = os.path.join(WORK, "counts.json")
SETUP_ROUNDS = 5    # set-up samples per run, at least
SETUP_SPAWNS = 12   # and at least this many spawns behind them
INVOCATION_TIMEOUT = 150  # seconds

CANARY_LOOPS = 4000         # loop turns of one canary unit
CANARY_INTERVAL = 0.05      # seconds between canary units (about 2 % of a CPU)
CANARY_MIN = 10             # fewer units in an iteration: use the whole run's
CANARY_REF_NS = 1_000_000   # a reference core runs one unit in 1 ms

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


# ---------------------------------------------------------------------------
# pinning and the speed canary


ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def cpus_for(workers):
    """The CPUs an invocation with this many pool workers is pinned to."""
    return ALLOWED_CPUS[-max(1, min(workers, len(ALLOWED_CPUS))):]


def canary_unit(loops=CANARY_LOOPS):
    """The fixed piece of work the canary times: interpreter-bound integer
    and dict operations, as in the program, on a working set that stays in
    cache."""
    table = {}
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) % 1000003
        table[acc & 1023] = i
    return acc


class Canary:
    """A thread that every CANARY_INTERVAL seconds runs ``canary_unit`` on
    one of the CPUs in ``cpus`` (in turn) and records the unit's CPU time on
    its own thread clock, which time spent waiting for a CPU does not enter.
    Sharing the invocation's CPUs, it slows as they slow.  ``scale`` turns
    the samples into the factor that maps a time measured in a span onto the
    reference core."""

    def __init__(self):
        self.cpus = ALLOWED_CPUS
        self.samples = []  # (monotonic ns at the end, unit CPU ns)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        # a run too short for CANARY_MIN units still gets a speed
        while len(self.samples) < CANARY_MIN:
            self._sample(len(self.samples))

    def _run(self):
        turn = 0
        while not self._stop.wait(CANARY_INTERVAL):
            self._sample(turn)
            turn += 1

    def _sample(self, turn):
        cpus = self.cpus
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        begin = time.thread_time_ns()
        canary_unit()
        spent = time.thread_time_ns() - begin
        self.samples.append((time.monotonic_ns(), spent))

    def unit_ns(self, start=None, end=None):
        """Mean unit time of the samples taken in [start, end], or of the
        whole run when that span holds fewer than CANARY_MIN."""
        spans = [t for at, t in self.samples
                 if start is None or start <= at <= end]
        if len(spans) < CANARY_MIN:
            spans = [t for _, t in self.samples]
        return statistics.fmean(spans)

    def scale(self, start=None, end=None):
        return CANARY_REF_NS / self.unit_ns(start, end)


# ---------------------------------------------------------------------------
# running invocations


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd, cwd, log_prefix):
    """Run cmd to completion; (exit code, start ns, end ns, cpu s, max-RSS
    KiB).  The rusage of wait4 covers the process and its reaped
    descendants, which includes the pool workers; its max-RSS is only a
    fallback, since it is never below this process's own peak.  A run that
    outlives INVOCATION_TIMEOUT is killed with its process group."""
    with open(log_prefix + ".out", "wb") as out, \
            open(log_prefix + ".err", "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        watchdog = threading.Timer(INVOCATION_TIMEOUT, _kill_group,
                                   (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, start, end, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss)


class Iteration:
    """One pass over a workload's invocations, in their own directory.  Each
    invocation is pinned with ``cpus_for`` (the calling thread is pinned
    while it spawns, and the child inherits that), and so is the canary."""

    def __init__(self, workload, work_dir, tag, mode=None, canary=None):
        self.dir = os.path.join(work_dir, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.rc, self.setup, self.cpu, self.rss = [], [], [], []
        self.stdout = []
        self.trace_dirs = []
        start = end = None
        for n, inv in enumerate(workload.invocations):
            stamp = os.path.join(self.dir, f"{n}.stamp")
            head = [stamp]
            if mode == "probe":
                head.append("--probe")
            elif mode == "trace":
                tdir = os.path.join(self.dir, f"{n}.trace")
                os.makedirs(tdir)
                self.trace_dirs.append(tdir)
                head += ["--trace", tdir]
            out = os.path.relpath(os.path.join(self.dir, inv.out), work_dir)
            cmd = [sys.executable, LAUNCH, *head, "--", *inv.args,
                   "--out", out]
            cpus = cpus_for(workers_of(inv))
            if canary is not None:
                canary.cpus = cpus
            os.sched_setaffinity(0, cpus)
            try:
                rc, t0, t1, cpu, rss = spawn(cmd, work_dir,
                                             os.path.join(self.dir, str(n)))
            finally:
                os.sched_setaffinity(0, ALLOWED_CPUS)
            start = t0 if start is None else start
            end = t1
            self.rc.append(rc)
            self.cpu.append(cpu)
            self.rss.append(rss)
            with open(os.path.join(self.dir, f"{n}.out"),
                      encoding="utf-8", errors="replace") as fh:
                self.stdout.append(fh.read())
            try:
                with open(stamp, encoding="utf-8") as fh:
                    lines = fh.read().split()
                self.setup.append((int(lines[0]) - t0) / 1e9)
                if len(lines) > 1:
                    self.rss[-1] = int(lines[1])
            except (OSError, ValueError, IndexError):
                self.setup.append(None)
        self.start, self.end = start, end
        self.wall = (end - start) / 1e9
        self.problems = {}
        for n, rc in enumerate(self.rc):
            if rc != 0:
                self.problems.setdefault(n, []).append(f"exit code {rc}")
            if self.setup[n] is None:
                self.problems.setdefault(n, []).append("main never entered")
        if mode != "probe":
            for n, found in workload.check(self.dir, self.stdout).items():
                if found:
                    self.problems.setdefault(n, []).extend(found)

    @property
    def failed(self):
        return len(self.problems)

    def setup_total(self):
        return sum(s for s in self.setup if s is not None)

    def artifact_digest(self, workload):
        return hashlib.sha256("".join(
            workloads.dir_digest(os.path.join(self.dir, inv.out))
            for inv in workload.invocations).encode()).hexdigest()


def workers_of(inv):
    args = inv.args
    return int(args[args.index("--workers") + 1]) if "--workers" in args else 1


def describe_problems(workload, it, label):
    lines = []
    for n, found in sorted(it.problems.items()):
        args = " ".join(workload.invocations[n].args)
        for problem in found:
            lines.append(f"FAIL [{label}] cycsieve {args}: {problem}")
    return lines


# ---------------------------------------------------------------------------
# identity of the code and the machine


def code_digest():
    pkg = os.path.join(ROOT, "src", "cycsieve")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# exact-count records


def _load_counts(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def compare_counts(key, counts, records):
    """Problems where counts differ from a record under the same key."""
    problems = []
    for source, table in records:
        want = table.get(key)
        if want is None:
            continue
        for name in counts:
            if name in want and want[name] != counts[name]:
                problems.append(f"{name} = {counts[name]}, {source} has "
                                f"{want[name]} for the same code and inputs")
    return problems


def exact_counts(workload):
    """layers.EXACT, less the schedule-dependent counts when an invocation
    runs a worker pool."""
    pooled = any(workers_of(inv) > 1 for inv in workload.invocations)
    return [name for name in layers.EXACT
            if not (pooled and name in layers.SCHEDULE_DEPENDENT)]


def check_counts(workload, metrics):
    key = (f"{workload.name}/{workload.input_digest()[:16]}/"
           f"{code_digest()[:16]}")
    counts = {name: metrics[name] for name in exact_counts(workload)}
    local = _load_counts(LOCAL_COUNTS)
    records = [("baseline/counts.json", _load_counts(BASELINE_COUNTS)),
               ("an earlier run in this checkout", local)]
    problems = compare_counts(key, counts, records)
    compared = any(key in table for _, table in records)
    local[key] = counts
    with open(LOCAL_COUNTS, "w", encoding="utf-8") as fh:
        json.dump(local, fh, indent=1, sort_keys=True)
    return key, compared, problems


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload, work_dir, seconds):
    iterations = []
    with Canary() as canary:
        began = time.monotonic()
        while True:
            it = Iteration(workload, work_dir, f"it{len(iterations)}",
                           canary=canary)
            iterations.append(it)
            elapsed = time.monotonic() - began
            typical = statistics.median(i.wall for i in iterations)
            if elapsed + typical > seconds:
                break
        rounds = max(SETUP_ROUNDS,
                     -(-SETUP_SPAWNS // len(workload.invocations)))
        probes = [Iteration(workload, work_dir, f"probe{n}", mode="probe",
                            canary=canary)
                  for n in range(rounds - len(iterations))]
    runs = iterations + probes
    attempted = sum(len(workload.invocations) for _ in runs)
    failed = sum(it.failed for it in runs)
    scales = [canary.scale(it.start, it.end) for it in runs]
    timed = list(zip(iterations, scales))
    metrics = {
        "wall_s": statistics.median(it.wall * f for it, f in timed),
        "setup_s": statistics.median(it.setup_total() * f
                                     for it, f in zip(runs, scales)),
        "cpu_s": statistics.median(sum(it.cpu) * f for it, f in timed),
        "peak_rss_mb": statistics.median(max(it.rss) / 1024
                                         for it in iterations),
        "ok_frac": (attempted - failed) / attempted,
    }
    problems = []
    for n, it in enumerate(runs):
        problems += describe_problems(workload, it, f"iteration {n}")
    details = {
        "iterations": len(iterations),
        "setup_samples": len(runs),
        "raw_wall_s_each": [round(it.wall, 4) for it in iterations],
        "raw_cpu_s_each": [round(sum(it.cpu), 4) for it in iterations],
        "raw_setup_s": round(statistics.median(it.setup_total()
                                               for it in runs), 4),
        "canary_unit_us": round(canary.unit_ns() / 1e3, 2),
        "canary_samples": len(canary.samples),
        "scale_each": [round(f, 4) for _, f in timed],
        "artifact_digest": iterations[0].artifact_digest(workload),
    }
    return attempted, failed, metrics, problems, details


def traced_run(workload, work_dir):
    plain = Iteration(workload, work_dir, "plain")
    traced = Iteration(workload, work_dir, "traced", mode="trace")
    for n, inv in enumerate(workload.invocations):
        a, b = (workloads.dir_digest(os.path.join(it.dir, inv.out))
                for it in (plain, traced))
        if a != b:
            traced.problems.setdefault(n, []).append(
                "artifacts differ from the untraced run")
    problems = (describe_problems(workload, plain, "untraced")
                + describe_problems(workload, traced, "traced"))
    failed = plain.failed + traced.failed
    per_inv = [(workers_of(inv), tracer.read_dir(tdir))
               for inv, tdir in zip(workload.invocations, traced.trace_dirs)]
    metrics = layers.layer_metrics(per_inv, traced.wall / plain.wall - 1)
    key, compared, count_problems = check_counts(workload, metrics)
    problems += [f"FAIL count not repeated: {p}" for p in count_problems]
    exact = exact_counts(workload)
    details = {
        "untraced_wall_s": round(plain.wall, 4),
        "traced_wall_s": round(traced.wall, 4),
        "artifact_digest": plain.artifact_digest(workload),
        "counts_key": key,
        "counts_compared": compared,
        "exact_counts": exact,
        "schedule_dependent": [n for n in layers.SCHEDULE_DEPENDENT
                               if n not in exact],
        "chunks_per_worker": layers.chunks_per_worker(per_inv),
    }
    attempted = 2 * len(workload.invocations)
    return attempted, failed, metrics, problems, details


def run_workload(name, seed, seconds, trace):
    workload = workloads.make(name, seed, ROOT)
    work_dir = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        for fname, text in workload.files.items():
            with open(os.path.join(work_dir, fname), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
        # compile the package once, as an installed copy would be
        Iteration(workload, work_dir, "warmup", mode="probe")
        if trace:
            result = traced_run(workload, work_dir)
        else:
            result = timed_run(workload, work_dir, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed, metrics, problems, details = result
    details.update({
        "workload": name,
        "seed": seed,
        "inputs": workload.notes,
        "trace": trace,
        "git_sha": git_sha(),
        "code_digest": code_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "fail_frac": failed / attempted,
    })
    correct = failed == 0 and not problems
    return correct, attempted, failed, metrics, problems, details


def print_table(name, metrics, units, details):
    samples = ("" if "iterations" not in details
               else f" (median of {details['iterations']})")
    print(f"== {name}{samples}")
    for metric, value in metrics.items():
        print(f"  {metric:40s} {value:>16.6g} {units[metric]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cycsieve", "cli.py")):
        print(f"no cycsieve sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else [args.workload]
    units = ({m: u for m, (u, _) in layers.PER_LAYER.items()} if args.trace
             else END_TO_END)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, got, problems, details = run_workload(
            name, args.seed, args.seconds, args.trace)
        for line in problems:
            print(line)
        print_table(name, got, units, details)
        print(json.dumps(details, sort_keys=True))
        correct = correct and ok
        attempted += att
        failed += fail
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + m: {"value": v, "unit": units[m]}
                        for m, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
