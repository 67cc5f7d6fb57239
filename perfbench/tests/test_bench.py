"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def _package(clock):
    """Two modules of a fake package: alpha defines, beta imports aliases."""
    alpha = types.ModuleType("fakepkg.alpha")
    beta = types.ModuleType("fakepkg.beta")

    def leaf(n):
        clock.now += n
        return n

    def middle():
        clock.now += 5
        alpha.leaf(3)
        clock.now += 1
        alpha.leaf(2)
        return "done"

    def outer():
        clock.now += 10
        beta.middle()
        return "done"

    def countdown(n):
        clock.now += 1
        return countdown_site.countdown(n - 1) if n else 0

    class Box:
        def __init__(self, size):
            clock.now += 7
            self.size = size

        def grow(self):
            return alpha.leaf(self.size)

    for fn in (leaf, middle, outer, countdown, Box.__init__, Box.grow):
        fn.__module__ = alpha.__name__
    for fn in (leaf, middle, outer, countdown):
        setattr(alpha, fn.__name__, fn)
    Box.__module__ = alpha.__name__
    alpha.Box = Box
    beta.middle = middle  # from .alpha import middle
    beta.Box = Box        # from .alpha import Box
    countdown_site = alpha
    return alpha, beta


def test_self_time_of_nested_spans():
    clock = FakeClock()
    alpha, beta = _package(clock)
    t = tracer.Tracer(clock=clock)
    t.patch([alpha, beta], prefix="fakepkg.")
    assert alpha.outer() == "done"
    stats = {n: s[:3] for n, s in t.stats.items() if s[0]}
    # outer: 10 own + middle (5 + 1 own, leaves 3 + 2) = 21 inclusive
    assert stats["alpha.outer"] == [1, 21, 10]
    assert stats["alpha.middle"] == [1, 11, 6]
    assert stats["alpha.leaf"] == [2, 5, 5]
    assert sum(s[2] for s in stats.values()) == 21


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    alpha, beta = _package(clock)
    t = tracer.Tracer(clock=clock)
    t.patch([alpha, beta], prefix="fakepkg.")
    alpha.countdown(3)
    assert t.stats["alpha.countdown"][:3] == [4, 4, 4]


def test_methods_and_constructors_are_wrapped():
    clock = FakeClock()
    alpha, beta = _package(clock)
    t = tracer.Tracer(clock=clock)
    t.patch([alpha, beta], prefix="fakepkg.")
    box = beta.Box(4)
    box.grow()
    assert t.stats["alpha.Box.__init__"][:3] == [1, 7, 7]
    assert t.stats["alpha.Box.grow"][:3] == [1, 4, 0]


def test_unpatched_alias_is_detected():
    clock = FakeClock()
    alpha, beta = _package(clock)
    original = beta.middle
    t = tracer.Tracer(clock=clock)
    t.patch([alpha, beta], prefix="fakepkg.")
    assert beta.middle is alpha.middle is not original
    assert t.find_unpatched([alpha, beta]) == []
    beta.middle = original
    assert t.find_unpatched([alpha, beta]) == ["fakepkg.beta.middle"]


def test_merge_adds_processes():
    a = {"stats": {"x.f": [2, 10, 4]}, "spans": [["x.f"]],
         "distinct": {"x.f": ["1", "2"]}, "sums": {"x.f": 3}}
    b = {"stats": {"x.f": [1, 5, 5]}, "spans": [],
         "distinct": {"x.f": ["2", "3"]}, "sums": {"x.f": 4}}
    got = tracer.merge([a, b])
    assert got["stats"]["x.f"] == [3, 15, 9]
    assert got["distinct"]["x.f"] == {"1", "2", "3"}
    assert got["sums"]["x.f"] == 7 and len(got["spans"]) == 1


def test_pool_wait_from_chunk_spans():
    snap = {"stats": {"reports.parallel_accumulator": [1, 10 * 10**9, 0]},
            "spans": [["sieve.accumulate_chunk", None, 1, 0, 8 * 10**9,
                       {"start": 0, "stop": 100}],
                      ["sieve.accumulate_chunk", None, 2, 0, 6 * 10**9,
                       {"start": 100, "stop": 300}]],
            "distinct": {}, "sums": {}}
    got = layers.layer_metrics([(2, [snap])], 0.5)
    assert got["sieve.box_points"] == 300
    assert abs(got["reports.pool_wait_frac"] - 0.3) < 1e-12
    assert got["reports.chunk_s_max"] == 8.0
    assert set(got) == set(layers.PER_LAYER)


def test_one_byte_artifact_change_is_caught(tmp_path):
    path = tmp_path / "w1" / "sieve_report.json"
    path.parent.mkdir()
    path.write_bytes(b'{"M": 927}\n')
    want = {"w1/sieve_report.json": workloads.file_digest(path)}
    before = workloads.dir_digest(tmp_path)
    assert workloads.digest_problems(tmp_path, want) == []
    path.write_bytes(b'{"M": 928}\n')
    assert [rel for rel, _ in workloads.digest_problems(tmp_path, want)] \
        == ["w1/sieve_report.json"]
    assert workloads.dir_digest(tmp_path) != before


def test_nonzero_exit_counts_as_failure(tmp_path):
    workload = workloads.Workload(
        "tiny", {}, [
            workloads.Invocation(["primes", "--q", "3", "--delta", "1"], "a"),
            workloads.Invocation(["count", "--config", "missing.json"], "b"),
        ], lambda it_dir, stdouts: {})
    attempted, failed, metrics, problems, _ = run.timed_run(
        workload, str(tmp_path), seconds=0)
    # one iteration and five probe rounds (twelve set-up spawns); only the
    # real count exits 2
    assert (attempted, failed) == (12, 1)
    assert metrics["ok_frac"] == 11 / 12
    assert problems == ["FAIL [iteration 0] cycsieve count --config "
                        "missing.json: exit code 2"]


def test_count_mismatch_is_reported():
    counts = {name: 1 for name in layers.EXACT}
    same = {"k": dict(counts)}
    other = {"k": dict(counts, **{"polyring.mul.calls": 2})}
    assert run.compare_counts("k", counts, [("a", same)]) == []
    assert run.compare_counts("other-key", counts, [("b", other)]) == []
    assert len(run.compare_counts("k", counts, [("b", other)])) == 1


def test_pool_dependent_counts_are_not_compared_under_a_pool():
    pooled = run.exact_counts(workloads.sieve_quaternary(0))
    single = run.exact_counts(workloads.audit_quaternary(0))
    assert "polyring.divrem.calls" in single
    assert "polyring.divrem.calls" not in pooled
    assert set(single) == set(layers.EXACT)


def test_canary_scales_by_the_samples_of_a_span():
    canary = run.Canary()
    ref = run.CANARY_REF_NS
    canary.samples = ([(t, ref) for t in range(run.CANARY_MIN)]
                      + [(100 + t, 2 * ref) for t in range(run.CANARY_MIN)])
    # a span twice as slow as the reference core halves its times
    assert canary.scale(100, 200) == 0.5
    assert canary.scale(0, run.CANARY_MIN - 1) == 1.0
    # too few samples in the span: the whole run's mean
    assert canary.unit_ns(0, 2) == 1.5 * ref
    assert canary.unit_ns() == 1.5 * ref


def test_short_run_still_gets_a_speed():
    with run.Canary() as canary:
        pass
    assert len(canary.samples) >= run.CANARY_MIN
    assert canary.scale() > 0


def test_invocations_are_pinned_to_their_workers():
    allowed = set(run.ALLOWED_CPUS)
    for workers in (1, 2, 64):
        cpus = run.cpus_for(workers)
        assert set(cpus) <= allowed
        assert len(cpus) == max(1, min(workers, len(allowed)))
