"""Smoke test of the benchmark: every workload once, at tiny sizes.

    PYTHONPATH=src python -m pytest bench/test_smoke.py -q

Each workload runs one round, untraced and traced, with every output check
on; the run must report no failed op, and the traced run must report every
per-layer metric listed in BENCHMARK.json.
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import (GAP_INTENDED_GROUP, ROOT, ROUNDS,  # noqa: E402
                       WORKLOADS, ArrayProber, ProbedClock,
                       RunState, run_workload)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_has_no_failed_op(workload, traced):
    res = run_workload(workload, seed=7, seconds=0, traced=traced, tiny=True)
    assert res["attempted"] > 0
    assert res["failed"] / res["attempted"] == 0, res["failures"]
    if traced:
        names = {m["name"] for m in SPEC["per_layer"]}
        assert set(res["layers"]) == names
        assert res["absent"] == []


@pytest.mark.parametrize("seconds", [10, 20, 30])
def test_round_count_is_fixed(seconds):
    for name, rounds in ROUNDS.items():
        st = RunState(name, 0, seconds, False, 0.0, BENCH_DIR)
        blocks = seconds // 10
        assert not st.done(rounds * blocks - 1)
        assert st.done(rounds * blocks)


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_gap_percentiles_fall_inside_the_intended_group(blocks):
    by_rank = run.gap_groups_by_rank(ROUNDS["analyze-gap"] * blocks)
    n = len(by_rank)
    for r in run.percentile_ranks(n, n // blocks):
        # The rank and both neighbours are in the group: not on its edge.
        assert by_rank[r - 2:r + 1] == [GAP_INTENDED_GROUP] * 3


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_missing_trace_point_is_reported_absent(monkeypatch):
    import tracer
    monkeypatch.setattr(tracer, "TRACE_POINTS", tracer.TRACE_POINTS + (
        ("sampling", "removed_helper"), ("removed_module", "f")))
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["sampling.removed_helper", "removed_module.f"]
        assert t.layer_metrics(ops=1)["sampling.scan_h.calls"] == (0.0,
                                                                   "count")
    finally:
        t.uninstall()


def test_probed_clock_probes_during_a_request_and_stops_its_helper():
    prober = ArrayProber()
    try:
        with ProbedClock(prober) as clock:
            end = time.perf_counter() + 1.5
            while time.perf_counter() < end:
                pass
        helper = prober.proc
    finally:
        prober.close()
    assert clock.probes >= 3
    # The probes ran inside the 1.5 s loop; their time is not counted.
    assert 0.3 < clock.seconds < 1.5
    assert clock.speed() > 0
    assert helper.poll() is not None
