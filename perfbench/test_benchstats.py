"""Tests of the benchmark's own arithmetic and of the traced replay's
equivalence with the plain run, at toy sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import benchstats
import child
import layers
import run
import workloads
from spinboson import SpinMeasureParams, ThermalKernelTable, build_ensemble


# -- order statistics ---------------------------------------------------------

def test_median_odd_even_and_empty():
    assert benchstats.median([3.0, 1.0, 2.0]) == 2.0
    assert benchstats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        benchstats.median([])


def test_highest_percentile_needs_ten_samples_beyond():
    assert benchstats.highest_percentile(9) is None
    assert benchstats.highest_percentile(39) is None
    assert benchstats.highest_percentile(40) == 75
    assert benchstats.highest_percentile(100) == 90
    assert benchstats.highest_percentile(200) == 95
    assert benchstats.highest_percentile(1000) == 99


def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert benchstats.percentile(xs, 90) == 90
    assert benchstats.percentile(xs, 100) == 100
    assert benchstats.percentile([5.0], 50) == 5.0


def test_summary_states_sample_count():
    assert benchstats.summary([2.0, 1.0, 3.0]) == {"median": 2.0, "n": 3}
    s = benchstats.summary([float(i) for i in range(100)])
    assert s["n"] == 100 and s["p90"] == 89.0


# -- derived metrics ----------------------------------------------------------

def test_time_to_accuracy_formula():
    assert benchstats.time_to_accuracy(2.0, 1e-3) == pytest.approx(2.0)
    assert benchstats.time_to_accuracy(2.0, 2e-3) == pytest.approx(8.0)
    assert benchstats.time_to_accuracy(3.0, 5e-4) == pytest.approx(0.75)


def test_psi_pairs_counts_boundary_pairs():
    assert benchstats.psi_pairs([0, 2, 4]) == 4 + 16 + 36
    beta = 3.0
    ens = build_ensemble(SpinMeasureParams(beta, 1.0),
                         ThermalKernelTable.constant(beta, 1.0), 300, seed=5)
    direct = sum(len(ens.loop(i).boundaries(beta)) ** 2 for i in range(ens.n))
    assert benchstats.psi_pairs(ens.counts) == direct


# -- failure accounting -------------------------------------------------------

def test_fail_share_bounds():
    assert benchstats.fail_share(0, 5) == 0.0
    assert benchstats.fail_share(2, 8) == 0.25
    with pytest.raises(ValueError):
        benchstats.fail_share(0, 0)
    with pytest.raises(ValueError):
        benchstats.fail_share(3, 2)


def test_calls_count_raises_and_go_on():
    calls = benchstats.Calls()
    assert calls.do("ok", lambda x: x + 1, 1) == 2
    assert calls.do("bad", lambda: 1 / 0) is None
    assert calls.attempted == 2
    assert len(calls.raised) == 1 and calls.raised[0].startswith("bad:")


def test_tally_counts_checks_calls_crashes_and_extras():
    recs = [
        {"checks": [["a", True], ["b", False], ["c", True]], "calls": 2,
         "raised": []},
        {"checks": [["a", True], ["b", True], ["c", True]], "calls": 2,
         "raised": ["spin_factor: ValueError: x"]},
    ]
    attempted, failed, names = run.tally(
        recs, crashed=1, extra_checks=[("same", False), ("other", True)])
    assert attempted == 1 + 2 + 2 * (3 + 2)
    assert failed == 1 + 1 + 1 + 1
    assert names == ["child process failed", "same", "b",
                     "spin_factor: ValueError: x"]


# -- per-layer accounting -----------------------------------------------------

def test_layer_self_times_net_repeated_state_calls():
    timed = {"spans": {"kernels.table_build": 0.5, "loops.sample": 1.0,
                       "state.self": 2.0, "cluster.total": 5.0},
             "counts": {"kernels.psi_cells": 2048}, "gauges": {}}
    mem = {"peak_alloc_mb": {"cluster": 7.0}}
    out = layers.one_child(timed, mem)
    assert out["cluster.self_s"] == 3.0
    assert out["trace.self_sum_s"] == 6.0
    assert out["kernels.psi_cells"] == 2048
    assert out["cluster.peak_alloc_mb"] == 7.0
    assert out["resolvent.onepoint_s"] == 0.0
    assert out["loops.parallel_speedup"] == 0.0


# -- equivalence of the traced replay -----------------------------------------

def test_traced_sampling_matches_build_ensemble_bit_for_bit():
    beta, n = 2.0, 9000        # three chunks, the last one short
    table = ThermalKernelTable.constant(beta, 0.7)
    spans = benchstats.Spans()
    ens = workloads._ensemble_traced(table, beta, n, 11, benchstats.Calls(),
                                     spans)
    ref = build_ensemble(SpinMeasureParams(beta, workloads.EPS), table, n, 11)
    assert ens.logw.tobytes() == ref.logw.tobytes()
    assert spans.counts["seeds.substreams"] == 3
    assert spans.counts["loops.jumps_sampled"] == int(ref.counts.sum())


@pytest.mark.parametrize("workload", [workloads.Cluster, workloads.Resolvent])
def test_replay_gives_the_plain_run_outputs(monkeypatch, workload):
    """A cold plain run and a bottom-up replay, each on fresh tables,
    produce bit-identical outputs at toy size."""
    monkeypatch.setattr(workloads, "CLUSTER_GRID", (1, 4))
    w = workload()
    monkeypatch.setattr(w, "n", 600)
    if workload is workloads.Cluster:
        monkeypatch.setattr(w, "modes", ("time",))
    plain = w.run(w.setup(benchstats.NoSpans()), 3, benchstats.Calls())
    spans = benchstats.Spans()
    calls = benchstats.Calls()
    replay = w.replay(w.setup(spans), 3, calls, spans)
    assert not calls.raised
    assert child.fingerprint(plain) == child.fingerprint(replay)
    assert all(ok for _, ok in w.checks(replay))


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_lists_what_the_code_reports():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in
        layers.LAYER_METRICS]
