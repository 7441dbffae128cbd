"""Checks on the benchmark itself.

Run from the root of the repository: python3 -m pytest perfbench -q
(about two minutes: one traced run of each workload at its default seed).
"""

from __future__ import annotations

import pytest

import run as bench


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """The --trace 1 record of a workload at its default seed, made once."""
    records: dict[str, dict] = {}

    def get(workload: str) -> dict:
        if workload not in records:
            wl = bench.WORKLOADS[workload]
            records[workload] = bench.measure(workload, wl.default_seed, 0.0, True,
                                              tmp_path_factory.mktemp(workload))
        return records[workload]

    return get


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_run_writes_the_untraced_outputs(traced_run, workload):
    record = traced_run(workload)
    assert record["outputs_compared"] > 0
    assert record["traced_matches_untraced"], record["errors"]
    assert record["correct"], record["errors"]


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_declared_layer_is_seen(traced_run, workload):
    metrics = traced_run(workload)["metrics"]
    silent = [layer for layer in bench.WORKLOADS[workload].layers
              if metrics[f"{layer}.calls"] == 0]
    assert not silent, f"no traced call reached {silent}: a binding was missed"


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_declared_metric_is_reported(traced_run, workload):
    missing = set(bench.declared_metrics(trace=True)) - set(traced_run(workload)["metrics"])
    assert not missing


def test_experiment_counts_at_default_seed(traced_run):
    metrics = traced_run("experiment")["metrics"]
    assert metrics["linear.fits"] == 664
    assert metrics["paradigms.distinct_fits"] == 128
    assert metrics["paradigms.cells"] == 384
