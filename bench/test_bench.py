"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py

``test_traced_run_emits_per_layer_metrics`` starts one traced run per
workload, about four minutes in all on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracing import Recorder, connected_configs  # noqa: E402


# Per-layer metric -> workloads on which it must read above zero: the "on"
# column of the layer map in NOTES.md.
MOVES_ON = {
    "series.tree.busy_s": ("accept",),
    "series.tree.configs": ("accept",),
    "series.tree.connected_share": ("accept",),
    "series.tree.calls_per_geometry": ("accept",),
    "series.coef.busy_s": ("cli-oneshot",),
    "series.coef.calls": ("cli-oneshot",),
    "series.extract.busy_s": ("cli-oneshot",),
    "series.extract.mp_calls": ("cli-oneshot",),
    "oracle.enum.busy_s": ("beta-scan",),
    "oracle.enum.calls": ("beta-scan",),
    "oracle.enum.configs": ("beta-scan",),
    "oracle.enum.calls_per_geometry": ("beta-scan",),
    "oracle.corr.busy_s": ("beta-scan",),
    "oracle.corr.calls": ("beta-scan",),
    "oracle.corr.subsets": ("beta-scan",),
    "oracle.tm.busy_s": ("cli-oneshot", "beta-scan"),
    "oracle.tm.calls": ("cli-oneshot", "beta-scan"),
    "oracle.tm.site_steps": ("cli-oneshot", "beta-scan"),
    "oracle.gc.calls": ("cli-oneshot",),
    "oracle.gc.busy_s": ("cli-oneshot",),
    "deviations.formula.busy_s": ("cli-oneshot",),
    "deviations.formula.calls": ("cli-oneshot",),
    "deviations.tilt.gc_per_call": ("cli-oneshot",),
    "radii.maximize.busy_s": ("cli-oneshot",),
    "radii.maximize.calls": ("cli-oneshot",),
    "radii.report.busy_s": ("cli-oneshot",),
    "graphs.enum.busy_s": ("accept",),
    "graphs.enum.yielded": ("accept",),
    "graphs.brute.busy_s": ("accept",),
    "correlations.calibrate.busy_s": ("beta-scan",),
    "correlations.pair_rows.busy_s": ("beta-scan",),
    "correlations.decay_fit.self_s": ("accept",),
    "cli.oracle.wall_s": ("beta-scan", "cli-oneshot"),
    "cli.series.wall_s": ("beta-scan", "cli-oneshot"),
    "cli.correlate.wall_s": ("beta-scan", "cli-oneshot"),
    "cli.deviate.wall_s": ("cli-oneshot",),
    "cli.radii.wall_s": ("cli-oneshot",),
    "csvfmt.write.busy_s": ("beta-scan", "cli-oneshot"),
    "csvfmt.bytes": ("beta-scan", "cli-oneshot"),
    **{f"acceptance.c{i:02d}_s": ("accept",) for i in range(1, 11)},
    "setup.import_s": ("accept", "beta-scan", "cli-oneshot"),
    "setup.first_call_s": ("accept", "beta-scan", "cli-oneshot"),
}


def _traced(fn):
    recorder = Recorder()
    recorder.install()
    try:
        fn()
    finally:
        recorder.uninstall()
    return recorder


def test_every_binding_is_wrapped_and_restored():
    from latgas import acceptance, cli, oracle
    original = oracle.exact_canonical_table
    recorder = Recorder()
    recorder.install()
    try:
        assert cli.exact_canonical_table is oracle.exact_canonical_table
        assert acceptance.exact_canonical_table is oracle.exact_canonical_table
        assert oracle.exact_canonical_table is not original
    finally:
        recorder.uninstall()
    assert cli.exact_canonical_table is original
    assert acceptance.exact_canonical_table is original


def test_generator_span_covers_consumption_not_the_call():
    from latgas import graphs
    marks = {}

    def consume():
        gen = graphs.enumerate_trees(5)
        time.sleep(0.05)  # creating the generator does no work
        marks["first_next"] = time.perf_counter()
        for _ in gen:
            time.sleep(0.0005)  # the consumer's own work is not the layer's

    recorder = _traced(consume)
    (span,) = [s for s in recorder.spans if s.name == "graphs.enum"]
    assert span.start >= marks["first_next"]
    assert recorder.counts["graphs.enum.yielded"] == 5 ** 3
    assert span.busy < 0.5 * (span.end - span.start)


def test_self_time_excludes_child_spans():
    from latgas import LatticeSpec, PotentialSpec, correlations
    recorder = _traced(lambda: correlations.decay_fit(
        LatticeSpec(1, 12, "periodic"), PotentialSpec(), 0.2, 5))
    metrics = recorder.layer_metrics()
    (fit,) = [s for s in recorder.spans if s.name == "correlations.decay_fit"]
    (corr,) = [s for s in recorder.spans if s.name == "oracle.corr"]
    assert corr.parent == fit.id
    assert metrics["correlations.decay_fit.self_s"] == pytest.approx(fit.busy - corr.busy)


def test_connected_share_count_matches_known_value():
    # 13,081 of the 41^4 = 2,825,761 pinned n = 5 configurations in d = 2
    assert connected_configs(5, 2, 1, "standard") == 13_081


def test_inputs_follow_the_seed():
    def configs(seed):
        return [(j.name, j.config) for j in workloads.cli_oneshot(random.Random(seed), 2)]
    assert configs(7) == configs(7)
    assert configs(7) != configs(8)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "accept",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    silent = [name for name, on in MOVES_ON.items()
              if workload in on and not metrics[name]["value"] > 0]
    assert not silent, f"layers that did not run on {workload}: {silent}"
