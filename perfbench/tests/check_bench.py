"""Checks of the benchmark itself.

    python3 -m pytest perfbench/tests/check_bench.py

The file name keeps these out of the repository's default test run: the
traced runs here take about a minute.
"""
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from gibem.assembly import collocation_points  # noqa: E402

import child  # noqa: E402
from pace import INTERVAL_S, REFERENCE_PROBE_S, Pacer  # noqa: E402
from tracer import LAYER_METRICS, SITES, WORK_COUNTERS, Tracer, original  # noqa: E402
from workloads import WORKLOADS, build_model, write_workload  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_dof_is_seed_free(tmp_path, name):
    workload = WORKLOADS[name]
    for sub in "abc":
        (tmp_path / sub).mkdir()
    first, _ = write_workload(workload, 7, tmp_path / "a")
    again, _ = write_workload(workload, 7, tmp_path / "b")
    other, _ = write_workload(workload, 8, tmp_path / "c")
    assert first.read_bytes() == again.read_bytes()
    assert first.read_bytes() != other.read_bytes()
    dofs = {collocation_points(build_model(workload, seed)).dof_map.n_dof
            for seed in range(1, 21)}
    assert len(dofs) == 1


def traced_counters(workload, seed, directory):
    path, model = write_workload(workload, seed, directory)
    tracer = Tracer()
    code, _, _ = child.call_cli(
        workload.cli_args(model, path, directory / "out"), tracer)
    assert code == 0
    values = {name: value(tracer, 0.0) for name, _, value in LAYER_METRICS}
    return {name: values[name] for name in WORK_COUNTERS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counters_repeat_exactly(tmp_path, name):
    workload = WORKLOADS[name]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = traced_counters(workload, 3, tmp_path / "a")
    second = traced_counters(workload, 3, tmp_path / "b")
    assert first == second
    for key in ("assembly.pairs", "kernels.kelvin_T_many.points",
                "solve.dof", "geometry.frames_at.points"):
        assert first[key] > 0


def site_objects():
    return [original(owner, attribute) for owner, attribute, _, _ in SITES]


def test_untraced_run_leaves_every_site_original(tmp_path):
    before = site_objects()
    assert not any(hasattr(fn, "__wrapped__") for fn in before)
    workload = WORKLOADS["trimmed-post"]
    path, _ = write_workload(workload, 5, tmp_path)
    result = child.run(workload, path, tmp_path, seconds=0, trace=False)
    assert result["correct"] and result["attempted"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # run.py adds setup_s
    assert sorted([*result["metrics"], "setup_s"]) == sorted(
        m["name"] for m in spec["end_to_end"])
    after = site_objects()
    assert all(a is b for a, b in zip(before, after))

    with Tracer():
        inside = site_objects()
    assert all(hasattr(fn, "__wrapped__") for fn in inside)
    assert all(a is b for a, b in zip(before, site_objects()))


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS["trimmed-post"]
    path, _ = write_workload(workload, 5, tmp_path)
    result = child.run(workload, path, tmp_path, seconds=0, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert all(metrics[m["name"]]["unit"] == m["unit"]
               for m in spec["per_layer"])
    # self times plus the CLI remainder account for the traced wall time
    self_times = sum(v["value"] for k, v in metrics.items()
                     if k.startswith(("assembly.", "kernels.", "quadrature.",
                                      "geometry.", "model.", "splines.",
                                      "solve.", "modelio.", "cli."))
                     and v["unit"] == "s")
    traced_wall = result["walls"]["traced"][0]
    assert self_times == pytest.approx(traced_wall, rel=1e-9)


def test_pacer_samples_the_body_and_disarms_on_exit():
    before = signal.getsignal(signal.SIGALRM)
    with Pacer() as pacer:
        deadline = time.perf_counter() + 3.5 * INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(pacer.samples) >= 2
    assert pacer.spent == sum(pacer.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert pacer.paced(1.0) == pytest.approx(
        REFERENCE_PROBE_S / statistics.median(pacer.samples))
