"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import chains  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

FALSE_EXPECTATION = (
    "scenario wrong\nrank 2\n"
    "assert det P(1,2) == -1\n"
    "assert det L(1,2) == -1\n"
)
# Nielsen moves, a matrix-group section search and its mat_mul calls.
LAYERED = [
    chains.generate(1)[0],
    ("split", "scenario split\nrank 3\ncheck splitting(3, 2) == found\n"),
]


def spec_metrics(kind):
    return {m["name"] for m in SPEC[kind]}


def test_false_expectation_raises_failed_count():
    result = run.measure([("wrong", FALSE_EXPECTATION)], seconds=0, trace=False)
    samples = result["samples"][0]
    assert result["attempted"] == 2 * samples
    assert result["failed"] == samples
    assert result["correct"] is False
    assert any("det L(1, 2) == -1" in line for line in result["problems"])


def test_passing_input_is_correct():
    result = run.measure([("right", FALSE_EXPECTATION.replace("L(1,2) == -1",
                                                            "L(1,2) == 1"))],
                         seconds=0, trace=False)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_generator_is_deterministic():
    first = chains.generate(7)
    assert first == chains.generate(7)
    assert first != chains.generate(8)
    assert len(first) == chains.SCENARIOS


def test_generator_arithmetic_inverts():
    factors = [("L", 1, 2), ("C", 3, 1), ("P", 2, 3), ("I", 1, 2), ("R", 2, 1)]
    g = chains.images(factors, 3)
    gi = chains.inverse_images(factors, 3)
    assert chains.compose(g, gi) == chains.identity(3) == chains.compose(gi, g)


def test_traced_counts_repeat_exactly():
    keys = ("modgroups.mat_mul.calls", "endos.nielsen_moves",
            "modgroups.pairs_expanded")
    first, second = (run.measure(LAYERED, seconds=0, trace=True)["metrics"]
                     for _ in range(2))
    for key in keys:
        assert first[key]["value"] > 0
        assert first[key]["value"] == second[key]["value"]


def test_metric_names_match_spec():
    untraced = run.measure(LAYERED, seconds=0, trace=False)["metrics"]
    assert set(untraced) == spec_metrics("end_to_end")
    traced = run.measure(LAYERED, seconds=0, trace=True)["metrics"]
    assert set(traced) == spec_metrics("per_layer")


def test_scaled_wall_removes_host_slowdown():
    ref = run.REF_KERNEL_S
    quiet = {"wall": 1.0, "kernel_s": ref, "steps": [0.4, 0.5],
             "step_kernel_s": [ref, ref]}
    slow = {"wall": 2.5, "kernel_s": 2 * ref, "steps": [0.8, 1.5],
            "step_kernel_s": [2 * ref, 3 * ref]}
    assert run.scaled_wall(quiet) == pytest.approx(1.0)
    assert run.scaled_wall(slow) == pytest.approx(1.0)


def test_self_times_cover_traced_wall():
    _, out = run.spawn(LAYERED, replay=True, trace=True)
    self_s = sum(v for k, v in out["layers"].items() if k.endswith(".self_s"))
    assert 0.9 * out["wall"] < self_s <= out["wall"]


def test_command_prints_result_last():
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "corpus-free-groups", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(spec_metrics("per_layer"))
    assert result["metrics"]["modgroups.mat_mul.calls"]["value"] == 0


def test_layer_map_covers_every_layer():
    meta = json.loads((BENCH / "meta.json").read_text())
    mapped = {entry["layer"] for entry in meta["layers"]}
    used = {name.split(".")[0] for name in spec_metrics("per_layer")}
    assert used <= mapped


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "corpus-free-groups", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_nonempty(workload):
    scenarios = run.inputs(workload, 1)
    assert scenarios and all(text.strip() for _, text in scenarios)
