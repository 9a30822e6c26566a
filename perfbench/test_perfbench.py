"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import instances  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402


def _inputs(workload, seed):
    return [(inst.name, inst.command, inst.args,
             {flag: inst.input_text(flag) for flag in inst.inputs})
            for block in instances.workload_blocks(workload, seed) for inst in block]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = _inputs(workload, 5)
    assert first == _inputs(workload, 5)
    if workload != "cli-cold":  # fixed inputs; the seed only orders them
        assert first != _inputs(workload, 6)


def test_every_boundary_block_spans_the_vertex_range():
    lo, hi = instances.VERTICES
    for block in instances.workload_blocks("boundary-sweep", 5):
        counts = sorted(len(inst.exact["vertices"]) for inst in block)
        edges = np.rint(np.geomspace(lo, hi, len(block) + 1))
        assert all(a <= c <= b for a, b, c in zip(edges[:-1], edges[1:], counts))


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    """A positive-boundary run on the unit square: (instance, report, wave)."""
    from helmholtz_positivity import cli

    inst = instances.CLI_CYCLE[0]
    assert inst.name == "boundary-square"
    files = run.Files(tmp_path_factory.mktemp("square"))
    files.write_inputs([inst])
    op = run.run_in_process(cli, inst, files)
    assert op["code"] == 0
    return inst, json.loads(op["report"]), json.loads(op["wave"])


def test_check_accepts_the_certified_output(certified):
    inst, report, wave = certified
    assert verify.check(inst, 0, report, wave) == []


def test_check_flags_a_wave_with_flipped_a0(certified):
    inst, report, wave = certified
    flipped = dict(wave, a0=-wave["a0"])
    problems = verify.check(inst, 0, report, flipped)
    assert any("min_sample" in p for p in problems)
    assert any("negative value" in p for p in problems)


def test_check_flags_an_inflated_margin(certified):
    inst, report, wave = certified
    inflated = json.loads(json.dumps(report))
    inflated["certificate"]["certified_margin"] += 0.01
    problems = verify.check(inst, 0, inflated, wave)
    assert any("certified_margin" in p for p in problems)


def test_check_counts_an_unexpected_exit_code(certified):
    inst, report, wave = certified
    assert verify.check(inst, 3, dict(report, error="fit failed"), None) == \
        ["exit 3, expected 0: fit failed"]


def test_wave_values_match_the_package_evaluator(certified):
    from helmholtz_positivity import herglotz

    _, _, wave = certified
    pts = verify.exact_samples({"kind": "polygon", "vertices": instances.L_SHAPE}, 200)
    ours = verify.wave_values(wave, pts)
    theirs = herglotz.eval_series(herglotz.wave_from_json(wave), pts)
    assert ours == pytest.approx(theirs, abs=1e-12 * verify.value_scale(wave))


def test_tail_latency_leaves_ten_samples_above_or_is_p90():
    value, pct = run.tail_latency(list(range(40)))
    assert value == 29 and pct == 75.0
    assert run.tail_latency([3.0, 1.0]) == (pytest.approx(2.8), 90.0)
    assert run.tail_latency(list(range(12)))[0] == pytest.approx(9.9)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.per_layer_units().items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == \
        list(instances.WORKLOADS)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in run.WORKLOADS]
                         + [("boundary-sweep", 1)])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    names = [n for n, _ in run.END_TO_END] if not trace else list(run.per_layer_units())
    assert list(result["metrics"]) == names


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "boundary-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
