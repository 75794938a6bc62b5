"""Smoke tests for the benchmark: every workload at tiny size, every
metric named in BENCHMARK.json emitted with its unit, every correctness
gate firing on a deliberately perturbed output.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from repro.core.matvec import FFTMatvec  # noqa: E402
from repro.serve.service import ServiceOverloadedError, SolverService  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SECONDS = 0.4


def run(name: str, trace: bool = False, seconds: float = SECONDS):
    return workloads.WORKLOADS[name](3, seconds, trace, size="tiny")


def _units(metrics) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_workload_names_match_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    out = run(name)
    assert out.correct, out.problems
    assert out.attempted >= 1 and out.failed == 0
    assert out.metrics["good_frac"][0] == 1.0
    assert _units(out.metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for value, _ in out.metrics.values():
        assert np.isfinite(value) and value > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    out = run(name, trace=True)
    assert out.correct, out.problems
    assert _units(out.metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert out.tracer is not None and out.tracer.spans
    assert out.metrics["trace.overhead"][0] > 0


def test_layers_reached_match_the_predictions():
    apply = run("apply_blocked", trace=True).metrics
    grid = run("grid_solve", trace=True).metrics
    serve = run("serve_mixed", trace=True).metrics
    for layer in ("reorder.ms", "fft.ms", "blas.ms", "phases.ms", "model.ratio"):
        assert apply[layer][0] > 0
    for layer in ("checksum.ms", "comm.ms", "cg.self_ms", "serve.flush_ms_p50"):
        assert apply[layer][0] == 0
    assert apply["workspace.steady_allocs"][0] == 0
    for layer in ("blas.ms", "checksum.checks", "comm.ops", "comm.bytes", "cg.iters"):
        assert grid[layer][0] > 0
    assert grid["serve.flushes"][0] == 0
    for layer in ("blas.ms", "serve.flushes", "serve.mean_batch"):
        assert serve[layer][0] > 0
    # One resident operator: every traced flush is a cache hit.
    assert serve["cache.hits"][0] > 0
    assert serve["cache.misses"][0] == 0 and serve["cache.evictions"][0] == 0
    assert serve["comm.ms"][0] == 0 and serve["checksum.ms"][0] == 0


def test_tracer_restores_every_entry_point():
    targets = tracer_mod.layer_targets()

    def current():
        return [inspect.getattr_static(t.owner, t.attr) for t in targets]

    before = current()
    with tracer_mod.Tracer(targets):
        during = current()
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(current(), before))


def test_self_time_subtracts_children():
    tr = tracer_mod.Tracer(targets=[])
    parent = tracer_mod.Span(0, None, 0, "engine", "p", start=0.0, end=1.0)
    child = tracer_mod.Span(1, 0, 0, "fft", "c", start=0.2, end=0.5)
    tr.spans = [parent, child]
    assert tr.self_times() == pytest.approx({0: 0.7, 1: 0.3})
    assert tr.layer_seconds()["engine"] == pytest.approx(0.7)


# -- each gate fires on a perturbed output --------------------------------------------
def _perturb_call(monkeypatch, owner, attr, when, fn):
    """Replace ``owner.attr`` so calls numbered in ``when`` (0-based)
    return ``fn(result)``."""
    original = getattr(owner, attr)
    calls = {"n": 0}

    def patched(*args, **kwargs):
        res = original(*args, **kwargs)
        n = calls["n"]
        calls["n"] += 1
        return fn(res) if when(n) else res

    monkeypatch.setattr(owner, attr, patched)


def _bump(a):
    return a + 1e-3 * np.abs(a).max()


def test_apply_gate_fires_on_wrong_values(monkeypatch):
    _perturb_call(monkeypatch, FFTMatvec, "matmat", lambda n: True, _bump)
    out = run("apply_blocked")
    assert not out.correct
    assert any("Eq. 6" in p for p in out.problems)


def test_apply_gate_fires_on_changed_repeat(monkeypatch):
    # The first calls belong to set-up; perturb the second op on input 0.
    nth = workloads.SETUP_REPS + 2
    _perturb_call(monkeypatch, FFTMatvec, "rmatmat", lambda n: n == nth, _bump)
    out = run("apply_blocked")
    assert not out.correct
    assert any("differs from the first op" in p for p in out.problems)


def test_grid_gate_fires_on_probe_mismatch(monkeypatch):
    # The grid's rank engines never call FFTMatvec.matmat; the
    # single-device reference does.
    _perturb_call(
        monkeypatch, FFTMatvec, "matmat", lambda n: True,
        lambda a: np.nextafter(a, np.inf),
    )
    out = run("grid_solve")
    assert any("single-device pairwise" in p for p in out.problems)


def test_grid_gate_fires_on_mixed_precision_error(monkeypatch):
    from repro.core.parallel import ParallelFFTMatvec

    original = ParallelFFTMatvec.rmatmat

    def bumped(self, *args, config=None, **kwargs):
        res = original(self, *args, config=config, **kwargs)
        return _bump(res) if config == workloads.APPLY_CONFIG else res

    monkeypatch.setattr(ParallelFFTMatvec, "rmatmat", bumped)
    out = run("grid_solve")
    assert any("F* dssdd" in p and "Eq. 6" in p for p in out.problems)


def test_grid_gate_fires_on_changed_repeat_and_residual(monkeypatch):
    import repro.inverse.cg as cg

    def nudge(res):
        res.X = res.X * (1 + 1e-3)
        return res

    _perturb_call(monkeypatch, cg, "block_conjugate_gradient", lambda n: n >= 1, nudge)
    out = run("grid_solve", seconds=1.5)
    assert any("solution bits differ" in p for p in out.problems)

    monkeypatch.undo()
    _perturb_call(monkeypatch, cg, "block_conjugate_gradient", lambda n: True, nudge)
    out = run("grid_solve")
    assert any("true residual" in p for p in out.problems)


def test_serve_gates_fire_on_wrong_apply_and_solve(monkeypatch):
    _perturb_call(
        monkeypatch, SolverService, "_execute_apply", lambda n: True,
        lambda cols: [_bump(c) for c in cols],
    )
    _perturb_call(
        monkeypatch, SolverService, "_execute_solve", lambda n: True,
        lambda cols: [c * 1.01 for c in cols],
    )
    out = run("serve_mixed")
    assert any("differs from a sequential apply" in p for p in out.problems)
    assert any("true residual" in p for p in out.problems)
    assert any("Eq. 6" in p for p in out.problems)
    assert out.failed == out.attempted


def test_serve_counts_refused_requests_and_late_generator(monkeypatch):
    original = SolverService._submit

    async def refuse_some(self, kind, *args, **kwargs):
        if kind == "rmatvec":
            raise ServiceOverloadedError("refused by the test")
        return await original(self, kind, *args, **kwargs)

    monkeypatch.setattr(SolverService, "_submit", refuse_some)
    monkeypatch.setattr(workloads, "LOADGEN_LAG_LIMIT_S", -1.0)
    out = run("serve_mixed")
    assert 0 < out.failed < out.attempted
    assert any("ServiceOverloadedError" in p for p in out.problems)
    assert any("load generator fell" in p for p in out.problems)
    assert out.metrics["good_frac"][0] < 1.0


# -- the command ------------------------------------------------------------------------
def test_command_prints_the_result_line(tmp_path):
    cmd = SPEC["command"] + [
        "--workload", "serve_mixed", "--seed", "5", "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(
        [sys.executable] + cmd[1:], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert any(line.startswith("# host ") and '"nproc"' in line for line in lines)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + [
        "--workload", "apply_blocked", "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(
        [sys.executable] + cmd[1:], cwd=tmp_path, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
