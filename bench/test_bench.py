"""Tests of the benchmark itself: its references and a smoke run.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("thermal-ode", "coherent-dense", "gap-sweep")


def _expanded(table):
    return np.sort(np.array([v for v, m in table for _ in range(m)]))


@pytest.mark.parametrize("g0,eps", [(0.25, 10.0), (0.25, 1000.0), (0.125, 3.0), (0.5, 100.0)])
def test_coherent_generator_reproduces_table(g0, eps):
    w = np.linalg.eigvals(ref.coherent_generator(g0, eps))
    want = _expanded(ref.coherent_table(g0, eps))
    assert np.abs(w.imag).max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_allclose(np.sort(w.real), want, rtol=0.0, atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("g0,n_th", [(0.1, 3.0), (0.01, 0.5), (0.3, 10.0), (0.1, 1.9)])
def test_thermal_generator_reproduces_table(g0, n_th):
    w = np.linalg.eigvals(ref.thermal_generator(g0, n_th))
    want = _expanded(ref.thermal_table(g0, n_th))
    assert np.abs(w.imag).max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_allclose(np.sort(w.real), want, rtol=0.0, atol=1e-10 * np.abs(want).max())


def test_gaps_and_lambda3_are_table_entries():
    g0, eps, n_th = 0.25, 100.0, 3.0
    rates = sorted({-v for v, _ in ref.coherent_table(g0, eps) if v != 0.0})
    assert rates[0] == pytest.approx(ref.gap_coherent(eps), rel=1e-12)
    assert min(abs(r - ref.lambda3(g0, eps)) for r in rates) <= 1e-12 * ref.lambda3(g0, eps)
    rates = sorted({-v for v, _ in ref.thermal_table(0.1, n_th) if v != 0.0})
    assert rates[0] == pytest.approx(ref.gap_thermal(0.1, n_th), rel=1e-12)


def test_long_time_limits_match_closed_forms():
    assert ref.thermal_steady_mi(3.0) == pytest.approx(0.40208, abs=1e-5)
    late = ref.mi_curve(ref.thermal_generator(0.1, 3.0), [0.0, 1e5])
    assert late[0] == pytest.approx(0.0, abs=1e-12)
    assert late[1] == pytest.approx(ref.thermal_steady_mi(3.0), abs=1e-9)
    late = ref.mi_curve(ref.coherent_generator(0.25, 10.0), [1e6])
    assert late[0] == pytest.approx(ref.COHERENT_STEADY_MI, abs=1e-9)


def test_evolution_preserves_trace_and_positivity():
    for rho in ref.evolve(ref.thermal_generator(0.1, 1.9), [0.0, 1.0, 10.0, 100.0, 1e4]):
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -1e-12


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0.0


def test_smoke_traced_run_reports_every_layer():
    proc = _run("--workload", "thermal-ode", "--seed", "0", "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert metrics["dynamics.rhs_calls"]["value"] > 0
    assert metrics["dynamics.lu_factorizations"]["value"] > 0
    assert metrics["observables.mi_samples"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "gap-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
