"""Acceptance matrix: one test per criterion, each printing a PASS/FAIL line.

Runtimes range from milliseconds (table checks) to ~20 s (the real-detector
trajectories); the whole module completes in about a minute.
"""

import pytest

from atomcavity import scenarios, verify


def _run(fn):
    res = fn()
    print(("PASS" if res.passed else "FAIL") + f"  {res.name}: {res.details}")
    return res


@pytest.mark.parametrize(
    "name,fn", verify.CRITERIA, ids=[name for name, _ in verify.CRITERIA]
)
def test_criterion(name, fn):
    res = _run(fn)
    assert res.passed, f"{res.name}: {res.details}"


def test_negative_control_detects_wrong_convention():
    res = _run(verify.negative_control)
    assert res.passed, res.details


# criteria 8 and 9 judge what the scenario runners report: a runner that
# reports a wrong curve or steady state must fail them

STEADY_OK = {"peak_mi": 0.2, "steady_mi": 1e-6, "kernel_unique": True}


@pytest.mark.parametrize(
    "wrong,passes",
    [({}, True), ({"peak_mi": 1e-3}, False), ({"steady_mi": 0.1}, False),
     ({"kernel_unique": False}, False)],
)
def test_real_detector_criterion_reads_the_scenario_summary(monkeypatch, wrong, passes):
    def fake(config):
        return [], {"steady": {"fake": {**STEADY_OK, **wrong}}}

    monkeypatch.setattr(scenarios, "run_real_detector", fake)
    assert verify.criterion_9_real_detector().passed is passes


def _fake_curves(offset):
    def fake(config):
        rows = [{"t": t, "mi_exact": 0.3 + offset, "mi_effective": 0.3} for t in (1.0, 100.0)]
        return rows, {}

    return fake


@pytest.mark.parametrize("offset,passes", [(0.0, True), (0.05, False)])
def test_effective_vs_exact_criterion_reads_the_scenario_curves(monkeypatch, offset, passes):
    monkeypatch.setattr(scenarios, "run_mi_coherent", _fake_curves(0.0))
    monkeypatch.setattr(scenarios, "run_mi_incoherent", _fake_curves(offset))
    assert verify.criterion_8_effective_vs_exact().passed is passes
