import json
from pathlib import Path

import numpy as np
import pytest

from atomcavity import ModelParams, cli, make_space, models, scenarios, spectra, verify
from atomcavity.errors import NumericalAccuracyError
from atomcavity.models import Superoperator


def write_config(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


SMALL_GAP_CONFIG = {
    "params": {"g0": [0.25], "eps": [10.0, 100.0]},
    "cutoff": 8,
}


class TestExitCodes:
    def test_unknown_scenario_is_usage_error(self, capsys):
        assert cli.main(["--scenario", "does-not-exist"]) == 64

    def test_empty_range_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"params": {"g0": []}})
        code = cli.main(
            ["--scenario", "gap-coherent", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "scenario,payload",
        [
            ("gap-coherent", {"params": {"G0": [0.25], "eps": [10]}, "cutoff": 4}),
            ("gap-coherent", {"params": {"g0": [0.25], "eps": "12"}, "cutoff": 4}),
            ("mi-coherent", {"time_grid": {"tmax": 5}}),
            ("mi-coherent", {"time_grid": {"spacing": "lin"}}),
            ("real-detector", {"params": {"case": ["thermal"]}}),
            ("real-detector", {"params": {"case": "thermal"}}),
            ("mi-coherent", {"params": {"eps": [-10]}}),
            ("real-detector", {"params": {"gamma": [-1e-3]}}),
            ("mi-incoherent", {"params": {"n_th": [0]}}),
            ("mi-incoherent", {"params": {"g0": [1e-200]}}),  # the gap underflows to 0
            # grids the scenario cannot build at its default t_min or t_max
            ("mi-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": 4,
                             "time_grid": {"t_max": 0.05}}),
            ("mi-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": 4,
                             "time_grid": {"t_min": 1e9}}),
            ("mi-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": 4,
                             "time_grid": {"t_max": float("nan")}}),
            # JSON true is a Python bool, an int subclass: not a cutoff, count
            # or parameter value; cutoff 1 keeps only the vacuum (a = 0)
            ("gap-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": True}),
            ("gap-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": 1}),
            ("mi-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": 4,
                             "time_grid": {"points": 2.5}}),
            ("gap-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": 4, "seeds": "abc"}),
            # not a config field
            ("gap-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": 4, "workers": 1.5}),
            ("gap-coherent", {"params": {"g0": [True], "eps": [10]}, "cutoff": 4}),
            ("gap-coherent", {"params": {"g0": [0.25], "eps": {"log": [10, 100, 2.5]}}, "cutoff": 4}),
            ("mi-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": 4,
                             "time_grid": {"t_max": True}}),
            ("mi-coherent", {"params": {"g0": [0.25], "eps": [10]}, "cutoff": 4,
                             "time_grid": {"t_min": True}}),
        ],
    )
    def test_malformed_scenario_input_is_config_error(self, tmp_path, scenario, payload):
        cfg = write_config(tmp_path, payload)
        code = cli.main(["--scenario", scenario, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_cutoff_flag_below_two_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"params": {"g0": [0.25], "eps": [10]}})
        code = cli.main(["--scenario", "gap-coherent", "--config", str(cfg), "--cutoff", "1",
                         "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"bogus": 1})
        assert cli.main(["--scenario", "gap-coherent", "--config", str(cfg)]) == 2

    def test_bad_json_is_config_error(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert cli.main(["--scenario", "gap-coherent", "--config", str(cfg)]) == 2

    def test_numerical_failure_maps_to_3(self, tmp_path, monkeypatch):
        def boom(config):
            raise NumericalAccuracyError("synthetic failure")

        monkeypatch.setitem(scenarios.RUNNERS, "gap-coherent", boom)
        cfg = write_config(tmp_path, SMALL_GAP_CONFIG)
        code = cli.main(
            ["--scenario", "gap-coherent", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]
        )
        assert code == 3

    def test_verify_exit_codes_follow_results(self, tmp_path, monkeypatch):
        def fake_pass():
            return verify.CheckResult("fake", True, "ok")

        def fake_fail():
            return verify.CheckResult("fake", False, "broken")

        monkeypatch.setattr(verify, "CRITERIA", (("fake", fake_pass),))
        code = cli.main(["--scenario", "verify", "--out", str(tmp_path / "v1"), "--quiet"])
        assert code == 0
        monkeypatch.setattr(verify, "CRITERIA", (("fake", fake_fail),))
        code = cli.main(["--scenario", "verify", "--out", str(tmp_path / "v2"), "--quiet"])
        assert code == 1


class TestOutputs:
    def test_gap_scenario_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_GAP_CONFIG)
        out = tmp_path / "run"
        code = cli.main(
            ["--scenario", "gap-coherent", "--config", str(cfg), "--out", str(out), "--quiet"]
        )
        assert code == 0
        csv = (out / "gap-coherent.csv").read_text().splitlines()
        assert csv[0].startswith("# units: all rates and times in units of kappa")
        assert csv[1] == "# scenario: gap-coherent"
        assert csv[2].startswith("# columns: g0,eps,")
        assert len(csv) == 3 + 2  # two sweep points
        # every row carries the resolved parameter set
        cols = csv[2].removeprefix("# columns: ").split(",")
        row = dict(zip(cols, csv[3].split(",")))
        assert float(row["g0"]) == 0.25 and row["cutoff"] == "8"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "gap-coherent"
        # each point records the solve behind its gap: shift-invert of the
        # 32^2-dimensional generator at cutoff 8, chosen without a sweep
        solves = summary["summary"]["solves"]
        assert len(solves) == 2
        assert all(
            v == {"solver": "shift-invert", "dim": 32**2, "history": []} for v in solves.values()
        )
        assert (out / "SCHEMA.md").exists()

    def test_gap_auto_records_the_truncation_history(self, tmp_path):
        # under auto each point records every (cutoff, gap) its sweep
        # computed, ending at the cutoff and gap of its CSV row
        cfg = write_config(tmp_path, {"params": {"g0": [0.3], "n_th": [0.5]}, "cutoff": "auto"})
        out = tmp_path / "run"
        assert cli.main(
            ["--scenario", "gap-incoherent", "--config", str(cfg), "--out", str(out), "--quiet"]
        ) == 0
        csv = (out / "gap-incoherent.csv").read_text().splitlines()
        row = dict(zip(csv[2].removeprefix("# columns: ").split(","), csv[3].split(",")))
        (solve,) = json.loads((out / "summary.json").read_text())["summary"]["solves"].values()
        history = solve["history"]
        assert [c for c, _ in history] == [4 * 2**i for i in range(len(history))]
        assert history[-1] == [int(row["cutoff"]), float(row["gap_exact"])]
        (_, prev), (_, last) = history[-2:]
        assert abs(last - prev) <= 1e-3 * max(abs(last), abs(prev))
        # the gap is certified on the sectors of rate bound 0, G's leading
        # |d| <= 2 sectors, below the least bound of the sectors left out
        sup = Superoperator(
            models.build_full(make_space(int(row["cutoff"])), ModelParams(g0=0.3, n_th=0.5))
        )
        bounds = spectra.rate_bounds(sup)
        assert solve["solver"] == "certified-shift-invert"
        assert solve["dim"] == sup.sectors()[np.flatnonzero(bounds == 0.0).max()].stop < sup.dim
        assert solve["excluded_bound"] == bounds[bounds > 0.0].min() > float(row["gap_exact"])

    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("gap-coherent", {"g0": [0.25], "eps": [10.0]}),
            ("second-rate-coherent", {"g0": [0.25], "eps": [10.0]}),
            ("mi-coherent", {"g0": [0.25], "eps": [10.0]}),
            ("gap-incoherent", {"g0": [0.1], "n_th": [0.5]}),
            ("mi-incoherent", {"g0": [0.01], "n_th": [1.0]}),
            ("real-detector", {"case": ["coherent", "incoherent"], "gamma": [1e-3]}),
        ],
    )
    def test_fixed_cutoff_runs_no_truncation_sweep(self, monkeypatch, scenario, params):
        # 5 is no cutoff an auto rule picks (sweeps double from 4, the
        # thermal heuristic rounds up to 4, coherent real-detector takes 8)
        def unreachable(*args, **kwargs):
            raise AssertionError("truncation sweep run at a fixed cutoff")

        monkeypatch.setattr(scenarios.dyn, "converged_cutoff_for_gap", unreachable)
        config = scenarios.ScenarioConfig(
            scenario, params=params, cutoff=5, time_grid={"t_max": 100.0, "points": 4, "t_min": 1.0}
        )
        if scenario not in scenarios.GRIDS:
            config.time_grid = {}
        config.validate()
        rows, _ = scenarios.RUNNERS[scenario](config)
        assert rows and all(row["cutoff"] == 5 for row in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_GAP_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(
                ["--scenario", "gap-coherent", "--config", str(cfg), "--out", str(out), "--quiet"]
            ) == 0
            outs.append((out / "gap-coherent.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_flag_overrides_config_output(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GAP_CONFIG, "output": str(tmp_path / "ignored")})
        out = tmp_path / "flag-wins"
        assert cli.main(
            ["--scenario", "gap-coherent", "--config", str(cfg), "--out", str(out), "--quiet"]
        ) == 0
        assert (out / "gap-coherent.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_mi_incoherent_effective_only_above_cap(self, tmp_path):
        # at n_th = 201 the auto cutoff is 1016: the first sector from |gg,0>
        # has 7 * 1016 - 4 = 7108 coordinates, above the Krylov cap 7052
        cfg = write_config(
            tmp_path,
            {
                "params": {"g0": [0.01], "n_th": [201.0]},
                "time_grid": {"t_max": 100.0, "points": 8, "t_min": 1.0},
            },
        )
        out = tmp_path / "mi201"
        assert cli.main(
            ["--scenario", "mi-incoherent", "--config", str(cfg), "--out", str(out), "--quiet"]
        ) == 0
        lines = (out / "mi-incoherent.csv").read_text().splitlines()
        cols = lines[2].removeprefix("# columns: ").split(",")
        row = dict(zip(cols, lines[3].split(",")))
        assert row["mi_exact"] == "nan"
        assert row["cutoff"] == "effective-only"
        assert float(row["mi_effective"]) >= 0.0

    @pytest.mark.parametrize("cap,exact", [(107, False), (108, True)])
    def test_mi_incoherent_runs_exactly_while_its_sector_fits_the_dense_cap(
        self, monkeypatch, cap, exact
    ):
        # at n_th = 1 the auto cutoff is 16: the d = 0, exchange-even,
        # Theta = +1 sector from |gg,0> has 7 * 16 - 4 = 108 coordinates
        monkeypatch.setattr(scenarios.dyn, "KRYLOV_CAP", cap)
        config = scenarios.ScenarioConfig(
            "mi-incoherent",
            params={"g0": [0.01], "n_th": [1.0]},
            time_grid={"t_max": 100.0, "points": 4, "t_min": 1.0},
        )
        rows, summary = scenarios.run_mi_incoherent(config)
        (curve,) = summary["curves"].values()
        assert curve["dim"] == 108
        assert curve["exact_run"] is exact
        assert curve["evolution"] == ("krylov-sector" if exact else "effective-only")
        assert rows[0]["cutoff"] == (16 if exact else "effective-only")
        assert bool(np.isfinite(rows[-1]["mi_exact"])) is exact

    def test_mi_incoherent_at_n_th_1_runs_past_the_dense_range_and_converges(self, tmp_path):
        # the dense eigenbasis of the first sector was refused as
        # near-defective at n_th = 1 from cutoff 64 (condition 9.9e8); its
        # Krylov evolution runs, and matches cutoff 48
        cfg = write_config(tmp_path, {"params": {"g0": [0.01], "n_th": [1.0]}})
        curves = []
        for cutoff in (48, 64):
            out = tmp_path / f"cutoff{cutoff}"
            assert cli.main(
                ["--scenario", "mi-incoherent", "--config", str(cfg), "--out", str(out),
                 "--cutoff", str(cutoff), "--quiet"]
            ) == 0
            lines = (out / "mi-incoherent.csv").read_text().splitlines()
            cols = lines[2].removeprefix("# columns: ").split(",")
            curves.append(np.array([float(line.split(",")[cols.index("mi_exact")]) for line in lines[3:]]))
        assert curves[0].size == 61 and np.abs(curves[1] - curves[0]).max() < 1e-6

    def test_real_detector_thermal_entries_record_the_evolution(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": {"gamma": [1e-3], "case": ["incoherent"]},
                "time_grid": {"t_max": 100.0, "points": 6, "t_min": 1.0},
                "cutoff": 4,
            },
        )
        out = tmp_path / "rd"
        assert cli.main(
            ["--scenario", "real-detector", "--config", str(cfg), "--out", str(out), "--quiet"]
        ) == 0
        steady = json.loads((out / "summary.json").read_text())["summary"]["steady"]
        entry = steady["incoherent,gamma=0.001"]
        assert entry["evolution"] == "krylov-sector"
        assert entry["dim"] == 7 * 4 - 4
        assert 0 < entry["krylov_dim"] <= entry["dim"]

    def test_coherent_entries_record_the_evolution(self, tmp_path):
        # the driven model evolves the exchange-even sector of its 1024
        # coordinates at cutoff 8
        out = tmp_path / "rd"
        cfg = write_config(
            tmp_path,
            {
                "params": {"gamma": [1e-3], "case": ["coherent"]},
                "time_grid": {"t_max": 100.0, "points": 6, "t_min": 1.0},
            },
        )
        assert cli.main(
            ["--scenario", "real-detector", "--config", str(cfg), "--out", str(out), "--quiet"]
        ) == 0
        entry = json.loads((out / "summary.json").read_text())["summary"]["steady"][
            "coherent,gamma=0.001"
        ]
        assert (entry["evolution"], entry["dim"]) == ("spectral-sector", 336)
        config = scenarios.ScenarioConfig(
            "mi-coherent",
            params={"g0": [0.25], "eps": [10.0]},
            cutoff=8,
            time_grid={"t_max": 100.0, "points": 4, "t_min": 1.0},
        )
        _, summary = scenarios.run_mi_coherent(config)
        (curve,) = summary["curves"].values()
        assert (curve["evolution"], curve["dim"]) == ("spectral-sector", 336)

    def test_real_detector_case_axis_accepts_strings(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": {"gamma": [1e-3], "case": ["coherent"]},
                "time_grid": {"t_max": 1000.0, "points": 12, "t_min": 1.0},
            },
        )
        out = tmp_path / "rd"
        assert cli.main(
            ["--scenario", "real-detector", "--config", str(cfg), "--out", str(out), "--quiet"]
        ) == 0
        lines = (out / "real-detector.csv").read_text().splitlines()
        assert lines[3].startswith("coherent,")

    def test_real_detector_steady_states(self, tmp_path):
        # with atomic decay the kernel is unique and correlations die out;
        # without it the singlet weight is conserved and they survive
        cfg = write_config(
            tmp_path,
            {
                "params": {"gamma": [1e-3, 0.0]},
                "time_grid": {"t_max": 100.0, "points": 6, "t_min": 1.0},
                "cutoff": 4,
            },
        )
        out = tmp_path / "rd"
        assert cli.main(
            ["--scenario", "real-detector", "--config", str(cfg), "--out", str(out), "--quiet"]
        ) == 0
        steady = json.loads((out / "summary.json").read_text())["summary"]["steady"]
        assert len(steady) == 4
        for key, entry in steady.items():
            decays = not key.endswith("gamma=0")
            assert entry["kernel_unique"] is decays
            if decays:
                assert entry["steady_mi"] < 1e-3
            else:
                assert entry["steady_mi"] > 0.1

    def test_mi_coherent_strong_drive_reaches_steady_value(self, tmp_path):
        # the eps = 1000 point of the default config, at the cutoff its auto
        # sweep converges to (8) and on its default grid to 30 tau = 1.2e8:
        # the kernel must not drift while the atoms relax to 2 - log2(3)
        config = scenarios.ScenarioConfig(
            "mi-coherent",
            params={"g0": [0.25], "eps": [1000.0]},
            cutoff=8,
            output=str(tmp_path / "mi"),
        )
        assert scenarios.run_scenario(config, quiet=True) == 0
        lines = (tmp_path / "mi" / "mi-coherent.csv").read_text().splitlines()
        cols = lines[2].removeprefix("# columns: ").split(",")
        last = dict(zip(cols, lines[-1].split(",")))
        assert float(last["mi_exact"]) == pytest.approx(2.0 - np.log2(3.0), abs=1e-5)

    def test_mi_coherent_at_eps_3000_stays_hermitian(self, tmp_path):
        # the slowest eigenvalues carry round-off of about 1e-12; with a
        # complex eigensolver e^{w t} grew it into a Hermiticity error of
        # 1e-6 at kappa t ~ 1e6, which the per-sample check refused (exit 3)
        cfg = write_config(tmp_path, {"params": {"g0": [0.25], "eps": [3000]}})
        out = tmp_path / "mi3000"
        assert cli.main(["--scenario", "mi-coherent", "--config", str(cfg), "--cutoff", "8",
                         "--out", str(out), "--quiet"]) == 0

    def test_plot_writes_svg(self, tmp_path):
        pytest.importorskip("matplotlib")
        cfg = write_config(tmp_path, SMALL_GAP_CONFIG)
        out = tmp_path / "plotted"
        assert cli.main(
            ["--scenario", "gap-coherent", "--config", str(cfg), "--out", str(out), "--quiet", "--plot"]
        ) == 0
        svg = (out / "gap-coherent.svg").read_text()
        assert svg.lstrip().startswith("<?xml")


class TestSchema:
    def test_schema_covers_all_scenarios(self, tmp_path):
        scenarios.write_schema(tmp_path)
        text = (tmp_path / "SCHEMA.md").read_text()
        for name in scenarios.SCENARIOS:
            assert f"## {name}" in text
            assert scenarios.SCHEMA_COLUMNS[name] in text
