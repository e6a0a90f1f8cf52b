from __future__ import annotations

import csv
import functools
import json
import math
import time
import warnings

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from privroute import cli
from privroute.cli import main
from privroute.game import solve_equilibrium
from privroute.config import EXPERIMENT_SCHEMA, ConfigError, load_config, privacy_pairs

from conftest import CONFIG_DIR

PIGOU = CONFIG_DIR / "pigou.json"
TWO_OD = CONFIG_DIR / "two_od.json"


# ---------------------------------------------------------------- config io


def test_load_shipped_configs():
    for path in (PIGOU, TWO_OD):
        cfg = load_config(path)
        assert "network" in cfg


def test_experiment_schema_is_valid_under_its_metaschema():
    # Configs are checked by a validator built once, which skips this check.
    Draft202012Validator.check_schema(EXPERIMENT_SCHEMA)


def test_unknown_keys_rejected(tmp_path):
    cfg = json.loads(PIGOU.read_text())
    cfg["extra_knob"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="extra_knob"):
        load_config(path)


def test_missing_cost_entry_names_edge(tmp_path):
    cfg = json.loads(TWO_OD.read_text())
    cfg["edge_costs"] = cfg["edge_costs"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=r"edge 7 \(v3 -> v6\)"):
        load_config(path)


def test_population_theta_length_checked(tmp_path):
    cfg = json.loads(TWO_OD.read_text())
    cfg["populations"][0]["theta"] = [1.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="population 0"):
        load_config(path)


def test_privacy_pairs_zip_and_broadcast():
    cfg = load_config(TWO_OD)
    assert privacy_pairs(cfg) == [(1e-6, 0.1), (1e-5, 0.3)]
    cfg_scalar = load_config(PIGOU)
    assert privacy_pairs(cfg_scalar) == [(1e-3, 0.1)]


# -------------------------------------------------------------- subcommands


def test_simulate_writes_expected_rows(tmp_path):
    code = main(
        [
            "simulate", "--config", str(PIGOU), "--sigma", "0.1",
            "--runs", "2", "--T", "25", "--seed", "3", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    csv_path = tmp_path / "ensemble_sigma_0p1.csv"
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:4] == ["t", "f_mean", "f_std", "gap_mean"]
    assert rows[0][4:] == ["flow[0][0]", "flow[0][1]"]
    assert len(rows) == 26
    manifest = json.loads((tmp_path / "manifest_sigma_0p1.json").read_text())
    assert manifest["effective"] == {"sigma": 0.1, "T": 25, "runs": 2, "seed": 3}
    assert manifest["checks"]["suboptimality_bound"]["ok"]
    assert "created_at" in manifest


def test_simulate_per_run_files(tmp_path):
    code = main(
        [
            "simulate", "--config", str(PIGOU), "--sigma", "0.2",
            "--runs", "3", "--T", "10", "--seed", "4", "--per-run",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    run_dir = tmp_path / "runs_sigma_0p2"
    files = sorted(p.name for p in run_dir.iterdir())
    assert files == ["run_000.csv", "run_001.csv", "run_002.csv"]
    with open(run_dir / "run_000.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "f", "gap", "flow[0][0]", "flow[0][1]", "loss_hat[0]", "loss_hat[1]"]
    assert len(rows) == 11
    # The ensemble mean equals the average of the per-run files.
    with open(tmp_path / "ensemble_sigma_0p2.csv", newline="") as handle:
        ensemble = list(csv.reader(handle))
    per_run_f = []
    for name in files:
        with open(run_dir / name, newline="") as handle:
            per_run_f.append([float(r[1]) for r in list(csv.reader(handle))[1:]])
    means = [sum(col) / 3 for col in zip(*per_run_f)]
    for row, mean in zip(ensemble[1:], means):
        assert float(row[1]) == pytest.approx(mean, rel=1e-12)


def test_simulate_per_run_files_average_to_ensemble(tmp_path):
    code = main(
        [
            "simulate", "--config", str(TWO_OD), "--sigma", "0.4",
            "--runs", "4", "--T", "15", "--seed", "6", "--per-run",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    runs = np.stack(
        [
            np.loadtxt(path, delimiter=",", skiprows=1)
            for path in sorted((tmp_path / "runs_sigma_0p4").glob("run_*.csv"))
        ]
    )
    ensemble = np.loadtxt(tmp_path / "ensemble_sigma_0p4.csv", delimiter=",", skiprows=1)
    assert runs.shape == (4, 15, 3 + 2 * 5 + 5)
    mean = runs.mean(axis=0)
    np.testing.assert_array_equal(ensemble[:, 0], mean[:, 0])
    np.testing.assert_allclose(ensemble[:, 1], mean[:, 1], rtol=1e-12)  # f
    np.testing.assert_allclose(ensemble[:, 2], runs[:, :, 1].std(axis=0), rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(ensemble[:, 3], mean[:, 2], rtol=1e-12)  # gap
    np.testing.assert_allclose(ensemble[:, 4:], mean[:, 3:13], rtol=1e-12)  # flows


def test_simulate_survives_large_entropic_step(tmp_path):
    # c_k = 5000 drives the losing paths' weights below the smallest float;
    # the simulator keeps entropic iterates as logits, so none becomes zero.
    cfg = json.loads(TWO_OD.read_text())
    cfg["populations"][0]["c_k"] = 5000
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    args = ["simulate", "--config", str(path), "--runs", "3", "--T", "40", "--per-run"]
    assert main(args + ["--out", str(out)]) == 0
    tables = sorted(out.glob("ensemble_sigma_*.csv")) + sorted(out.glob("runs_sigma_*/run_*.csv"))
    assert len(tables) == 3 * 4
    for table_path in tables:
        with open(table_path, newline="") as handle:
            header = next(csv.reader(handle))
        table = np.loadtxt(table_path, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(table))
        flows = table[:, [i for i, h in enumerate(header) if h.startswith("flow[")]]
        flows = flows.reshape(len(table), 2, 5)
        assert flows.min() >= 0.0
        np.testing.assert_allclose(flows[:, :, :3].sum(axis=2), 1.0, atol=1e-9)
        np.testing.assert_allclose(flows[:, :, 3:].sum(axis=2), 1.0, atol=1e-9)


def test_simulate_sigma_sweep_writes_the_files_of_single_sigma_runs(tmp_path):
    # pigou.json sweeps sigma over [0.0, 0.1] in one engine pass.
    args = ["simulate", "--config", str(PIGOU), "--T", "15", "--runs", "3", "--per-run"]
    assert main(args + ["--out", str(tmp_path / "sweep")]) == 0
    for sigma in ("0", "0.1"):
        assert main(args + ["--sigma", sigma, "--out", str(tmp_path / "alone")]) == 0
    swept = sorted(p.relative_to(tmp_path / "sweep") for p in (tmp_path / "sweep").rglob("*.csv"))
    alone = sorted(p.relative_to(tmp_path / "alone") for p in (tmp_path / "alone").rglob("*.csv"))
    assert swept == alone and len(swept) == 2 * (1 + 3)
    for name in swept:
        assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
    for token in ("0", "0p1"):
        manifests = [json.loads((tmp_path / d / f"manifest_sigma_{token}.json").read_text())
                     for d in ("sweep", "alone")]
        assert manifests[0]["results"] == manifests[1]["results"]
        assert manifests[0]["checks"] == manifests[1]["checks"]


@pytest.mark.parametrize(
    "command, path, text",
    [
        ("accountant", ("privacy", "sigma"), "NaN"),
        ("accountant", ("privacy", "delta_budget"), "Infinity"),
        ("equilibrium", ("populations", 0, "theta", 0), "NaN"),
        ("simulate", ("simulation", "sigma", 1), "-Infinity"),
    ],
)
def test_non_finite_config_value_is_one_line_error(tmp_path, capsys, command, path, text):
    cfg = json.loads(PIGOU.read_text())
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = "@"
    config_path = tmp_path / "non_finite.json"
    config_path.write_text(json.dumps(cfg).replace('"@"', text))
    out = [] if command == "equilibrium" else ["--out", str(tmp_path / "out")]
    start = time.perf_counter()
    assert main([command, "--config", str(config_path), *out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    location = "/".join(map(str, path))
    assert err == f"error: config invalid at {location}: {float(text)} is not a finite number\n"
    assert not (tmp_path / "out").exists()


def test_simulate_deterministic_bytes(tmp_path):
    args = [
        "simulate", "--config", str(TWO_OD), "--sigma", "0.4",
        "--runs", "3", "--T", "20", "--seed", "7",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    name = "ensemble_sigma_0p4.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = json.loads(PIGOU.read_text())
    del cfg["edge_costs"][1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "edge 1" in capsys.readouterr().err


def test_simulate_huge_sigma_gives_infinite_bound(tmp_path):
    # A schema-valid sigma whose square overflows a Python float.
    cfg = json.loads(PIGOU.read_text())
    cfg["simulation"]["sigma"] = 1e200
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(cfg))
    code = main(["simulate", "--config", str(path), "--T", "20", "--runs", "2", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest_sigma_1e+200.json").read_text())
    bound = manifest["checks"]["suboptimality_bound"]
    assert math.isinf(bound["noise_bound"]) and math.isinf(bound["bound"])
    assert bound["ok"] is True


def test_failing_simulate_writes_nothing(tmp_path, capsys):
    # A schema-valid window past the horizon fails only in the slope fit, after every run.
    cfg = json.loads(PIGOU.read_text())
    cfg["simulation"]["slope_window"] = [300, 400]
    path = tmp_path / "late_window.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--per-run", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: slope window (300, 400)") and err.count("\n") == 1
    assert not out.exists()


def test_config_directory_is_one_line_error(tmp_path, capsys):
    assert main(["accountant", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["accountant", "simulate"])
def test_out_path_that_is_a_file_is_one_line_error(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    extra = ["--T", "5", "--runs", "1"] if command == "simulate" else []
    assert main([command, "--config", str(PIGOU), "--out", str(taken), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err
    assert err.count("\n") == 1


def test_accountant_curves(tmp_path):
    code = main(
        [
            "accountant", "--config", str(TWO_OD),
            "--T-range", "1:41:10", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    with open(tmp_path / "accountant.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["c", "sigma", "T", "epsilon", "delta", "valid"]
    assert len(rows) == 1 + 2 * 5  # two (c, sigma) pairs, five horizons
    by_pair: dict[tuple[str, str], list[list[str]]] = {}
    for row in rows[1:]:
        by_pair.setdefault((row[0], row[1]), []).append(row)
    for rows_for_pair in by_pair.values():
        eps = [float(r[3]) for r in rows_for_pair]
        assert eps == sorted(eps)


def test_accountant_writes_full_report_json(tmp_path):
    code = main(
        [
            "accountant", "--config", str(TWO_OD),
            "--T-range", "1:21:5", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report_c_1e-06_sigma_0p1.json").read_text())
    assert report["horizon"] == 21
    assert len(report["per_step"]["epsilon"]) == 21
    assert report["constants"]["allocation_norm_bound"] == 2.0
    assert (tmp_path / "report_c_1e-05_sigma_0p3.json").exists()


def test_accountant_zero_radius(tmp_path):
    code = main(
        [
            "accountant", "--config", str(PIGOU), "--c", "0",
            "--T-range", "1:3", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    with open(tmp_path / "accountant.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert all(float(row[3]) == 0.0 for row in rows[1:])


def test_accountant_single_step_equals_mechanism(tmp_path):
    from privroute.config import build_dynamics_from_config, build_game_from_config
    from privroute.privacy import privacy_report

    code = main(
        [
            "accountant", "--config", str(PIGOU),
            "--T-range", "1:1", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    with open(tmp_path / "accountant.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2
    cfg = load_config(PIGOU)
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    report = privacy_report(
        game, schedules, sigma=0.1, horizon=1, clip=2.0,
        delta_budget=1e-3, adjacency_radius=1e-3,
    )
    assert float(rows[1][3]) == pytest.approx(report.epsilons[0], rel=1e-12)
    assert float(rows[1][4]) == pytest.approx(report.deltas[0] + report.tail_delta, rel=1e-12)


def test_accountant_overflowing_composition_is_trivial(tmp_path):
    # At c = 1e-2 the summed epsilon passes 709, where exp(suffix) overflows.
    code = main(
        [
            "accountant", "--config", str(TWO_OD), "--c", "1e-2",
            "--T-range", "1:1001:500", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    with open(tmp_path / "accountant.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 3
    assert {row["delta"] for row in rows if row["T"] != "1"} == {"inf"}
    assert all(row["valid"] == "0" for row in rows)
    assert all(math.isfinite(float(row["epsilon"])) for row in rows)
    report = json.loads((tmp_path / "report_c_0.01_sigma_0p1.json").read_text())
    assert report["trivial"] is True


def test_accountant_reversed_config_t_range_is_one_line_error(tmp_path, capsys):
    # A schema-valid range whose stop lies below its start.
    cfg = json.loads(PIGOU.read_text())
    cfg["privacy"]["T_range"] = [5, 2]
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(cfg))
    assert main(["accountant", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad T-range '5:2'")
    assert err.count("\n") == 1
    assert not (tmp_path / "accountant.csv").exists()


@pytest.mark.parametrize("spec", ["x:5", "1:5:2:3", "0:5", "3:4:0"])
def test_accountant_bad_t_range_flag_is_one_line_error(tmp_path, capsys, spec):
    code = main(["accountant", "--config", str(PIGOU), "--T-range", spec, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad T-range {spec!r}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("radius", ["-1", "nan"])
def test_accountant_bad_radius_is_one_line_error(tmp_path, capsys, radius):
    code = main(["accountant", "--config", str(PIGOU), "--c", radius, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "radius" in err
    assert err.count("\n") == 1


def test_failing_accountant_leaves_earlier_output_alone(tmp_path, capsys):
    earlier = tmp_path / "accountant.csv"
    earlier.write_text("c,sigma,T,epsilon,delta,valid\n0.001,0.1,1,0.5,0.001,1\n")
    before = earlier.read_bytes()
    assert main(["accountant", "--config", str(PIGOU), "--c", "-1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert earlier.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["accountant.csv"]


@pytest.mark.parametrize("radius, spec", [("1e308", "1:50:10"), ("1e304", "1:5000:10")],
                         ids=["per-release", "composed"])
def test_accountant_overflowing_radius_is_one_line_error(tmp_path, capsys, radius, spec):
    # At 1e308 every sensitivity overflows; at 1e304 only the composed epsilon at T = 5000 does.
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["accountant", "--config", str(PIGOU), "--c", radius, "--T-range", spec,
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: epsilon overflows at c = {float(radius)!r}, sigma = 0.1\n"
    assert not out.exists()


def write_delta_budget(tmp_path, delta_budget):
    cfg = json.loads(TWO_OD.read_text())
    cfg["privacy"]["delta_budget"] = delta_budget
    path = tmp_path / "tiny_delta.json"
    path.write_text(json.dumps(cfg))
    return path


def test_accountant_tiny_per_release_delta_stays_finite(tmp_path, capsys):
    # delta_budget / T reaches 1e-310, where 1.25 / delta overflows a float.
    path = write_delta_budget(tmp_path, 1e-306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["accountant", "--config", str(path), "--T-range", "1:10000:1000",
                     "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "accountant.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 10
    assert all(math.isfinite(float(row[key])) for row in rows for key in ("epsilon", "delta"))


def test_accountant_per_release_delta_underflow_is_one_line_error(tmp_path, capsys):
    path = write_delta_budget(tmp_path, 1e-320)
    code = main(["accountant", "--config", str(path), "--T-range", "1:10000:1000",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: per-release delta 1e-320 / T underflows to 0 at T = 5001\n"


@pytest.mark.parametrize(
    "extra",
    [[], ["--c", "1e-3"], ["--c", "0"]],
    ids=["shipped", "invalid-first-release", "zero-radius"],
)
def test_accountant_manifest_diagnostics_match_csv(tmp_path, extra):
    code = main(
        ["accountant", "--config", str(TWO_OD), "--T-range", "1:10000:50",
         "--out", str(tmp_path), *extra]
    )
    assert code == 0
    with open(tmp_path / "accountant.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    manifest = json.loads((tmp_path / "accountant_manifest.json").read_text())
    diagnostics = manifest["diagnostics"]
    assert [[d["c"], d["sigma"]] for d in diagnostics] == manifest["effective"]["pairs"]
    for diag in diagnostics:
        block = [r for r in rows if (float(r["c"]), float(r["sigma"])) == (diag["c"], diag["sigma"])]
        assert len(block) == 200

        def first(pred):
            return next((int(r["T"]) for r in block if pred(r)), None)

        assert diag["first_trivial_T"] == first(lambda r: float(r["delta"]) >= 1.0)
        # A row is invalid when a release is invalid or delta is trivial.
        invalid, trivial = diag["first_invalid_release_T"], diag["first_trivial_T"]
        flagged = [t for t in (invalid, trivial) if t is not None]
        assert first(lambda r: r["valid"] == "0") == min(flagged, default=None)
        # Before delta turns trivial, only an invalid release can flag a row.
        if invalid is not None and (trivial is None or invalid < trivial):
            assert first(lambda r: r["valid"] == "0" and float(r["delta"]) < 1.0) == invalid
    by_case = {(d["first_invalid_release_T"], d["first_trivial_T"]) for d in diagnostics}
    expected = {
        "": {(None, 8451), (None, 2201)},
        "1e-3": {(1, 51), (51, 51)},
        "0": {(1, None)},
    }[extra[1] if extra else ""]
    assert by_case == expected


def test_equilibrium_failure_is_one_line_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "solve_equilibrium", functools.partial(solve_equilibrium, max_iter=3))
    assert main(["equilibrium", "--config", str(TWO_OD)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no equilibrium within 3 iterations")
    assert err.count("\n") == 1


def test_constants_pigou(capsys):
    assert main(["constants", "--config", str(PIGOU), "--json"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values["incidence_gain"] == pytest.approx(1.0, rel=1e-9)
    assert values["allocation_norm_bound"] == 1.0
    assert values["loss_lipschitz"] == pytest.approx(1.0, rel=1e-9)
    assert values["loss_sup"] == pytest.approx(1.0)
    assert values["moduli"] == [1.0]


def test_constants_two_od(capsys):
    assert main(["constants", "--config", str(TWO_OD)]) == 0
    out = capsys.readouterr().out
    assert "A_Delta = 2.0" in out
    assert "A_theta = 1.2" in out


def test_constants_constant_costs(tmp_path, capsys):
    cfg = json.loads(PIGOU.read_text())
    cfg["edge_costs"] = [{"affine": [0.0, 1.0]}, {"affine": [0.0, 2.0]}]
    path = tmp_path / "const.json"
    path.write_text(json.dumps(cfg))
    assert main(["constants", "--config", str(path), "--json"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values["loss_lipschitz"] == 0.0
    assert main(["accountant", "--config", str(path), "--T-range", "1:5", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "accountant.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert all(float(row[3]) == 0.0 for row in rows[1:])


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_equilibrium_bad_tolerance_fails_fast(capsys, tol):
    start = time.perf_counter()
    assert main(["equilibrium", "--config", str(PIGOU), "--tol", tol]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: tolerance must be positive\n"


def test_equilibrium_command(capsys):
    assert main(["equilibrium", "--config", str(PIGOU), "--tol", "1e-6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["f_star"] == pytest.approx(0.5, abs=1e-4)
    assert payload["gap"] <= 1e-6


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIVROUTE_OUTDIR", str(tmp_path / "envout"))
    cfg = json.loads(PIGOU.read_text())
    cfg.pop("output_dir", None)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(
        ["simulate", "--config", str(path), "--sigma", "0", "--runs", "1", "--T", "5"]
    )
    assert code == 0
    assert (tmp_path / "envout" / "ensemble_sigma_0.csv").exists()
