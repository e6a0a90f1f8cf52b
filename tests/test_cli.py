from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from privroute import cli
from privroute.cli import main
from privroute.game import EQUILIBRIUM_TOL, solve_equilibrium
from privroute.config import EXPERIMENT_SCHEMA, ConfigError, build_game_from_config, load_config
from privroute.config import build_dynamics_from_config, privacy_pairs
from privroute.dynamics import BregmanGeometry
from privroute.privacy import SensitivityConstants

from conftest import CONFIG_DIR, REPO_ROOT

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError

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


def test_privacy_pairs_rejects_mismatched_lengths(tmp_path):
    cfg = {"privacy": {"c_adj": [1e-6, 1e-5, 1e-4], "sigma": [0.1, 0.3]}}
    message = r"privacy c_adj and sigma lists have mismatched lengths \(3 vs 2\)"
    with pytest.raises(ConfigError, match=message):
        privacy_pairs(cfg)
    # Loading a config checks the same rule.
    doc = json.loads(TWO_OD.read_text())
    doc["privacy"]["c_adj"] = cfg["privacy"]["c_adj"]
    path = tmp_path / "mismatched.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=message):
        load_config(path)


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


def test_per_run_files_reduce_bit_for_bit_to_the_ensembles(tmp_path):
    # The per-run files come from a second pass of the sweep, made after every
    # result is in hand; parsed back, they give each ensemble column bit for bit.
    args = ["simulate", "--config", str(TWO_OD), "--runs", "150", "--T", "201", "--per-run"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    ensembles = sorted(tmp_path.glob("ensemble_sigma_*.csv"))
    assert len(ensembles) == 3
    for path in ensembles:
        run_dir = tmp_path / path.stem.replace("ensemble_sigma_", "runs_sigma_")
        runs = np.stack([np.loadtxt(run, delimiter=",", skiprows=1)
                         for run in sorted(run_dir.glob("run_*.csv"))])
        ensemble = np.loadtxt(path, delimiter=",", skiprows=1)
        assert runs.shape == (150, 201, 3 + 2 * 5 + 5)
        assert ensemble[:, 0].tolist() == list(range(1, 202))
        pairs = runs[:, :, 1:3]  # each run's f and gap, side by side
        mean, std = pairs.mean(axis=0), pairs.std(axis=0)
        for column, expected in [(1, mean[:, 0]), (2, std[:, 0]), (3, mean[:, 1])]:
            assert ensemble[:, column].tobytes() == expected.tobytes(), (path.name, column)
        assert ensemble[:, 4:].tobytes() == (runs[:, :, 3:13].sum(axis=0) / 150).tobytes()


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


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("simulate", lambda cfg: cfg.pop("simulation"), "config has no simulation block"),
        ("accountant", lambda cfg: cfg.pop("privacy"), "config has no privacy block"),
        ("simulate", lambda cfg: cfg["edge_costs"].append({"affine": [1.0, 0.0]}),
         "3 cost entries for only 2 edges"),
        ("accountant", lambda cfg: cfg["populations"][0].update(theta=[1.5]),
         "mass entry 1.5 exceeds declared mass_bound 1.0"),
        ("simulate", lambda cfg: cfg["network"].update(od_pairs=[["s", "u"]]),
         "OD pair (s, u) references an unknown node"),
        ("accountant", lambda cfg: cfg["network"].update(od_pairs=[["t", "t"]]),
         "degenerate OD pair (t, t)"),
    ],
    ids=["no-simulation", "no-privacy", "extra-cost", "theta-above-bound", "unknown-od-node",
         "degenerate-od"],
)
def test_config_failure_is_one_line_error(tmp_path, capsys, command, edit, message):
    cfg = json.loads(PIGOU.read_text())
    edit(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, path, text, flag, message",
    [
        ("simulate", ("simulation", "T"), "1", ["--T", "200"],
         "simulation/T: 1 is less than the minimum of 2"),
        ("simulate", ("simulation", "sigma"), "NaN", ["--sigma", "0.1"],
         "simulation/sigma: nan is not a finite number"),
        ("accountant", ("privacy", "T_range"), "[5, 2]", ["--T-range", "1:10"],
         "privacy/T_range: [5, 2] stops before it starts"),
    ],
    ids=["T", "sigma-nan", "T_range"],
)
def test_bad_file_value_is_refused_when_a_flag_replaces_it(tmp_path, capsys, command, path,
                                                            text, flag, message):
    # The file is checked alone before its flags merge in: the merged document
    # would hide the file's value, and a NaN would reach the manifest's config
    # echo, which json.dump writes as NaN, not JSON.
    cfg = json.loads(TWO_OD.read_text())
    cfg[path[0]][path[1]] = "@"
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(cfg).replace('"@"', text))
    out = tmp_path / "out"
    assert main([command, "--config", str(config_path), *flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config invalid at {message}\n"
    assert not out.exists()


def test_config_that_is_not_json_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text(PIGOU.read_text()[:40])
    out = tmp_path / "out"
    assert main(["accountant", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"network": ' + "[" * 800 + "]" * 800 + "}",
    "[" * 100_000,
], ids=["too_deep_to_check", "too_deep_to_parse"])
def test_over_deep_config_is_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["accountant", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path} is nested too deeply to read as a config\n"
    assert not out.exists()


def test_a_long_chain_runs(tmp_path, capsys):
    # One path of 1,499 edges, deeper than Python's default recursion limit.
    nodes = [f"v{i}" for i in range(1500)]
    cfg = json.loads(PIGOU.read_text())
    cfg["network"] = {"nodes": nodes, "edges": [list(e) for e in zip(nodes, nodes[1:])],
                      "od_pairs": [[nodes[0], nodes[-1]]]}
    cfg["edge_costs"] = [{"affine": [0.1, 0.0]}] * (len(nodes) - 1)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    assert main(["equilibrium", "--config", str(path)]) == 0
    assert "[1.0]" in capsys.readouterr().out
    assert main(["accountant", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "accountant.csv").exists()


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


# Schema-valid pigou configs whose noise bound overflows a Python float: a loud
# sigma, or a loss bound whose square overflows (costly edges, or a mass of
# 1.5e154 with no mass_bound to cap it).
LOUD_PIGOU = {
    "sigma": lambda cfg: cfg["simulation"].update(sigma=1e200),
    "edge_costs": lambda cfg: cfg.update(edge_costs=[{"affine": [1e300, 1e300]}] * 2),
    "theta": lambda cfg: (cfg["populations"][0].update(theta=[1.5e154]), cfg.pop("mass_bound")),
}


@pytest.mark.parametrize("loud", LOUD_PIGOU)
def test_simulate_huge_sigma_gives_infinite_bound(tmp_path, loud):
    cfg = json.loads(PIGOU.read_text())
    LOUD_PIGOU[loud](cfg)
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--T", "20", "--runs", "2", "--out", str(out)])
    assert code == 0
    manifests = sorted(out.glob("manifest_sigma_*.json"))
    assert manifests
    for manifest in manifests:
        bound = json.loads(manifest.read_text())["checks"]["suboptimality_bound"]
        assert math.isinf(bound["noise_bound"]) and math.isinf(bound["bound"])
        assert bound["ok"] is True


def test_failing_simulate_writes_nothing(tmp_path, capsys):
    # A noise level this loud overflows the observed losses partway through the runs.
    out = tmp_path / "out"
    args = ["--sigma", "1e308", "--T", "50", "--per-run", "--out", str(out)]
    assert main(["simulate", "--config", str(PIGOU), *args]) == 1
    assert capsys.readouterr().err == "error: non-finite loss entries\n"
    assert not out.exists()


def overflowing_mean_config(tmp_path):
    """Pigou at sigma 0, where each run's potential is finite but three runs' sum is not.

    Two equal paths keep every run at the uniform allocation, whose potential
    (about 0.7e308) is finite while three runs' sum overflows, so the ensemble
    mean is inf.
    """
    cfg = json.loads(PIGOU.read_text())
    cfg["edge_costs"] = [{"affine": [1e-100, 0.0]}] * 2
    cfg["populations"][0].update(theta=[1.673e204], c_k=1e-10)
    cfg["simulation"]["sigma"] = 0.0
    del cfg["mass_bound"]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(cfg))
    return path


def test_non_finite_fitted_values_are_one_line_error(tmp_path, capsys):
    # The slope fit refuses an infinite ensemble mean before a manifest records a NaN slope.
    path = overflowing_mean_config(tmp_path)
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(path), "--T", "20", "--runs", "3", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: the values to fit in slope window (5, 20) are not all finite\n")
    assert not out.exists()


def test_failing_per_run_simulate_leaves_earlier_output_as_it_was(tmp_path, capsys):
    # The failing config writes the same file names as the run before it, and fails
    # after its sweep, at the slope fit; rows written during the sweep would overwrite.
    out = tmp_path / "out"
    args = ["--T", "120", "--runs", "3", "--per-run", "--out", str(out)]
    assert main(["simulate", "--config", str(PIGOU), "--sigma", "0", *args]) == 0
    capsys.readouterr()
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert len(before) == 2 + 3
    assert main(["simulate", "--config", str(overflowing_mean_config(tmp_path)), *args]) == 1
    assert capsys.readouterr().err == (
        "error: the values to fit in slope window (30, 120) are not all finite\n")
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--T", "1", "1 is less than the minimum of 2"),
        ("--T", "0", "0 is less than the minimum of 2"),
        ("--runs", "0", "0 is less than the minimum of 1"),
        ("--seed", "-1", "-1 is less than the minimum of 0"),
        ("--sigma", "-1", "-1.0 is not valid under any of the given schemas"),
        # np.arange(2**63 - 1) is empty, and the seed spawn cannot count to 10**23.
        ("--T", str(2**63 - 1), f"{2**63 - 1} is greater than the maximum of {2**53}"),
        ("--T", str(2**63), f"{2**63} is greater than the maximum of {2**53}"),
        ("--runs", str(10**23 - 1), f"{10**23 - 1} is greater than the maximum of {2**53}"),
    ],
    ids=["T-1", "T-0", "runs-0", "seed--1", "sigma--1", "T-2**63-1", "T-2**63", "runs-10**23-1"],
)
def test_bad_simulate_flag_fails_before_any_work(tmp_path, capsys, monkeypatch, flag, value,
                                                 message):
    # A flag meets the schema like the config value it replaces, before the game is solved.
    def unreachable(*args, **kwargs):
        raise AssertionError("solved the equilibrium for a config the schema refuses")

    monkeypatch.setattr(cli.game, "solve_equilibrium", unreachable)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(PIGOU), flag, value, "--out", str(out)]) == 2
    location = f"simulation/{flag.removeprefix('--')}"
    assert capsys.readouterr().err == f"error: config invalid at {location}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_sigma_flag_is_one_line_error(tmp_path, capsys, monkeypatch, sigma):
    # The schema's bounds let NaN and infinity through, as JSON Schema's do; the
    # finiteness check a config file meets refuses them, before the game is solved.
    def unreachable(*args, **kwargs):
        raise AssertionError("solved the equilibrium for a non-finite sigma")

    monkeypatch.setattr(cli.game, "solve_equilibrium", unreachable)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(PIGOU), "--sigma", sigma, "--out", str(out)]) == 2
    message = f"config invalid at simulation/sigma: {sigma} is not a finite number"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_integral_float_config_runs(tmp_path):
    # JSON Schema counts 20.0 as an integer; the run is the one of the integer config.
    cfg = json.loads(PIGOU.read_text())
    outputs = []
    for name, cast in (("int", int), ("float", float)):
        cfg["simulation"] |= {"T": cast(20), "runs": cast(2), "seed": cast(3)}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["simulate", "--config", str(path), "--per-run", "--out", str(out)]) == 0
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))})
    assert outputs[0] == outputs[1] and len(outputs[0]) == 2 * (1 + 2)


@pytest.mark.parametrize(
    "error",
    [_ArrayMemoryError((10**6, 10**6), np.dtype(float)), MemoryError("Unable to allocate")],
    ids=["numpy", "python"],
)
def test_out_of_memory_is_one_line_error(tmp_path, capsys, monkeypatch, error):
    from privroute import sim

    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(sim, "simulate_sweep", exhausted)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(TWO_OD), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


def test_out_of_memory_in_the_per_run_pass_writes_nothing(tmp_path, capsys, monkeypatch):
    # --per-run sweeps a second time, with chunk buffers for the rows it writes.
    from privroute import sim

    sweep = sim.simulate_sweep

    def exhausted_when_hooked(cfg, sigmas, seeds, on_chunk=None):
        if on_chunk is not None:
            raise MemoryError("Unable to allocate")
        return sweep(cfg, sigmas, seeds)

    monkeypatch.setattr(sim, "simulate_sweep", exhausted_when_hooked)
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(PIGOU), "--T", "20", "--runs", "2", "--per-run"]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate (simulate: T=20, runs=2, sigmas=2)\n")
    assert not out.exists()


def test_out_of_memory_without_text_has_no_dangling_colon(tmp_path, capsys, monkeypatch):
    # The accountant adds nothing to the line, so main's own format shows.
    from privroute import privacy

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(privacy, "privacy_curve", exhausted)
    assert main(["accountant", "--config", str(TWO_OD), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize(
    "error, line",
    [(MemoryError("Unable to allocate 8.94 GiB"),
      "error: out of memory: Unable to allocate 8.94 GiB (simulate: T=8000000, runs=150, "
      "sigmas=3)"),
     (MemoryError(), "error: out of memory: (simulate: T=8000000, runs=150, sigmas=3)")],
    ids=["text", "no-text"],
)
def test_out_of_memory_in_simulate_names_the_size(tmp_path, capsys, monkeypatch, error, line):
    from privroute import sim

    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(sim, "simulate_sweep", exhausted)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(TWO_OD), "--T", "8000000", "--out", str(out)]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_unallocatable_t_range_fails_on_the_budget(tmp_path):
    # 10^13 horizons would take 72.8 TiB as an array; the range is refused from its
    # size before any is allocated, so even under 4 GiB of address space the error
    # names the budget, not memory.  Uncapped, an overcommitting kernel might grant
    # the array, and filling it would exhaust the machine.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    args = ["accountant", "--config", str(PIGOU), "--T-range", "1:9999999999999", "--out", str(out)]
    result = subprocess.run([sys.executable, "-m", "privroute.cli", *args], env=env,
                            preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert result.stderr == ("error: horizons x T_max = 9999999999999 x 9999999999999 exceeds "
                             "the accountant's budget of 10000000000\n")
    assert not out.exists()


@pytest.mark.parametrize("runs", [100000000, 2**53], ids=["1e8", "2**53"])
def test_unallocatable_run_count_fails_at_once(tmp_path, runs):
    # The seeds are made as they are read, so the sweep's first array, whose
    # shape holds len(run_seeds(...)), fails before any child exists.  Capped
    # at 3 GiB of address space, as above.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    args = ["simulate", "--config", str(TWO_OD), "--runs", str(runs), "--out", str(out)]
    result = subprocess.run([sys.executable, "-m", "privroute.cli", *args], env=env,
                            preexec_fn=cap, capture_output=True, text=True, timeout=30)
    assert result.returncode == 1 and result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: out of memory:")
    assert f"shape (2, 5, 3, {runs})" in result.stderr
    assert result.stderr.endswith(f"(simulate: T=200, runs={runs}, sigmas=3)\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [
        ("equilibrium", "error: the Nash gap is NaN at iteration 0"),
        ("simulate", "error: the Nash gap is NaN at iteration 0"),
        ("constants", "error: loss_sup must be finite and nonnegative, got nan"),
        ("accountant", "error: loss_sup must be finite and nonnegative, got nan"),
    ],
    ids=["equilibrium", "simulate", "constants", "accountant"],
)
def test_overflowing_costs_are_one_line_error(tmp_path, capsys, command, message):
    # Flows of 1e300 on slopes of 1e300 overflow; the finiteness checks, not a
    # numpy warning, report it.
    cfg = json.loads(PIGOU.read_text())
    cfg["edge_costs"] = [{"affine": [1e300, 0.0]}] * 2
    cfg["populations"][0]["theta"] = [1e300]
    del cfg["mass_bound"]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    if command in ("simulate", "accountant"):
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "command, block, key, values, message",
    [
        ("simulate", "simulation", "sigma", [0.1, 0.1000001],
         "sigma 0.1 and 0.1000001 would both write ensemble_sigma_0p1.csv"),
        ("accountant", "privacy", "c_adj", [1e-3, 1e-3],
         "(c, sigma) (0.001, 0.1) and (0.001, 0.1) would both write "
         "rows 0.001,0.1 of accountant.csv"),
        ("simulate", "simulation", "sigma", [0.1, 0.1],
         "sigma 0.1 and 0.1 would both write ensemble_sigma_0p1.csv"),
    ],
    ids=["simulate", "accountant_repeated", "simulate_repeated"],
)
def test_colliding_output_names_are_one_line_error(tmp_path, capsys, command, block, key,
                                                   values, message):
    # File names keep six significant digits of each value; a repeated value is one name twice,
    # and a repeated (c, sigma) pair one key of accountant.csv twice.
    cfg = json.loads(PIGOU.read_text())
    cfg[block][key] = values
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_near_duplicate_pairs_are_two_pairs(tmp_path):
    # Pairs name rows, keyed by every digit of c, so values one file name would merge stay apart.
    cfg = json.loads(PIGOU.read_text())
    cfg["privacy"]["c_adj"] = [1e-3, 1.0000001e-3]
    path = tmp_path / "near.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["accountant", "--config", str(path), "--T-range", "1:3", "--out", str(out)]) == 0
    with open(out / "accountant.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["c"], row["T"]) for row in rows] == [
        (c, t) for c in ("0.001", "0.0010000001") for t in ("1", "2", "3")]
    entries = json.loads((out / "accountant_manifest.json").read_text())["pairs"]
    assert [(e["c"], e["sigma"]) for e in entries] == [(1e-3, 0.1), (1.0000001e-3, 0.1)]
    assert [e["epsilon"] for e in entries] == [float(rows[2]["epsilon"]), float(rows[5]["epsilon"])]
    assert entries[0]["epsilon"] < entries[1]["epsilon"]


def forbid_work(monkeypatch):
    """Make every command's first costly step fail the test if it is reached."""
    from privroute import privacy, sim

    def unreachable(*args, **kwargs):
        raise AssertionError("a command worked on a config it should have refused")

    monkeypatch.setattr(cli.game, "solve_equilibrium", unreachable)
    monkeypatch.setattr(sim, "simulate_sweep", unreachable)
    monkeypatch.setattr(privacy.SensitivityConstants, "from_game", unreachable)
    monkeypatch.setattr(privacy, "privacy_curve", unreachable)


@pytest.mark.parametrize("command", ["accountant", "simulate", "constants", "equilibrium"])
@pytest.mark.parametrize(
    "path, value, message",
    [
        (("populations", 0, "alpha_k"), 0,
         "populations/0/alpha_k: 0 is less than or equal to the minimum of 0"),
        (("privacy", "sigma"), 0, "privacy/sigma: 0 is not valid under any of the given schemas"),
    ],
    ids=["alpha_k-0", "privacy-sigma-0"],
)
def test_values_outside_the_guarantees_domains_fail_before_any_work(
        tmp_path, capsys, monkeypatch, command, path, value, message):
    # The rate bound needs 0 < alpha_k < 1 and the Gaussian mechanism sigma > 0; the
    # schema says so, so every command refuses these when it loads the config.
    forbid_work(monkeypatch)
    cfg = json.loads(PIGOU.read_text())
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    config_path = tmp_path / "outside.json"
    config_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    args = ["--out", str(out)] if command in ("accountant", "simulate") else []
    assert main([command, "--config", str(config_path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config invalid at {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, block, key, message",
    [
        ("simulate", "simulation", "sigma",
         "sigma 0.0 and -0.0 would both write ensemble_sigma_0.csv"),
        ("accountant", "privacy", "c_adj",
         "(c, sigma) (0.0, 0.1) and (-0.0, 0.1) would both write rows 0.0,0.1 of accountant.csv"),
    ],
    ids=["simulate", "accountant"],
)
def test_signed_zeros_name_one_file(tmp_path, capsys, monkeypatch, command, block, key,
                                    message):
    # -0.0 equals 0.0, so the two are a repeated value and name the same output.
    forbid_work(monkeypatch)
    cfg = json.loads(PIGOU.read_text())
    cfg[block][key] = [0.0, -0.0]
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("paper_variant", False), ("delta_split", "uniform")])
def test_accountant_rejects_removed_privacy_keys(tmp_path, capsys, key, value):
    cfg = json.loads(TWO_OD.read_text())
    cfg["privacy"][key] = value
    path = tmp_path / "old_keys.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["accountant", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config invalid at privacy: additional properties are not allowed ('{key}')\n"
    )
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


def test_accountant_defaults_stand_in_for_missing_settings(tmp_path):
    # pigou.json states the defaults; leaving them out gives the same files.
    cfg = json.loads(PIGOU.read_text())
    del cfg["privacy"]["a"], cfg["privacy"]["delta_budget"]
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(cfg))
    stated, default = tmp_path / "stated", tmp_path / "default"
    assert main(["accountant", "--config", str(PIGOU), "--out", str(stated)]) == 0
    assert main(["accountant", "--config", str(path), "--out", str(default)]) == 0
    effective = json.loads((default / "accountant_manifest.json").read_text())["effective"]
    assert (repr(effective["a"]), repr(effective["delta_budget"])) == ("2.0", "0.001")
    names = sorted(p.name for p in stated.iterdir())
    assert names == ["accountant.csv", "accountant_manifest.json"]
    assert (default / "accountant.csv").read_bytes() == (stated / "accountant.csv").read_bytes()
    # The manifests differ only in their config echo and timestamp.
    manifests = [json.loads((out / "accountant_manifest.json").read_text())
                 for out in (default, stated)]
    for manifest in manifests:
        del manifest["config"], manifest["created_at"]
    assert manifests[0] == manifests[1]


def test_accountant_writes_full_report_json(tmp_path):
    from privroute.config import build_dynamics_from_config
    from privroute.privacy import privacy_report

    code = main(
        [
            "accountant", "--config", str(TWO_OD),
            "--T-range", "1:21:5", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "accountant_manifest.json").read_text())
    assert [(e["c"], e["sigma"]) for e in manifest["pairs"]] == [(1e-6, 0.1), (1e-5, 0.3)]
    report = manifest["pairs"][0]
    assert manifest["horizon"] == 21
    cfg = load_config(TWO_OD)
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    expected = privacy_report(
        game, schedules, sigma=0.1, horizon=21, clip=2.0,
        delta_budget=1e-3, adjacency_radius=1e-6,
    )
    sens, eps = expected.sensitivities, expected.epsilons
    assert report["per_step"] == {
        "sensitivity": {"max": float(sens.max()), "min": float(sens.min())},
        "epsilon": {"max": float(eps.max()), "min": float(eps.min())},
        "delta": float(expected.deltas[0]),
        "valid_releases": int(expected.valid_steps.sum()),
    }
    assert manifest["constants"]["allocation_norm_bound"] == 2.0

    # The manifest's size does not grow with the horizon: each entry keeps a constant size.
    def key_tree(node):
        if isinstance(node, list):
            return [key_tree(v) for v in node]
        return {k: key_tree(v) for k, v in node.items()} if isinstance(node, dict) else None

    long_out = tmp_path / "long"
    code = main(["accountant", "--config", str(TWO_OD), "--T-range", "1:10000:10",
                 "--out", str(long_out)])
    assert code == 0
    long_path = long_out / "accountant_manifest.json"
    long_manifest = json.loads(long_path.read_text())
    assert long_manifest["horizon"] == 9991
    assert key_tree(long_manifest) == key_tree(manifest)
    echo = len(json.dumps(long_manifest["config"], indent=2, sort_keys=True))
    assert long_path.stat().st_size - echo < 2048 * len(long_manifest["pairs"])


@pytest.mark.parametrize("config, clip", [(TWO_OD, None), (PIGOU, None), (TWO_OD, 1.5)],
                         ids=["two_od", "pigou", "two_od-a-1.5"])
def test_accountant_files_agree(tmp_path, config, clip):
    # The shipped configs set a = 2.0, the default; 1.5 shows the config's value is the one used.
    if clip is not None:
        cfg = json.loads(config.read_text())
        cfg["privacy"]["a"] = clip
        config = tmp_path / "clip.json"
        config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    # The step does not divide the range, so the last horizon is 21, not the stop.
    code = main(["accountant", "--config", str(config), "--T-range", "1:23:5",
                 "--out", str(out)])
    assert code == 0
    with open(out / "accountant.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    manifest = json.loads((out / "accountant_manifest.json").read_text())
    effective = manifest["effective"]
    cfg = load_config(config)
    assert effective["a"] == cfg["privacy"]["a"] == (2.0 if clip is None else clip)
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    consts = SensitivityConstants.from_game(game, schedules)
    instance = {k: v for k, v in vars(consts).items() if k != "schedules"}

    entries = manifest["pairs"]
    assert [(e["c"], e["sigma"]) for e in entries] == privacy_pairs(cfg)
    assert manifest["horizon"] == 21
    assert manifest["constants"] == instance
    assert manifest["loss_dual_bound"] == consts.clipped_loss_bound(effective["a"])
    for entry in entries:
        c, sigma = entry["c"], entry["sigma"]
        last = [r for r in rows if (float(r["c"]), float(r["sigma"])) == (c, sigma)][-1]
        assert int(last["T"]) == 21
        assert entry["epsilon"] == float(last["epsilon"])
        assert entry["delta"] == float(last["delta"])
        assert entry["valid"] == (last["valid"] == "1")


def with_radius(tmp_path, config, c):
    """A copy of ``config`` whose privacy block has the one adjacency radius ``c``."""
    cfg = json.loads(config.read_text())
    cfg["privacy"]["c_adj"] = c
    path = tmp_path / "radius.json"
    path.write_text(json.dumps(cfg))
    return path


def test_accountant_zero_radius(tmp_path):
    path = with_radius(tmp_path, PIGOU, 0)
    code = main(["accountant", "--config", str(path), "--T-range", "1:3", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "accountant.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert all(float(row[3]) == 0.0 for row in rows[1:])


def test_accountant_single_step_equals_mechanism(tmp_path):
    from privroute.config import build_dynamics_from_config
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
    path = with_radius(tmp_path, TWO_OD, 1e-2)
    code = main(["accountant", "--config", str(path), "--T-range", "1:1001:500",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "accountant.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 3
    assert {row["delta"] for row in rows if row["T"] != "1"} == {"inf"}
    assert all(row["valid"] == "0" for row in rows)
    assert all(math.isfinite(float(row["epsilon"])) for row in rows)
    report = json.loads((tmp_path / "accountant_manifest.json").read_text())["pairs"][0]
    assert (report["c"], report["sigma"]) == (0.01, 0.1)
    assert report["trivial"] is True


def test_accountant_reversed_config_t_range_is_one_line_error(tmp_path, capsys):
    # A schema-valid range whose stop lies below its start.
    cfg = json.loads(PIGOU.read_text())
    cfg["privacy"]["T_range"] = [5, 2]
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(cfg))
    assert main(["accountant", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: config invalid at privacy/T_range: [5, 2] stops before it starts\n"
    assert not (tmp_path / "accountant.csv").exists()


def test_accountant_integral_float_config_t_range(tmp_path, capsys):
    # JSON Schema counts 1.0 as an integer, so the range is read as 1:10:3.
    cfg = json.loads(PIGOU.read_text())
    cfg["privacy"]["T_range"] = [1.0, 10.0, 3.0]
    path = tmp_path / "float_range.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["accountant", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "accountant.csv", newline="") as handle:
        assert [row["T"] for row in csv.DictReader(handle)] == ["1", "4", "7", "10"]
    manifest = json.loads((out / "accountant_manifest.json").read_text())
    assert manifest["effective"]["T_range"] == [1, 10, 3]


@pytest.mark.parametrize(
    "spec, message",
    [
        ("x:5", "bad T-range 'x:5'; expected integers start:stop[:step]"),
        ("1:5:2:3", "config invalid at privacy/T_range: [1, 5, 2, 3] has more than 3 items"),
        ("0:5", "config invalid at privacy/T_range/0: 0 is less than the minimum of 1"),
        ("3:4:0", "config invalid at privacy/T_range/2: 0 is less than the minimum of 1"),
        ("5:2", "config invalid at privacy/T_range: [5, 2] stops before it starts"),
        (f"{10**23 - 1}:{10**23 - 1}", "config invalid at privacy/T_range/0: "
         f"{10**23 - 1} is greater than the maximum of {2**53}"),
        (f"1:{2**63 - 2}", "config invalid at privacy/T_range/1: "
         f"{2**63 - 2} is greater than the maximum of {2**53}"),
    ],
    ids=["x:5", "1:5:2:3", "0:5", "3:4:0", "5:2", "10**23-1", "1:2**63-2"],
)
def test_accountant_bad_t_range_flag_is_one_line_error(tmp_path, capsys, monkeypatch, spec,
                                                       message):
    # The flag meets the schema like a config's T_range, before the game is built.
    def unreachable(*args, **kwargs):
        raise AssertionError("built the game for a range the schema refuses")

    monkeypatch.setattr(cli.config, "build_game_from_config", unreachable)
    out = tmp_path / "out"
    assert main(["accountant", "--config", str(PIGOU), "--T-range", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("radius", [-1, math.nan], ids=["-1", "nan"])
def test_accountant_bad_radius_is_one_line_error(tmp_path, capsys, radius):
    # The config is the one source of radii; privacy_curve's own rule is tested in test_privacy.
    path = with_radius(tmp_path, PIGOU, radius)
    out = tmp_path / "out"
    assert main(["accountant", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config invalid at privacy/c_adj: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_failing_accountant_leaves_earlier_output_alone(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    earlier = out / "accountant.csv"
    earlier.write_text("c,sigma,T,epsilon,delta,valid\n0.001,0.1,1,0.5,0.001,1\n")
    before = earlier.read_bytes()
    path = with_radius(tmp_path, PIGOU, 1e308)
    assert main(["accountant", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert earlier.read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["accountant.csv"]


@pytest.mark.parametrize("radius, spec", [("1e308", "1:50:10"), ("1e304", "1:5000:10")],
                         ids=["per-release", "composed"])
def test_accountant_overflowing_radius_is_one_line_error(tmp_path, capsys, radius, spec):
    # At 1e308 every sensitivity overflows; at 1e304 only the composed epsilon at T = 5000 does.
    out = tmp_path / "out"
    path = with_radius(tmp_path, PIGOU, float(radius))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["accountant", "--config", str(path), "--T-range", spec, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: epsilon overflows at c = {float(radius)!r}, sigma = 0.1\n"
    assert not out.exists()


def test_accountant_never_ending_range_fails_before_any_work(tmp_path, capsys, monkeypatch):
    # 10^6 horizons up to T = 10^6 are 10^12 units of curve work, beyond the 10^10 budget.
    from privroute import privacy

    def unreachable(*args, **kwargs):
        raise AssertionError("computed a curve over a range beyond the budget")

    monkeypatch.setattr(privacy, "_sensitivities", unreachable)
    out = tmp_path / "out"
    assert main(["accountant", "--config", str(TWO_OD), "--T-range", "1:1000000:1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: horizons x T_max = 1000000 x 1000000 exceeds the accountant's budget of "
        "10000000000\n")
    assert not out.exists()


def test_accountant_refuses_an_over_budget_range_before_allocating_it(tmp_path, capsys):
    # 3 x 10^7 horizons would take 240 MB as an array of horizons; the range's size and
    # last horizon are enough to refuse it.
    out = tmp_path / "out"
    argv = ["accountant", "--config", str(TWO_OD), "--T-range", "1:30000000:1", "--out", str(out)]
    main(argv)  # imports what the command loads, so the traced call below allocates only its own
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        "error: horizons x T_max = 30000000 x 30000000 exceeds the accountant's budget of "
        "10000000000\n")
    assert peak < 1_000_000, peak
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


def test_accountant_with_a_zero_gaussian_factor_is_quiet(tmp_path, capsys):
    # Per-release deltas 10 / T of at least 1.25 give ln(1.25 / delta) <= 0, so
    # the Gaussian factor is 0, every epsilon is 0 and every exp-sum term is 1.
    cfg = json.loads(PIGOU.read_text())
    cfg["privacy"] |= {"delta_budget": 10, "T_range": [1, 5]}
    path = tmp_path / "zero_factor.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["accountant", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "out" / "accountant.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(row["epsilon"]) for row in rows] == [0.0] * 5
    assert all(float(row["delta"]) == pytest.approx(10.0) for row in rows)


@pytest.mark.parametrize("radius", [1e-3, 0], ids=["shipped-radius", "zero-radius"])
def test_accountant_tiny_sigma_has_zero_tail_mass(tmp_path, capsys, radius):
    # 2 * sigma**2 underflows to 0 at sigma = 1e-200; so does the tail mass.
    cfg = json.loads(PIGOU.read_text())
    cfg["privacy"]["sigma"] = 1e-200
    cfg["privacy"]["c_adj"] = radius
    path = tmp_path / "tiny_sigma.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["accountant", "--config", str(path), "--T-range", "1:5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    with open(out / "accountant.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    epsilons = [float(row["epsilon"]) for row in rows]
    deltas = [float(row["delta"]) for row in rows]
    assert len(rows) == 5 and all(row["valid"] == "0" for row in rows)
    if radius == 0:
        assert epsilons == [0.0] * 5 and max(deltas) < 1.0
    else:
        assert all(1.0 < e < math.inf for e in epsilons)
        assert deltas[1:] == [math.inf] * 4
    (report,) = json.loads((out / "accountant_manifest.json").read_text())["pairs"]
    assert report["tail_delta"] == 0.0
    assert report["per_step"]["valid_releases"] == 0


def test_accountant_per_release_delta_underflow_is_one_line_error(tmp_path, capsys):
    path = write_delta_budget(tmp_path, 1e-320)
    code = main(["accountant", "--config", str(path), "--T-range", "1:10000:1000",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: per-release delta 1e-320 / T underflows to 0 at T = 5001\n"


@pytest.mark.parametrize(
    "edit, expected",
    [
        ({}, {(None, 8451), (None, 2201)}),
        ({"c_adj": 1e-3}, {(1, 51), (51, 51)}),
        ({"c_adj": 0}, {(1, None)}),
        # The first horizon's delta is then 1.0 exactly, which is trivial.
        ({"c_adj": 0, "delta_budget": 1}, {(1, 1)}),
    ],
    ids=["shipped", "invalid-first-release", "zero-radius", "delta-of-one"],
)
def test_accountant_manifest_diagnostics_match_csv(tmp_path, edit, expected):
    cfg = json.loads(TWO_OD.read_text())
    cfg["privacy"] |= edit
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["accountant", "--config", str(path), "--T-range", "1:10000:50", "--out", str(out)])
    assert code == 0
    with open(out / "accountant.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    diagnostics = json.loads((out / "accountant_manifest.json").read_text())["pairs"]
    assert [(d["c"], d["sigma"]) for d in diagnostics] == privacy_pairs(load_config(path))
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
    assert by_case == expected


def test_equilibrium_failure_is_one_line_error(monkeypatch, capsys):
    monkeypatch.setattr(cli.game, "MAX_ITERATIONS", 3)
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


def test_accountant_modulus_follows_the_geometry(tmp_path, capsys, monkeypatch):
    # Each population's modulus is its geometry's; the accountant's constants,
    # built without the geometries, take the smallest any geometry kind has.
    per_block = {"entropic": 0.375, "euclidean": 0.125}
    monkeypatch.setattr(BregmanGeometry, "strong_convexity",
                        property(lambda self: per_block[self.kind] / self.num_blocks))
    cfg = json.loads(TWO_OD.read_text())
    cfg["populations"][1]["geometry"] = "euclidean"
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(cfg))
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    assert SensitivityConstants.from_game(game, schedules).modulus_min == 0.0625
    assert main(["constants", "--config", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["moduli"] == [0.1875, 0.0625]


def test_constants_prints_the_geometry_derivation(capsys, monkeypatch):
    # The derivation printed beside each modulus is its geometry's own text.
    monkeypatch.setattr(BregmanGeometry, "modulus_derivation",
                        property(lambda self: f"{self.kind} on {self.num_blocks} blocks"))
    assert main(["constants", "--config", str(TWO_OD)]) == 0
    out = capsys.readouterr().out
    assert "population 0: strong-convexity modulus = 0.5  (entropic on 2 blocks)\n" in out
    assert "OD blocks for the summed norm" not in out


def test_constants_two_od(capsys):
    assert main(["constants", "--config", str(TWO_OD)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Every bound line, in print order, so reordering the declaration cannot shuffle it.
    assert lines[1:6] == [
        "incidence gain A_x = 2.668150422210142  (largest per-OD incidence spectral norm)",
        "allocation norm bound A_Delta = 2.0"
        "  (sum over OD pairs of the per-simplex vertex norm, 1 each)",
        "mass bound A_theta = 1.2  (declared mass_bound, else the largest OD mass)",
        "loss Lipschitz A_ell = 1.1670376055530354"
        "  (sum of incidence spectral norms times the worst cost slope)",
        "loss sup bound M = 1.948  (costliest path with the total mass on every edge)",
    ]


def test_constants_derive_a_declared_mass_bound(tmp_path, capsys):
    # pigou's largest OD mass is 1.0; a declared bound of 5.0 is printed as declared.
    cfg = json.loads(PIGOU.read_text()) | {"mass_bound": 5.0}
    path = tmp_path / "declared.json"
    path.write_text(json.dumps(cfg))
    assert main(["constants", "--config", str(path)]) == 0
    assert ("mass bound A_theta = 5.0  (declared mass_bound, else the largest OD mass)\n"
            in capsys.readouterr().out)


# Exact values, compared by repr: an ulp of drift in A_x or A_ell fails.
PINNED_CONSTANTS = {
    "pigou": {
        "allocation_norm_bound": 1.0, "incidence_gain": 1.000000000001,
        "loss_lipschitz": 1.000000000001, "loss_sup": 1.0, "mass_bound": 1.0,
        "moduli": [1.0], "paths_per_od": [2], "total_paths": 2,
    },
    "two_od": {
        "allocation_norm_bound": 2.0, "incidence_gain": 2.668150422210142,
        "loss_lipschitz": 1.1670376055530354, "loss_sup": 1.948, "mass_bound": 1.2,
        "moduli": [0.5, 0.5], "paths_per_od": [3, 2], "total_paths": 5,
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_CONSTANTS))
def test_constants_json_is_pinned(capsys, name):
    assert main(["constants", "--config", str(CONFIG_DIR / f"{name}.json"), "--json"]) == 0
    values = json.loads(capsys.readouterr().out)
    pinned = PINNED_CONSTANTS[name]
    assert {k: repr(v) for k, v in values.items()} == {k: repr(v) for k, v in pinned.items()}


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
def test_equilibrium_bad_tolerance_fails_fast(tol):
    # The command solves to EQUILIBRIUM_TOL; a library caller may pass its own tolerance.
    inst = build_game_from_config(load_config(PIGOU))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^tolerance must be positive$"):
        solve_equilibrium(inst, tol=float(tol))
    assert time.perf_counter() - start < 1.0


def test_equilibrium_command(capsys):
    assert main(["equilibrium", "--config", str(PIGOU), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["f_star"] == pytest.approx(0.5, abs=1e-4)
    assert payload["gap"] <= EQUILIBRIUM_TOL


def test_equilibrium_text_output_matches_json(capsys):
    assert main(["equilibrium", "--config", str(TWO_OD), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["equilibrium", "--config", str(TWO_OD)]) == 0
    f_star, *flows = capsys.readouterr().out.splitlines()
    assert f_star == (f"f_star = {payload['f_star']!r}  (gap {payload['gap']:.3e} "
                      f"after {payload['iterations']} iterations)")
    assert flows == [f"population {k} path flows: {np.round(row, 6).tolist()}"
                     for k, row in enumerate(payload["allocation"])]


def test_simulate_writes_into_the_working_directory_by_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--config", str(PIGOU), "--sigma", "0", "--runs", "1", "--T", "5"]
    assert main(args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ensemble_sigma_0.csv", "manifest_sigma_0.json",
    ]


@pytest.mark.parametrize("command", ["accountant", "simulate"])
def test_config_output_dir_is_one_line_error(tmp_path, monkeypatch, capsys, command):
    # The output directory is --out alone; the config key it once had is unknown.
    cfg = json.loads(PIGOU.read_text())
    cfg["output_dir"] = "runs"
    path = tmp_path / "old_key.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: config invalid at document root: "
        "additional properties are not allowed ('output_dir')\n"
    )
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "command, removed",
    [
        ("simulate", ("simulation", "slope_window")),
        ("equilibrium", ("simulation", "slope_window")),
        ("simulate", ("max_paths_per_od",)),
        ("equilibrium", ("max_paths_per_od",)),
        ("equilibrium", "--tol"),
        ("accountant", "--c"),
    ],
    ids=["simulate-slope_window", "equilibrium-slope_window", "simulate-max_paths_per_od",
         "equilibrium-max_paths_per_od", "equilibrium--tol", "accountant--c"],
)
def test_removed_settings_are_rejected(tmp_path, capsys, command, removed):
    # A removed setting is refused, not ignored.
    out = tmp_path / "out"
    args = ["--out", str(out)] if command != "equilibrium" else []
    if isinstance(removed, str):
        with pytest.raises(SystemExit) as info:
            # Before --config, an abbreviation of it would be overridden without a word.
            main([command, removed, "0", "--config", str(PIGOU), *args])
        assert info.value.code == 2
        assert f"unrecognized arguments: {removed} 0" in capsys.readouterr().err
    else:
        cfg = json.loads(PIGOU.read_text())
        *parents, key = removed
        node = cfg
        for name in parents:
            node = node[name]
        node[key] = {"slope_window": [50, 200], "max_paths_per_od": 10}[key]
        path = tmp_path / "removed.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), *args]) == 2
        location = "/".join(parents) or "document root"
        assert capsys.readouterr().err == (
            f"error: config invalid at {location}: "
            f"additional properties are not allowed ({key!r})\n"
        )
    assert not out.exists()


def loaded_modules(probe: str, *args: str) -> set[str]:
    """The ``privroute.*`` modules a fresh interpreter holds after running ``probe``."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    report = "print(*sorted(m for m in sys.modules if m.startswith('privroute.')))"
    probe = f"import sys\n{probe}\n{report}"
    result = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "command, args, modules",
    [
        ("simulate", ["--T", "5", "--runs", "1"], {"sim", "output"}),
        ("accountant", ["--T-range", "1:5"], {"privacy", "output"}),
        ("constants", [], {"privacy"}),
        ("equilibrium", [], set()),
    ],
    ids=["simulate", "accountant", "constants", "equilibrium"],
)
def test_each_command_loads_only_its_modules(tmp_path, command, args, modules):
    if command in ("simulate", "accountant"):
        args = [*args, "--out", str(tmp_path)]
    run = "from privroute import cli\nassert cli.main(sys.argv[1:]) == 0"
    loaded = loaded_modules(run, command, "--config", str(PIGOU), *args)
    base = {"cli", "config", "dynamics", "game", "network"}
    assert loaded == {f"privroute.{name}" for name in base | modules}


def test_importing_sim_does_not_load_privacy():
    assert "privroute.privacy" not in loaded_modules("import privroute.sim")


# ---------------------------------------------------------------- process entry


def _entry_env() -> dict:
    """The environment of a child that runs the process entry, with buffered output."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)  # so that the entry itself must flush what was printed
    return env


@pytest.mark.parametrize("broken, code", [(False, 0), (True, 2)], ids=["pigou", "unparsable"])
def test_process_entry_ends_the_process_without_teardown(tmp_path, capsys, broken, code):
    # In a child process, which run() ends; an atexit handler shows whether teardown ran.
    path = PIGOU
    if broken:
        path = tmp_path / "broken.json"
        path.write_text("{")
    probe = "import atexit\nfrom privroute import cli\natexit.register(print, 'teardown')\ncli.run()"
    result = subprocess.run([sys.executable, "-c", probe, "equilibrium", "--config", str(path)],
                            env=_entry_env(), capture_output=True, text=True)
    assert main(["equilibrium", "--config", str(path)]) == code
    assert (result.returncode, result.stdout, result.stderr) == (code, *capsys.readouterr())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_entry_reports_output_it_cannot_flush():
    # /dev/full refuses every write, so the entry's flush fails and the
    # interpreter's exit reports the lost output, as it does for any script.
    def to_full(*args):
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, *args], env=_entry_env(), stdout=full,
                                    stderr=subprocess.PIPE, text=True)
        return result.returncode, result.stderr

    script = to_full("-c", "print('f_star')")
    assert script[0] != 0 and "No space left on device" in script[1]
    assert to_full("-m", "privroute.cli", "equilibrium", "--config", str(PIGOU)) == script


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_script_is_the_process_entry():
    import tomllib

    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"privroute": "privroute.cli:run"}


@pytest.mark.parametrize(
    "command, config, args",
    [
        ("accountant", TWO_OD, ["--T-range", "1:2001:100"]),
        ("simulate", PIGOU, ["--T", "20", "--runs", "2", "--per-run"]),
    ],
    ids=["accountant", "simulate"],
)
def test_process_entry_writes_what_main_writes(tmp_path, command, config, args):
    argv = [command, "--config", str(config), *args]
    subprocess.run([sys.executable, "-m", "privroute.cli", *argv, "--out", str(tmp_path / "entry")],
                   env=_entry_env(), capture_output=True, check=True)
    assert main([*argv, "--out", str(tmp_path / "main")]) == 0

    def files(name):
        """Each file's lines, less the one that says when a manifest was written."""
        root = tmp_path / name
        return {str(p.relative_to(root)): [line for line in p.read_bytes().splitlines(True)
                                           if b'"created_at"' not in line]
                for p in root.rglob("*") if p.is_file()}

    entry = files("entry")
    assert any(name.endswith(".csv") for name in entry)
    assert entry == files("main")
