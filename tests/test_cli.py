import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from picardnet.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
)
from picardnet import cli
from picardnet.sde import NumericFailure


def write_config(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(args):
    return main(args)


def test_problems_subcommand(capsys):
    assert run(["problems"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert "ode-exp" in out and "heat" in out


def test_missing_config_is_config_error():
    assert run(["solve"]) == EXIT_CONFIG


def test_unknown_problem_exits_2(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"problem": "nope"})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"problem": "ode-exp", "bogus": 1})
    assert run(["solve", "--config", cfg]) == EXIT_CONFIG


def test_solve_deterministic_csv(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "ode-exp", "n": 3, "M": 3, "probes": [[0.0]],
         "time_grid": {"uniform_steps": 1}},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "--config", cfg, "--seed", "5", "--out", str(out1)]) == EXIT_OK
    assert run(["solve", "--config", cfg, "--seed", "5", "--out", str(out2)]) == EXIT_OK
    b1 = (out1 / "solve.csv").read_bytes()
    b2 = (out2 / "solve.csv").read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "t,x0,estimate,seed"
    assert len(lines) == 2


def test_solve_empty_probes_header_only(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"problem": "ode-exp", "n": 1, "M": 1,
                                            "probes": []})
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "solve.csv").read_text() == "t,x0,estimate,seed\n"


def test_level_guard_requires_force(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"problem": "ode-exp", "n": 6, "M": 6,
                                            "probes": []})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_build_verify_pass_report(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "relu-exact", "n": 1, "M": 1, "probes": [[0.1, -0.2], [0.5, 0.5]],
         "time_grid": {"uniform_steps": 2}, "serialize_network": True},
    )
    out = tmp_path / "o"
    assert run(["build-verify", "--config", cfg, "--seed", "9", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "build_verify.json").read_text())
    assert report["pass"] is True
    assert report["max_relative_deviation"] <= 1e-8
    assert report["params"]["actual"] <= report["params"]["bound"]
    payload = json.loads((out / "network.json").read_text())
    assert payload["provenance"]["seed"] == 9
    assert {"rows", "cols", "weights", "bias"} == set(payload["network"]["layers"][0])


def test_build_verify_reports_built_shape(tmp_path, monkeypatch):
    # a root that diverges from its prediction must show in the "actual" fields,
    # read off the layers build-verify streamed
    import dataclasses

    from picardnet import cli, extend_depth, max_width, sum_architecture, sum_networks

    real_root = cli.build_mlp_root
    seen = []

    def widened_root(*args, **kwargs):
        root = real_root(*args, **kwargs)
        wider = [extend_depth(sum_networks([0.5, 0.5], [net, net]), net.depth + 1)
                 for net in root.summands]
        seen.append((root.prediction, sum_architecture([net.widths for net in wider])))
        return dataclasses.replace(root, summands=wider)

    monkeypatch.setattr(cli, "build_mlp_root", widened_root)
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "relu-exact", "n": 1, "M": 1, "probes": [[0.1, -0.2]],
         "time_grid": {"uniform_steps": 2}},
    )
    out = tmp_path / "o"
    assert run(["build-verify", "--config", cfg, "--seed", "9", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "build_verify.json").read_text())
    [(prediction, arch)] = seen
    assert report["depth"] == {"actual": len(arch), "predicted": prediction.depth}
    assert report["depth"]["actual"] == prediction.depth + 1
    assert report["width"]["actual"] == max_width(arch) == 2 * prediction.width


def test_build_verify_zero_level(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "ode-exp", "n": 0, "M": 1, "probes": [[0.3]],
         "time_grid": {"uniform_steps": 1}},
    )
    out = tmp_path / "o"
    assert run(["build-verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "build_verify.json").read_text())
    assert report["max_relative_deviation"] == 0.0


def test_build_verify_oversize_exits_3(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "relu-exact", "n": 5, "M": 5,
         "time_grid": {"uniform_steps": 3125}},
    )
    out = tmp_path / "o"
    code = run(["build-verify", "--config", cfg, "--out", str(out), "--force"])
    assert code == EXIT_RESOURCE
    report = json.loads((out / "build_verify.json").read_text())
    assert report["error"] == "resource guard"


def test_build_verify_streams_the_root(tmp_path):
    # the stored relu-exact n=M=3 root takes 278 MB of dense layers; build-verify
    # realizes it without storing it, so its traced peak stays far below that
    import tracemalloc

    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "relu-exact", "dimension": 2, "n": 3, "M": 3, "probes": [[0.25, -0.5]],
         "time_grid": {"uniform_steps": 8}},
    )
    tracemalloc.start()
    try:
        code = run(["build-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 278e6 / 2


def test_build_verify_serialized_network_bytes(tmp_path, capsys):
    # SHA-256 of both files as the stored-root build wrote them
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "relu-exact", "n": 2, "M": 2, "probes": [[0.25, -0.5], [0.1, 0.3]],
         "time_grid": {"uniform_steps": 8}, "serialize_network": True},
    )
    out = tmp_path / "o"
    assert run(["build-verify", "--config", cfg, "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == '{"actual": 210587, "bound": 10288080, "pass": true}\n'
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("build_verify.json", "network.json")}
    assert digests == {
        "build_verify.json": "4a3c314ab00cb3e8b6975c57a857e4b3930a1c81f74800e7c128f4462cd78a27",
        "network.json": "409f8771e4514683a16977c34f18407890859123af2b3c6fb5b19c4977717be7",
    }


@pytest.mark.parametrize("config", [
    {"problem": "heat", "dimension": 100_000_000},
    {"problem": "heat", "dimension": 4097, "n": 6, "M": 6},
    {"problem": "heat", "sweep": "growth", "d_list": [1, 4097]},
])
def test_dimension_guard_refuses_before_building(tmp_path, monkeypatch, capsys, config):
    # one d x d float64 array of 4,097^2 values passes COEFFICIENT_BYTES_GUARD;
    # --force lifts only the cost guard
    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(cli, "catalog_entry", no_build)
    command = "sweep" if "sweep" in config else "solve"
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out), "--force"]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    d = config.get("dimension") or config["d_list"][-1]
    key = "dimension" if "dimension" in config else "d_list"
    assert f"resource guard: {key} = {d} needs {8 * d * d} bytes" in err
    assert str(cli.COEFFICIENT_BYTES_GUARD) in err
    assert not out.exists()


def test_dimension_guard_admits_the_bound(tmp_path, monkeypatch, capsys):
    # d = 4,096 is exactly the bound: the config reaches the cost guard, which
    # refuses n = M = 6 before any problem is built
    assert 8 * 4096**2 == cli.COEFFICIENT_BYTES_GUARD

    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(cli, "catalog_entry", no_build)
    cfg = write_config(tmp_path, "c.json",
                       {"problem": "heat", "dimension": 4096, "n": 6, "M": 6})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "over the cost guard" in capsys.readouterr().err


def test_build_verify_inexact_encoding_exits_4(tmp_path):
    # the squared-norm terminal has only a delta-controlled encoding, so
    # the realization misses the estimator by about delta and the check fails
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "heat", "n": 1, "M": 1, "probes": [[0.4, -0.4]],
         "time_grid": {"uniform_steps": 1}},
    )
    out = tmp_path / "o"
    assert run(["build-verify", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    report = json.loads((out / "build_verify.json").read_text())
    assert report["pass"] is False
    assert report["max_relative_deviation"] > 1e-8


def test_sweep_fullerror_grid_rows(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "ode-exp", "sweep": "fullerror",
         "level_grid": [[1, 1], [1, 2], [2, 1], [2, 2]],
         "time_grid": {"uniform_steps": 1}, "seeds": 5, "probes": [[0.0]]},
    )
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "fullerror.csv").read_text().strip().split("\n")
    assert len(lines) == 5  # header + 4 rows
    summary = json.loads((out / "fullerror_summary.json").read_text())
    assert summary["pass"] is True and summary["check"] == "fullerror"


def test_sweep_fullerror_refuses_a_second_probe(tmp_path, capsys):
    # its CSV has no probe column, and the cost guard prices one row
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "ode-exp", "sweep": "fullerror", "level_grid": [[1, 1]],
         "seeds": 2, "probes": [[0.5], [3.0]]},
    )
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "probes" in err and "sweep fullerror" in err
    assert not (tmp_path / "o").exists()


def test_sweep_growth_columns(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "heat", "sweep": "growth", "d_list": [1, 2],
         "eps_list": [0.4, 0.2], "recipe": "desk"},
    )
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header = (out / "growth.csv").read_text().split("\n")[0].split(",")
    assert {"d", "eps", "params", "param_bound"} <= set(header)
    summary = json.loads((out / "growth_summary.json").read_text())
    assert summary["pass"] is True
    assert any(k.startswith("d-exponent") for k in summary["fits"])


def test_sweep_lyapunov_passes(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "heat", "dimension": 1, "sweep": "lyapunov",
         "probes": [[0.0]], "paths": 2000},
    )
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "lyapunov.csv").read_text().strip().split("\n")
    assert rows[-1].endswith("True")


def test_sweep_perturbation_passes(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"problem": "heat", "dimension": 2, "sweep": "perturbation", "paths": 500},
    )
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "perturbation_summary.json").read_text())
    assert summary["pass"] is True


@pytest.mark.parametrize("payload", [
    {"problem": "nonexistent", "sweep": "perturbation"},
    {"problem": "relu-exact", "sweep": "perturbation"},
    {"problem": "nonexistent", "sweep": "growth", "d_list": [1]},
    {"problem": "nonexistent", "sweep": "growth", "d_list": []},
])
def test_sweep_on_a_problem_it_cannot_run_is_config_error(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and repr(payload["problem"]) in err
    assert not (tmp_path / "o").exists()


def test_exit_codes_exported():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE, EXIT_CHECK_FAILED, EXIT_INTERNAL) == (
        0, 2, 3, 4, 5)


def test_numeric_failure_exits_internal(tmp_path, monkeypatch, capsys):
    def diverge(problem, config, path, t, x):
        raise NumericFailure("state non-finite at time 0.5", path)

    monkeypatch.setattr(cli, "mlp_estimate", diverge)
    cfg = write_config(tmp_path, "c.json", {"problem": "ode-exp", "probes": [[0.0]]})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_INTERNAL
    assert "NumericFailure" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"problem": "relu-exact", "n": 5, "M": 5, "time_grid": {"uniform_steps": 8}},
    {"problem": "relu-exact", "n": 4, "M": 4},
    {"problem": "relu-exact", "sweep": "fullerror", "level_grid": [[4, 4], [3, 3]], "seeds": 1},
])
def test_cost_guard_admits_affordable_runs(payload):
    command = "sweep" if "sweep" in payload else "solve"
    cli._guard_work(cli._resolve(payload, command), command)


def test_cost_guard_prices_one_walk_for_all_probes(monkeypatch):
    # 200 rows x 4916 paths x 8 steps + 9 x 7528 substreams + 8 grid steps; priced
    # as 200 estimates, one per probe, the same run would cost 21,416,008
    payload = cli._resolve({"problem": "relu-exact", "n": 4, "M": 4,
                            "time_grid": {"uniform_steps": 8}, "probes": [[0.0, 0.0]] * 200},
                           "solve")
    cli._guard_work(payload, "solve")
    monkeypatch.setattr(cli, "WORK_GUARD", 7_933_359)
    with pytest.raises(cli.ConfigError) as err:
        cli._guard_work(payload, "solve")
    assert "times 1 estimate of 200 rows: 7933360 path-steps" in str(err.value)


@pytest.mark.parametrize("payload, counts", [
    ({"problem": "relu-exact", "n": 3, "M": 7}, "2947 Euler paths and 4473 substreams"),
    ({"problem": "relu-exact", "n": 5, "M": 5}, "121330 Euler paths and 185035 substreams"),
    ({"problem": "relu-exact", "n": 6, "M": 6, "time_grid": {"uniform_steps": 1}},
     "3651594 Euler paths and 5553588 substreams"),
    ({"problem": "ode-exp", "n": 2, "M": 10}, "on 10000000000 grid steps"),
    ({"problem": "ode-exp", "sweep": "fullerror", "level_grid": [[1, 1], [6, 6]],
      "time_grid": {"uniform_steps": 1}}, "n=6, M=6"),
    ({"problem": "relu-exact", "sweep": "fullerror", "level_grid": [[4, 4], [3, 3]]},
     "on 256 grid steps, times 30 estimates"),
])
def test_cost_guard_refuses_predicted_work(tmp_path, capsys, monkeypatch, payload, counts):
    def admitted(*args):  # never run these configs: the default grids alone are huge
        raise AssertionError("the cost guard admitted the run")

    monkeypatch.setattr(cli, "cmd_solve", admitted)
    monkeypatch.setattr(cli, "cmd_sweep", admitted)
    cfg = write_config(tmp_path, "c.json", {**payload, "probes": []})
    command = "sweep" if "sweep" in payload else "solve"
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert counts in err and "--force" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, payload, counts", [
    ("solve", {"problem": "relu-exact", "time_grid": {"uniform_steps": 2_000_000}},
     "n=2, M=2 predicts 18 Euler paths and 28 substreams per estimate"),
    ("build-verify", {"problem": "relu-exact", "time_grid": {"uniform_steps": 10_000_000}},
     "n=1, M=1 predicts 2 Euler paths and 3 substreams per estimate"),
    # the probe cases keep ids that name their probe count; all probes share one walk
    pytest.param("solve", {"problem": "relu-exact", "n": 4, "M": 4, "probes": [[0.0, 0.0]] * 16},
                 "times 1 estimate of 16 rows", id="solve-payload2-times 16 estimates"),
    pytest.param("build-verify", {"problem": "relu-exact", "n": 2, "M": 2,
                                  "probes": [[0.0, 0.0]] * 3,
                                  "time_grid": {"uniform_steps": 500_000}},
                 "times 1 estimate of 3 rows", id="build-verify-payload3-times 3 estimates"),
    ("sweep", {"problem": "relu-exact", "sweep": "fullerror",
               "time_grid": {"uniform_steps": 50_000}}, "n=2, M=2"),
])
def test_cost_guard_prices_what_the_command_runs(command, payload, counts):
    # each is admitted when priced as one estimate at the config's own n and M
    resolved = cli._resolve(payload, command)
    with pytest.raises(cli.ConfigError) as err:
        cli._guard_work(resolved, command)
    assert counts in str(err.value)


# the levels each command reads, so that a config error comes from the key under test
LEVELS = {
    "solve": {"n": 1, "M": 1},
    "build-verify": {"n": 1, "M": 1},
    "sweep": {"sweep": "fullerror", "level_grid": [[1, 1]], "seeds": 2},
}


@pytest.mark.parametrize("command, time_grid", [
    ("solve", {}),
    ("solve", {"uniform_steps": 2, "points": [0.0, 1.0]}),
    ("solve", {"points": [0.5, 1.0]}),
    ("build-verify", {"points": [0.0, 0.7, 0.2, 1.0]}),
    ("sweep", {"points": [0.5, 1.0]}),
    # the last point must be the horizon 1.0, or the builder and the estimator disagree on T
    ("solve", {"points": [0.0, 0.5, 2.0]}),
    ("build-verify", {"points": [0.0, 0.5, 2.0]}),
    ("sweep", {"points": [0.0, 0.5, 2.0]}),
    ("solve", {"points": [0.0, 0.5]}),
    ("build-verify", {"points": [0.0, 0.5]}),
    ("sweep", {"points": [0.0, 0.5]}),
])
def test_bad_time_grid_is_config_error(tmp_path, capsys, command, time_grid):
    cfg = write_config(tmp_path, "c.json", {"problem": "ode-exp", "probes": [[0.0]],
                                            **LEVELS[command], "time_grid": time_grid})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "time_grid" in err


def test_grid_off_the_horizon_names_its_last_point_and_the_horizon():
    with pytest.raises(cli.ConfigError, match=r"last point 0\.5 is not the horizon 1\.0"):
        cli._time_grid({"time_grid": {"points": [0.0, 0.5]}}, 1.0, 1)


@pytest.mark.parametrize("command", ["solve", "build-verify", "sweep"])
def test_start_time_past_horizon_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.json", {"problem": "relu-exact", "t": 1.5, **LEVELS[command]})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "t = 1.5" in err and "T = 1.0" in err


def test_seed_key_is_rejected(tmp_path):
    # --seed is the one way to set the master seed
    cfg = write_config(tmp_path, "c.json", {"problem": "ode-exp", "seed": 5, "probes": []})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("name, key, value", [
    ("solve", "seeds", 3),
    ("solve", "paths", 1000),
    ("solve", "recipe", "desk"),
    ("solve", "serialize_network", True),
    ("solve", "d_list", [1]),
    ("solve", "sweep", "growth"),
    ("sweep growth", "dimension", 2),
    ("sweep growth", "t", 0.5),
    ("sweep growth", "probes", [[0.0]]),
    ("sweep perturbation", "probes", [[5.0, 5.0]]),
    ("sweep perturbation", "t", 0.5),
    ("sweep perturbation", "time_grid", {"uniform_steps": 2}),
    ("sweep lyapunov", "t", 0.5),
    ("sweep lyapunov", "time_grid", {"uniform_steps": 2}),
])
def test_a_key_the_command_does_not_read_is_config_error(tmp_path, capsys, name, key, value):
    command, _, kind = name.partition(" ")
    payload = {"problem": "heat", **({"sweep": kind} if kind else {}), key: value}
    cfg = write_config(tmp_path, "c.json", payload)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {name} does not read {key}\n"
    assert not (tmp_path / "o").exists()


class RecordingConfig(dict):
    """A resolved config that records the keys read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# a small run of each row of cli.READS that reaches every key the row holds
SMALL_RUNS = {
    "solve": {"problem": "relu-exact", "n": 1, "M": 1, "time_grid": {"uniform_steps": 2},
              "probes": [[0.1, -0.2]]},
    "build-verify": {"problem": "relu-exact", "n": 1, "M": 1,
                     "time_grid": {"uniform_steps": 2}, "probes": [[0.1, -0.2]]},
    "sweep fullerror": {"problem": "ode-exp", "sweep": "fullerror", "level_grid": [[1, 1]],
                        "seeds": 2},
    "sweep lyapunov": {"problem": "heat", "dimension": 1, "sweep": "lyapunov", "paths": 200},
    "sweep growth": {"problem": "heat", "sweep": "growth", "recipe": "paper", "d_list": [1],
                     "eps_list": [0.5]},
    "sweep perturbation": {"problem": "heat", "sweep": "perturbation", "paths": 200},
}


@pytest.mark.parametrize("name", SMALL_RUNS)
def test_each_command_reads_every_key_of_its_row(tmp_path, monkeypatch, name):
    resolved = []
    resolve = cli._resolve

    def recording(cfg, command):
        resolved.append(RecordingConfig(resolve(cfg, command)))
        return resolved[-1]

    monkeypatch.setattr(cli, "_resolve", recording)
    cfg = write_config(tmp_path, "c.json", SMALL_RUNS[name])
    code = run([name.split()[0], "--config", cfg, "--out", str(tmp_path / "o")])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    [read] = [r.read for r in resolved]
    assert read == set(cli.READS[name])
    assert set(SMALL_RUNS) == set(cli.READS)


def test_level_grid_base_zero_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"problem": "ode-exp", "sweep": "fullerror", "level_grid": [[1, 0]]})
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: level_grid/0/1: 0 is less than the minimum of 1" in err


@pytest.mark.parametrize("problem, delta_target, message", [
    ("relu-exact", -1.0, "delta_target: -1.0 is less than the minimum of 0"),
    ("heat", -1.0, "delta_target: -1.0 is less than the minimum of 0"),
    # heat's squared-norm terminal has no exact encoding; the message gives the achievable one
    ("heat", 0.0, "delta_target = 0.0: squared-norm terminal admits no exact encoding; "
                  "achievable deviation at 64 pieces is"),
])
def test_bad_delta_target_is_config_error(tmp_path, capsys, problem, delta_target, message):
    cfg = write_config(tmp_path, "c.json", {"problem": problem, "n": 1, "M": 1,
                                            "time_grid": {"uniform_steps": 1},
                                            "delta_target": delta_target})
    out = tmp_path / "o"
    assert run(["build-verify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_and_golden_configs_are_accepted(monkeypatch):
    # a config the benchmark runs that its command refused would fail every operation
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.syspath_prepend(str(root / "bench"))
    workloads = importlib.import_module("workloads")
    mc = importlib.import_module("mc")
    from test_golden import SWEEP_OUTPUTS

    runs = [(w.command[0], config) for w in workloads.WORKLOADS.values()
            if isinstance(w, workloads.CliWorkload)
            for config, _ in w.configs(np.random.default_rng(0))]
    runs += [("sweep", config) for config, *_ in [*mc.SWEEPS.values(), *SWEEP_OUTPUTS]]
    assert {command for command, _ in runs} == {"solve", "build-verify", "sweep"}
    for command, config in runs:
        cli._resolve(config, command)


# (command, config, the key path its message must name): configs refused for a
# value of the wrong type or out of bounds, a missing problem or a non-object
ODE = {"problem": "ode-exp"}
REFUSED = [
    ("solve", {**ODE, "dimension": "1"}, "dimension"),
    ("solve", {**ODE, "dimension": 1.5}, "dimension"),
    ("solve", {**ODE, "dimension": 0}, "dimension"),
    ("solve", {**ODE, "n": "1"}, "n"),
    ("solve", {**ODE, "n": -1}, "n"),
    ("solve", {**ODE, "n": True}, "n"),
    ("solve", {**ODE, "M": [1]}, "M"),
    ("solve", {**ODE, "M": 0}, "M"),
    ("solve", {**ODE, "time_grid": [1]}, "time_grid"),
    ("solve", {**ODE, "time_grid": {}}, "time_grid"),
    ("solve", {**ODE, "time_grid": {"uniform_steps": 2, "points": [0.0, 1.0]}}, "time_grid"),
    ("solve", {**ODE, "time_grid": {"steps": 2}}, "time_grid"),
    ("solve", {**ODE, "time_grid": {"uniform_steps": "2"}}, "time_grid/uniform_steps"),
    ("solve", {**ODE, "time_grid": {"uniform_steps": 0}}, "time_grid/uniform_steps"),
    ("solve", {**ODE, "time_grid": {"points": 1.0}}, "time_grid/points"),
    ("solve", {**ODE, "time_grid": {"points": [0.0, "1"]}}, "time_grid/points/1"),
    ("solve", {**ODE, "t": "0"}, "t"),
    ("solve", {**ODE, "t": -0.5}, "t"),
    ("solve", {**ODE, "probes": [0.0]}, "probes/0"),
    ("solve", {**ODE, "probes": [[True]]}, "probes/0/0"),
    ("build-verify", {**ODE, "delta_target": "0"}, "delta_target"),
    ("build-verify", {**ODE, "delta_target": -1}, "delta_target"),
    ("build-verify", {**ODE, "serialize_network": 1}, "serialize_network"),
    ("build-verify", {**ODE, "serialize_network": "true"}, "serialize_network"),
    ("sweep", {**ODE, "level_grid": 1}, "level_grid"),
    ("sweep", {**ODE, "level_grid": [1]}, "level_grid/0"),
    ("sweep", {**ODE, "level_grid": [[1, 1], [1, 1, 1]]}, "level_grid/1"),
    ("sweep", {**ODE, "level_grid": [[-1, 1]]}, "level_grid/0/0"),
    ("sweep", {**ODE, "level_grid": [[1, 0]]}, "level_grid/0/1"),
    ("sweep", {**ODE, "level_grid": [[1, 1.5]]}, "level_grid/0/1"),
    ("sweep", {**ODE, "seeds": "2"}, "seeds"),
    ("sweep", {**ODE, "seeds": 0}, "seeds"),
    ("sweep", {**ODE, "sweep": "growth", "d_list": 1}, "d_list"),
    ("sweep", {**ODE, "sweep": "growth", "d_list": [1, 0]}, "d_list/1"),
    ("sweep", {**ODE, "sweep": "growth", "eps_list": 0.5}, "eps_list"),
    ("sweep", {**ODE, "sweep": "growth", "eps_list": ["0.5"]}, "eps_list/0"),
    ("sweep", {**ODE, "sweep": "growth", "recipe": 1}, "recipe"),
    ("sweep", {**ODE, "sweep": "growth", "recipe": "fast"}, "recipe"),
    ("sweep", {**ODE, "sweep": "lyapunov", "paths": 1000.5}, "paths"),
    ("sweep", {**ODE, "sweep": "perturbation", "paths": 99}, "paths"),
    ("solve", {"problem": 1}, "problem"),
    ("solve", {"problem": "nope"}, "problem"),
    ("sweep", {**ODE, "sweep": "bogus"}, "sweep"),
    ("sweep", {**ODE, "sweep": ["growth"]}, "sweep"),
    ("solve", {"n": 1}, "problem"),
    ("sweep", {"sweep": "growth"}, "problem"),
    ("solve", [ODE], "object"),
    ("build-verify", None, "object"),
    ("sweep", "fullerror", "object"),
]


@pytest.mark.parametrize("command, payload, key", REFUSED)
def test_a_config_of_the_wrong_type_or_bound_is_config_error(tmp_path, capsys, command,
                                                              payload, key):
    cfg = write_config(tmp_path, "c.json", payload)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and "does not read" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, payload, key", [
    # integer-valued floats are no integers
    ("solve", {"n": 2.0}, "n"),
    ("sweep", {"sweep": "perturbation", "paths": 100.0}, "paths"),
    ("solve", {"time_grid": {"uniform_steps": 1.0}}, "time_grid/uniform_steps"),
    ("sweep", {"sweep": "fullerror", "level_grid": [[1.0, 1]]}, "level_grid/0/0"),
    # a sweep must measure something
    ("sweep", {"sweep": "growth", "eps_list": [0.0]}, "eps_list/0"),
    ("sweep", {"sweep": "growth", "eps_list": [0.5, -0.5]}, "eps_list/1"),
    ("sweep", {"sweep": "growth", "eps_list": []}, "eps_list"),
    ("sweep", {"sweep": "growth", "d_list": []}, "d_list"),
    ("sweep", {"sweep": "fullerror", "level_grid": []}, "level_grid"),
])
def test_a_value_json_schema_let_through_is_config_error(tmp_path, capsys, command, payload,
                                                          key):
    cfg = write_config(tmp_path, "c.json", {"problem": "heat", **payload})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, problem, text", [
    ("solve", "ode-exp", '"time_grid": {"points": [0.0, NaN, 1.0]}'),
    ("solve", "ode-exp", '"probes": [[NaN]]'),
    ("solve", "ode-exp", '"probes": [[Infinity]]'),
    ("build-verify", "heat", '"delta_target": NaN'),
    ("build-verify", "heat", '"delta_target": Infinity'),
    ("solve", "ode-exp", '"t": -Infinity'),
    ("solve", "ode-exp", '"probes": [[1e400]]'),  # a literal that overflows to inf
])
def test_a_non_finite_number_is_config_error(tmp_path, capsys, command, problem, text):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"problem": "%s", "n": 1, "M": 1, %s}' % (problem, text))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_importing_the_cli_does_not_import_jsonschema():
    code = "import sys, picardnet.cli; print('jsonschema' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "False\n"
