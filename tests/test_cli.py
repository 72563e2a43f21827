import json
from pathlib import Path

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
    # a build that diverges from its prediction must show in the "actual" fields
    import dataclasses

    from picardnet import architecture, cli, extend_depth, max_width, sum_networks

    real_build = cli.build_mlp_network
    seen = []

    def widened_build(*args, **kwargs):
        built = real_build(*args, **kwargs)
        net = built.network
        wider = extend_depth(sum_networks([0.5, 0.5], [net, net]), net.depth + 1)
        seen.append((built.prediction, architecture(wider)))
        return dataclasses.replace(built, network=wider)

    monkeypatch.setattr(cli, "build_mlp_network", widened_build)
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
    cli._guard_work(payload, "sweep" if "sweep" in payload else "solve")


def test_cost_guard_prices_one_walk_for_all_probes(monkeypatch):
    # 200 rows x 4916 paths x 8 steps + 9 x 7528 substreams + 8 grid steps; priced
    # as 200 estimates, one per probe, the same run would cost 21,416,008
    payload = {"problem": "relu-exact", "n": 4, "M": 4, "time_grid": {"uniform_steps": 8},
               "probes": [[0.0, 0.0]] * 200}
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
    with pytest.raises(cli.ConfigError) as err:
        cli._guard_work(payload, command)
    assert counts in str(err.value)


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
    cfg = write_config(tmp_path, "c.json",
                       {"problem": "ode-exp", "n": 1, "M": 1, "probes": [[0.0]],
                        "sweep": "fullerror", "level_grid": [[1, 1]], "seeds": 2,
                        "time_grid": time_grid})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_grid_off_the_horizon_names_its_last_point_and_the_horizon():
    with pytest.raises(cli.ConfigError, match=r"last point 0\.5 is not the horizon 1\.0"):
        cli._time_grid({"time_grid": {"points": [0.0, 0.5]}}, 1.0, 1)


@pytest.mark.parametrize("command", ["solve", "build-verify", "sweep"])
def test_start_time_past_horizon_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.json",
                       {"problem": "relu-exact", "n": 1, "M": 1, "t": 1.5,
                        "sweep": "fullerror", "level_grid": [[1, 1]], "seeds": 2})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "t = 1.5" in err and "T = 1.0" in err


def test_seed_key_is_rejected(tmp_path):
    # --seed is the one way to set the master seed
    cfg = write_config(tmp_path, "c.json", {"problem": "ode-exp", "seed": 5, "probes": []})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
