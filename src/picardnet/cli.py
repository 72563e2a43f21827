"""Batch experiment runner: solve, build-verify and sweep subcommands.

Experiments are driven by a JSON config, checked against two tables.
``READS`` gives the keys each command (each sweep by its kind) reads and
the value it runs when the config leaves a key out; a key the command does
not read, or a required key left out, is rejected.  ``TYPES`` gives each
key's type and bound.  Outputs are CSV files with '.' decimals, LF line
endings and 17-significant-digit floats, plus JSON summaries, so reruns
with the same config and seed are byte-identical.

Exit codes: 0 success, 2 config error (including a non-finite number, a
bad time grid, and the cost guard: a config whose predicted estimator work exceeds
``WORK_GUARD`` runs only with --force), 3 resource guard (a build over
``builder.PARAM_GUARD``, or a dimension over ``COEFFICIENT_BYTES_GUARD``;
--force lifts neither), 4 a check ran and failed, 5 internal error (any
other exception, such as a non-finite simulated state, NumericFailure; the
message names the exception type).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .analysis import (
    fullerror_check,
    growth_fit,
    desk_growth_recipe,
    lyapunov_check,
    suggest_lyapunov_constants,
    paper_growth_recipe,
    perturbation_check,
)
from .builder import BuildSizeError, build_mlp_root
from .indexrng import FrozenSample
from .mlp import ROOT_PATH, MlpConfig, mlp_estimate, predict_work
from .nets import max_width, network_to_dict, param_count_of, realize_sum, sum_networks
from .problems import (FACTORIES, EncodingError, catalog_entry, drift_shifted_heat,
                       network_encodings)
from .sde import SimulationError, TimeGrid, uniform_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_CHECK_FAILED = 4
EXIT_INTERNAL = 5

# Cost of a run in Euler path-steps: per walk of the Picard tree, each row's
# path-steps (every path is priced at the full grid) and SUBSTREAM_PATH_STEPS
# per keyed substream, drawn once for all rows; times the walks the command
# runs at that (n, M); plus each grid step, since the grid is built once per
# (n, M).  Measured on a 2-CPU Xeon at relu-exact d=2, n=M=4, one row, on 1, 8
# and 64 steps (least squares over the three grids, five seeds each, six runs):
# 18.6-26.2 us per substream and 2.0-3.2 us per path-step, a ratio of 8.3-9.8.
# WORK_GUARD, 50-95 s at the costs of 2.4-4.8 us per path-step measured
# earlier, admits one n=M=5 estimate on 8 steps and one n=M=4 on 256 steps.
SUBSTREAM_PATH_STEPS = 9
WORK_GUARD = 20_000_000

# Every catalog problem holds d x d float64 coefficient arrays (heat's
# sqrt(2) I, its zero drift and their networks: about a dozen), so a config
# may ask for no dimension whose one such array exceeds this many bytes
# (128 MiB, d = 4,096).  At 1 GiB a heat solve allocated 7.9 GB before an
# 8 GB host killed it.
COEFFICIENT_BYTES_GUARD = 1 << 27


class ConfigError(ValueError):
    pass


class ResourceError(RuntimeError):
    """A config asks for more memory than a resource guard allows."""


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])


def _write_check(out_dir: Path, header: list[str], report) -> int:
    """Write <check>.csv and <check>_summary.json; the exit code follows the verdict."""
    write_csv(out_dir / f"{report.check}.csv", header,
              [[r[k] for k in header] for r in report.rows])
    (out_dir / f"{report.check}_summary.json").write_text(json.dumps(report.summary()))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _entry(cfg: dict):
    d = cfg["dimension"]
    return catalog_entry(cfg["problem"]) if d is None else catalog_entry(cfg["problem"], d=d)


def _grid_steps(cfg: dict, M: int) -> int:
    """Steps of a run's Euler grid, read from the config without building it."""
    spec = cfg["time_grid"]
    if "points" in spec:
        return len(spec["points"]) - 1
    return spec.get("uniform_steps", M**M)


def _time_grid(cfg: dict, horizon: float, M: int) -> TimeGrid:
    spec = cfg["time_grid"]
    try:
        if "points" not in spec:
            return uniform_grid(horizon, _grid_steps(cfg, M))
        grid = TimeGrid(tuple(spec["points"]))
    except SimulationError as exc:
        raise ConfigError(f"time_grid: {exc}") from exc
    if grid.horizon != horizon:
        raise ConfigError(f"time_grid: last point {grid.horizon} is not the horizon {horizon}")
    return grid


def _start_time(cfg: dict, horizon: float) -> float:
    t = cfg["t"]
    if not 0.0 <= t <= horizon:
        raise ConfigError(f"t = {t} is outside [0, T] for the horizon T = {horizon}")
    return t


def _probes(cfg: dict, d: int) -> list[np.ndarray]:
    for p in cfg["probes"]:
        if len(p) != d:
            raise ConfigError(f"probe {p} has wrong dimension (want {d})")
    return [np.asarray(p, dtype=np.float64) for p in cfg["probes"]]


def _planned_walks(cfg: dict, command: str) -> tuple[list[tuple[int, int]], int, int]:
    """The (n, M) pairs a command estimates at, its walks per pair, and rows per walk.

    ``solve`` and ``build-verify`` walk the Picard tree once, carrying every
    probe as a row; ``sweep fullerror`` walks it once per seed, with one row,
    at each pair of its level grid; the other sweeps run none.
    """
    if command != "sweep":
        return [(cfg["n"], cfg["M"])], 1, max(1, len(cfg["probes"]))
    if cfg["sweep"] != "fullerror":
        return [], 0, 0
    return [tuple(pair) for pair in cfg["level_grid"]], cfg["seeds"], 1


def _guard_work(cfg: dict, command: str) -> None:
    """Refuse every (n, M) the command runs whose predicted cost exceeds WORK_GUARD."""
    pairs, walks, rows = _planned_walks(cfg, command)
    for n, M in pairs:
        paths, substreams = predict_work(n, M)
        steps = _grid_steps(cfg, M)
        cost = walks * (rows * paths * steps + SUBSTREAM_PATH_STEPS * substreams) + steps
        if cost > WORK_GUARD:
            raise ConfigError(
                f"n={n}, M={M} predicts {paths} Euler paths and {substreams} substreams "
                f"per estimate on {steps} grid steps, times {walks} "
                f"estimate{'s' if walks != 1 else ''} of {rows} row{'s' if rows != 1 else ''}: "
                f"{cost} path-steps, over the cost guard {WORK_GUARD}; pass --force"
            )


def _guard_memory(cfg: dict) -> None:
    """Refuse a dimension whose d x d float64 coefficient array exceeds
    COEFFICIENT_BYTES_GUARD, before any problem is built."""
    for key in ("dimension", "d_list"):
        value = cfg.get(key)
        for d in value if isinstance(value, list) else [value]:
            if d is not None and 8 * d * d > COEFFICIENT_BYTES_GUARD:
                raise ResourceError(
                    f"{key} = {d} needs {8 * d * d} bytes for one d x d float64 "
                    f"coefficient array, over the bound COEFFICIENT_BYTES_GUARD = "
                    f"{COEFFICIENT_BYTES_GUARD} bytes")


def cmd_solve(cfg: dict, seed: int, out_dir: Path) -> int:
    problem = _entry(cfg).problem
    grid = _time_grid(cfg, problem.horizon, cfg["M"])
    t = _start_time(cfg, problem.horizon)
    probes = _probes(cfg, problem.d)
    config = MlpConfig(cfg["n"], cfg["M"], grid, FrozenSample(seed))
    estimates = mlp_estimate(problem, config, ROOT_PATH, t, np.reshape(probes, (-1, problem.d)))
    rows = [[t, *probe.tolist(), u, seed] for probe, u in zip(probes, estimates.tolist())]
    header = ["t", *[f"x{i}" for i in range(problem.d)], "estimate", "seed"]
    write_csv(out_dir / "solve.csv", header, rows)
    return EXIT_OK


def cmd_build_verify(cfg: dict, seed: int, out_dir: Path) -> int:
    problem = _entry(cfg).problem
    grid = _time_grid(cfg, problem.horizon, cfg["M"])
    t = _start_time(cfg, problem.horizon)
    try:
        networks = network_encodings(problem, cfg["delta_target"])
    except EncodingError as exc:
        raise ConfigError(f"delta_target = {cfg['delta_target']}: {exc}") from exc
    config = MlpConfig(cfg["n"], cfg["M"], grid, FrozenSample(seed))
    try:
        root = build_mlp_root(networks, config, ROOT_PATH, t)
    except BuildSizeError as exc:
        report = {"error": "resource guard", **exc.report}
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "build_verify.json").write_text(json.dumps(report, indent=2))
        print(json.dumps(report, indent=2))
        return EXIT_RESOURCE

    probes = _probes(cfg, problem.d) or [np.zeros(problem.d)]
    estimates = mlp_estimate(problem, config, ROOT_PATH, t, np.array(probes)).tolist()
    # each probe realized on its own, with the bits of a point-wise realize
    realized, arch = realize_sum(root.coefficients, root.summands, np.array(probes))
    worst = 0.0
    for r, u in zip(realized[:, 0].tolist(), estimates):
        worst = max(worst, abs(r - u) / (1.0 + abs(u)))
    pred = root.prediction
    report = {
        "problem": problem.name, "n": config.n, "M": config.M, "seed": seed, "t": t,
        "max_relative_deviation": worst,
        "depth": {"actual": len(arch), "predicted": pred.depth},
        "width": {"actual": max_width(arch), "bound": pred.width_bound},
        "params": {"actual": param_count_of(arch), "bound": pred.param_bound},
        "pass": worst <= 1e-8,
        "provenance": root.provenance,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "build_verify.json").write_text(json.dumps(report, indent=2))
    if cfg["serialize_network"]:
        network = sum_networks(root.coefficients, root.summands)
        payload = {"network": network_to_dict(network), "provenance": root.provenance}
        (out_dir / "network.json").write_text(json.dumps(payload))
    print(json.dumps(report["params"] | {"pass": report["pass"]}, indent=None))
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def _sweep_fullerror(cfg: dict, seed: int, out_dir: Path) -> int:
    entry = _entry(cfg)
    pairs, seeds, _ = _planned_walks(cfg, "sweep")
    probes = _probes(cfg, entry.problem.d) or [np.zeros(entry.problem.d)]
    if len(probes) > 1:
        raise ConfigError(f"sweep fullerror measures one point, but probes lists {len(probes)}")
    report = fullerror_check(
        entry.problem, entry.reference, entry.constants, pairs,
        _start_time(cfg, entry.problem.horizon), probes[0], seeds=seeds, base_seed=seed,
        grid_fn=lambda M: _time_grid(cfg, entry.problem.horizon, M),
    )
    header = ["n", "M", "delta", "reference", "rmse", "bound", "ratio", "pass"]
    return _write_check(out_dir, header, report)


def _sweep_lyapunov(cfg: dict, seed: int, out_dir: Path) -> int:
    problem = _entry(cfg).problem
    c, c_phi = suggest_lyapunov_constants(problem)
    probes = _probes(cfg, problem.d) or [np.zeros(problem.d)]
    trips = [(0.0, problem.horizon, x) for x in probes]
    report = lyapunov_check(problem, 2.0, c, trips, n_paths=cfg["paths"],
                            c_phi=c_phi, seed=seed)
    header = ["t", "s", "kappa", "c", "estimate", "stderr", "inflated", "bound", "pass"]
    return _write_check(out_dir, header, report)


def _sweep_growth(cfg: dict, seed: int, out_dir: Path) -> int:
    name = cfg["problem"]
    report = growth_fit(lambda d: catalog_entry(name, d=d), cfg["d_list"], cfg["eps_list"],
                        RECIPES[cfg["recipe"]](), seed=seed)
    header = ["d", "eps", "n", "M", "steps", "delta", "params", "param_bound",
              "width", "width_bound", "depth", "pass"]
    write_csv(out_dir / "growth.csv", header,
              [[r[k] for k in header] for r in report.rows])
    summary = {"check": "growth", "pass": report.passed, "fits": report.fitted,
               "skipped": list(report.skipped)}
    (out_dir / "growth_summary.json").write_text(json.dumps(summary, indent=2))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _sweep_perturbation(cfg: dict, seed: int, out_dir: Path) -> int:
    if cfg["problem"] != "heat":
        raise ConfigError(f"sweep perturbation runs on heat only, not {cfg['problem']!r}")
    base = _entry(cfg)
    shifted = drift_shifted_heat(base)
    probes = [(0.0, np.zeros(base.problem.d))]
    report = perturbation_check(base.problem, shifted.problem, base.reference,
                                shifted.reference, shifted.constants, probes,
                                n_paths=cfg["paths"], seed=seed)
    header = ["t", "delta", "sup_estimate", "stderr", "oracle_budget", "inflated",
              "bound", "mean_path_gap", "pass"]
    return _write_check(out_dir, header, report)


RECIPES = {"paper": paper_growth_recipe, "desk": desk_growth_recipe}
SWEEPS = {"fullerror": _sweep_fullerror, "lyapunov": _sweep_lyapunov, "growth": _sweep_growth,
          "perturbation": _sweep_perturbation}


def cmd_sweep(cfg: dict, seed: int, out_dir: Path) -> int:
    return SWEEPS[cfg["sweep"]](cfg, seed, out_dir)


# The keys each command reads, each sweep counted by its kind, with the value
# it runs when the config leaves the key out; REQUIRED marks a key with no
# default.  "dimension": None runs the problem's own d, and "time_grid": {}
# runs M^M uniform steps.
REQUIRED = object()
_SOLVE = {"problem": REQUIRED, "dimension": None, "n": 2, "M": 2, "time_grid": {},
          "t": 0.0, "probes": []}
READS = {
    "solve": _SOLVE,
    "build-verify": {**_SOLVE, "n": 1, "M": 1, "delta_target": None,
                     "serialize_network": False},
    "sweep fullerror": {"problem": REQUIRED, "dimension": None, "sweep": "fullerror",
                        "level_grid": [[2, 2]], "time_grid": {}, "t": 0.0, "probes": [],
                        "seeds": 30},
    "sweep lyapunov": {"problem": REQUIRED, "dimension": None, "sweep": REQUIRED,
                       "probes": [], "paths": 50_000},
    "sweep growth": {"problem": REQUIRED, "sweep": REQUIRED, "d_list": [1, 2],
                     "eps_list": [0.5, 0.25], "recipe": "desk"},
    "sweep perturbation": {"problem": REQUIRED, "dimension": None, "sweep": REQUIRED,
                           "paths": 4000},
}

# Each key's type and bound.  Num(int, k): an integer >= k.  Num(float, k): an int
# or a float >= k, or > k if strict (null too if kind is float | None); never a bool.
# A set: one of its values, of that value's own type.  [spec]: a list.  [spec, ...]:
# a non-empty list.  A tuple: a list of exactly its specs.  A dict: an object with one of its keys.
Num = namedtuple("Num", "kind least strict", defaults=(None, False))
TYPES = {
    "problem": set(FACTORIES),
    "dimension": Num(int, 1),
    "n": Num(int, 0),
    "M": Num(int, 1),
    "level_grid": [(Num(int, 0), Num(int, 1)), ...],
    "time_grid": {"uniform_steps": Num(int, 1), "points": [Num(float)]},
    "t": Num(float),
    "probes": [[Num(float)]],
    "seeds": Num(int, 1),
    "delta_target": Num(float | None, 0),
    "sweep": set(SWEEPS),
    "d_list": [Num(int, 1), ...],
    "eps_list": [Num(float, 0, strict=True), ...],
    "recipe": set(RECIPES),
    "paths": Num(int, 100),
    "serialize_network": {False, True},
}


def _check(at: str, spec, value) -> None:
    """Refuse, naming its key path ``at``, a value that does not meet spec."""
    def refuse(why: str):
        raise ConfigError(f"{at}: {value!r} {why}")
    if isinstance(spec, Num):
        if value is None and spec.kind == float | None:
            return
        if type(value) not in ((int,) if spec.kind is int else (int, float)):
            refuse(f"is not of type {'integer' if spec.kind is int else 'number'!r}")
        if spec.least is not None and (value <= spec.least if spec.strict else value < spec.least):
            refuse(f"is less than {'or equal to ' * spec.strict}the minimum of {spec.least!r}")
    elif isinstance(spec, set):
        if not any(type(value) is type(item) and value == item for item in spec):
            refuse(f"is not one of {sorted(spec)}")
    elif isinstance(spec, dict):
        if not (isinstance(value, dict) and len(value) == 1 and value.keys() <= spec.keys()):
            refuse(f"is not an object with one key of {sorted(spec)}")
        [(key, item)] = value.items()
        _check(f"{at}/{key}", spec[key], item)
    elif not isinstance(value, list):
        refuse("is not of type 'array'")
    elif isinstance(spec, tuple) and len(value) != len(spec):
        refuse(f"is not a list of {len(spec)} items")
    elif not value and spec[-1] is ...:
        refuse("should be non-empty")
    else:
        for i, item in enumerate(value):
            _check(f"{at}/{i}", spec[i] if isinstance(spec, tuple) else spec[0], item)


def _resolve(cfg, command: str) -> dict:
    """Check a config against READS and TYPES, to its first fault, and fill in defaults."""
    if not isinstance(cfg, dict):
        raise ConfigError("the config is not a JSON object")
    if command == "sweep":
        _check("sweep", TYPES["sweep"], cfg.get("sweep", "fullerror"))
    name = f"sweep {cfg.get('sweep', 'fullerror')}" if command == "sweep" else command
    unread = sorted(cfg.keys() - READS[name].keys())
    if unread:
        raise ConfigError(f"{name} does not read {', '.join(unread)}")
    missing = [key for key, value in READS[name].items() if value is REQUIRED and key not in cfg]
    if missing:
        raise ConfigError(f"{name} needs {', '.join(missing)}")
    for key, value in cfg.items():
        _check(key, TYPES[key], value)
    return {**READS[name], **cfg}


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):  # NaN, Infinity, or past the float range
        raise ConfigError(f"{text} is not a finite number")
    return value


def load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _resolve(cfg, command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picardnet",
        description="Multilevel Picard solving, network building and bound checks.",
    )
    parser.add_argument("command", choices=["solve", "build-verify", "sweep", "problems"])
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=0, help="master seed (u64)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="lift the cost guard on predicted estimator work")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "problems":
        print("\n".join(sorted(FACTORIES)))
        return EXIT_OK
    if not args.config:
        print("error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config, args.command)
        _guard_memory(cfg)
        if not args.force:
            _guard_work(cfg, args.command)
        handlers = {"solve": cmd_solve, "build-verify": cmd_build_verify, "sweep": cmd_sweep}
        return handlers[args.command](cfg, args.seed, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
