"""The four perfbench workloads and the correctness gate of each operation.

Each workload turns its seed into inputs during set-up and then runs
*rounds*: one round is one operation per input.  Operations go through
picardnet's public surface only (the CLI for solve, build-verify and sweep;
``builder.build_mlp_network`` and ``nets.realize`` for realize), always by
module attribute, so the tracer's wrappers see them.

Every operation is checked after it has been timed; a failed check is
counted, never dropped.  At ``DEFAULT_SEED`` the output files must also
match the SHA-256 digests pinned in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from picardnet import builder, cli, indexrng, mlp, nets, problems, sde

# SHA-256 of each output file, per input index, at the default seed
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())
DEFAULT_SEED = GOLDEN["seed"]
REALIZE_TOLERANCE = 1e-8

# relu-exact, d=2, uniform K=8 grid: the problem every MLP workload runs on
RELU_EXACT = {"problem": "relu-exact", "dimension": 2, "time_grid": {"uniform_steps": 8}}


@dataclass
class State:
    """Everything set-up produced: the per-round inputs and what checks need."""

    seed: int
    entry: object
    encodings: object
    inputs: list
    extra: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


def _catalog(name: str):
    entry = problems.catalog_entry(name, d=2)
    return entry, problems.network_encodings(entry.problem, None)


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


class Workload:
    """Set-up, one timed operation per input, and the gate on its result."""

    name = ""
    problem = ""
    work_unit = ""
    work_per_input = 1

    def prepare(self, state: State) -> list[str | None]:
        """Gates run once after set-up, outside every timing; one op each."""
        return []

    def before(self, state: State, item: dict) -> None:
        """Untimed preparation of one operation."""


class CliWorkload(Workload):
    """A workload whose operation is one in-process ``picardnet`` CLI call."""

    command: list[str] = []
    output = ""

    def configs(self, rng: np.random.Generator) -> list[tuple[dict, int]]:
        raise NotImplementedError

    def setup(self, seed: int, work_dir: Path) -> State:
        entry, encodings = _catalog(self.problem)
        rng = np.random.default_rng(seed)
        inputs = []
        for idx, (config, cli_seed) in enumerate(self.configs(rng)):
            cfg_path = work_dir / f"{self.name}-{idx}.json"
            cfg_path.write_text(json.dumps(config))
            out_dir = work_dir / f"out-{idx}"
            argv = [*self.command, "--config", str(cfg_path), "--seed", str(cli_seed),
                    "--out", str(out_dir)]
            inputs.append({"idx": idx, "argv": argv, "out": out_dir, "config": config,
                           "cli_seed": cli_seed})
        if seed == DEFAULT_SEED and len(GOLDEN[self.name]) != len(inputs):
            raise ValueError(f"golden.json pins {len(GOLDEN[self.name])} {self.name} digests"
                             f" for {len(inputs)} inputs")
        return State(seed, entry, encodings, inputs)

    def before(self, state: State, item: dict) -> None:
        # an operation that writes nothing must not pass on the previous round's file
        (item["out"] / self.output).unlink(missing_ok=True)

    def run(self, state: State, item: dict):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(item["argv"])
        return code, stdout.getvalue()

    def check(self, state: State, item: dict, result) -> str | None:
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        path = item["out"] / self.output
        if not path.is_file():
            return f"{self.output} missing"
        data = path.read_bytes()
        problem = self.check_output(item, data, stdout)
        if problem:
            return problem
        digest = hashlib.sha256(data).hexdigest()
        first = state.digests.setdefault(item["idx"], digest)
        if digest != first:
            return f"{self.output} differs from the first run of the same input"
        if state.seed == DEFAULT_SEED:
            pinned = GOLDEN[self.name][item["idx"]]
            if digest != pinned:
                return f"{self.output} sha256 {digest} != pinned {pinned}"
        return None

    def check_output(self, item: dict, data: bytes, stdout: str) -> str | None:
        raise NotImplementedError


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


class Solve(CliWorkload):
    """``picardnet solve``, relu-exact d=2, n=M=4, K=8: estimator only.

    Work per estimate depends on the seed (the sampled times set the step
    counts, which vary by about 10%), so a round runs 32 generated (probe,
    seed) inputs and the rate averages over them.
    """

    name = "solve"
    command = ["solve"]
    output = "solve.csv"
    problem = "relu-exact"
    work_unit = "estimates"
    inputs_per_round = 32

    def configs(self, rng):
        out = []
        for _ in range(self.inputs_per_round):
            probe = rng.uniform(-1.0, 1.0, size=2).tolist()
            out.append(({**RELU_EXACT, "n": 4, "M": 4, "probes": [probe]}, _cli_seed(rng)))
        return out

    def check_output(self, item, data, stdout):
        rows = _csv_rows(data)
        if rows[0] != ["t", "x0", "x1", "estimate", "seed"] or len(rows) != 2:
            return f"solve.csv has unexpected shape: {rows[:1]} + {len(rows) - 1} rows"
        t, x0, x1, est, seed = rows[1]
        if [float(x0), float(x1)] != item["config"]["probes"][0] or float(t) != 0.0:
            return "solve.csv does not echo the probe"
        if int(seed) != item["cli_seed"] or not math.isfinite(float(est)):
            return f"solve.csv row is wrong: {rows[1]}"
        return None


class BuildVerify(CliWorkload):
    """``picardnet build-verify``, relu-exact d=2, n=M=3, K=8, one probe."""

    name = "build-verify"
    command = ["build-verify"]
    output = "build_verify.json"
    problem = "relu-exact"
    work_unit = "build-verify runs"

    def configs(self, rng):
        probe = rng.uniform(-1.0, 1.0, size=2).tolist()
        return [({**RELU_EXACT, "n": 3, "M": 3, "probes": [probe]}, _cli_seed(rng))]

    def check_output(self, item, data, stdout):
        report = json.loads(data)
        if report.get("pass") is not True or '"pass": true' not in stdout:
            return "build-verify did not pass"
        if not report["max_relative_deviation"] <= REALIZE_TOLERANCE:
            return f"deviation {report['max_relative_deviation']} above {REALIZE_TOLERANCE}"
        if (report["n"], report["M"], report["seed"]) != (3, 3, item["cli_seed"]):
            return "build_verify.json reports another configuration"
        if (item["out"] / "network.json").exists():
            return "network.json written although not asked for"
        return None


class SweepPerturbation(CliWorkload):
    """``picardnet sweep`` (perturbation) on heat, d=2, 4000 coupled paths."""

    name = "sweep-perturbation"
    command = ["sweep"]
    output = "perturbation.csv"
    problem = "heat"
    work_unit = "Monte Carlo paths"
    paths = 4000
    work_per_input = paths

    def configs(self, rng):
        config = {"problem": "heat", "dimension": 2, "sweep": "perturbation",
                  "paths": self.paths}
        return [(config, _cli_seed(rng))]

    def check_output(self, item, data, stdout):
        rows = _csv_rows(data)
        header = ["t", "delta", "sup_estimate", "stderr", "oracle_budget", "inflated",
                  "bound", "mean_path_gap", "pass"]
        if rows[0] != header or len(rows) != 2:
            return "perturbation.csv has unexpected shape"
        row = dict(zip(header, rows[1]))
        if row["pass"] != "True":
            return "perturbation check failed"
        if not all(math.isfinite(float(row[k])) for k in ("sup_estimate", "stderr")):
            return "perturbation estimate not finite"
        summary = json.loads((item["out"] / "perturbation_summary.json").read_text())
        if summary.get("pass") is not True:
            return "perturbation summary does not pass"
        return None


class Realize(Workload):
    """Scalar ``nets.realize`` on the relu-exact n=M=3, K=8 network.

    The build is part of set-up.  Each value is checked against
    ``mlp_estimate`` at the same point, computed outside the timed region.
    """

    name = "realize"
    problem = "relu-exact"
    work_unit = "realize points"
    points = 16

    def setup(self, seed: int, work_dir: Path) -> State:
        entry, encodings = _catalog(self.problem)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1.0, 1.0, size=(self.points, 2))
        config = mlp.MlpConfig(3, 3, sde.uniform_grid(entry.problem.horizon, 8),
                               indexrng.FrozenSample(_cli_seed(rng)))
        built = builder.build_mlp_network(encodings, config, mlp.ROOT_PATH, 0.0)
        inputs = [{"idx": i, "x": x} for i, x in enumerate(xs)]
        return State(seed, entry, encodings, inputs, {"config": config, "built": built})

    def prepare(self, state: State) -> list[str | None]:
        """The build gate, then the oracle value of every point."""
        enc, config = state.encodings, state.extra["config"]
        predicted = builder.predict_architecture(
            nets.architecture(enc.mu), enc.sigma.reference_architecture,
            nets.architecture(enc.f), nets.architecture(enc.g),
            config.n, config.M, config.grid.steps, state.entry.problem.d)
        actual = nets.architecture(state.extra["built"].network)
        for item in state.inputs:
            item["oracle"] = mlp.mlp_estimate(state.entry.problem, config, mlp.ROOT_PATH,
                                              0.0, item["x"])
        if actual != predicted.architecture:
            return [f"built architecture {actual} != predicted {predicted.architecture}"]
        return [None]

    def run(self, state: State, item: dict):
        return nets.realize(state.extra["built"].network, item["x"])

    def check(self, state: State, item: dict, result) -> str | None:
        if result.shape != (1,) or not math.isfinite(result[0]):
            return f"realize returned {result!r}"
        value, oracle = float(result[0]), item["oracle"]
        if abs(value - oracle) / (1.0 + abs(oracle)) > REALIZE_TOLERANCE:
            return f"realize {value!r} vs mlp_estimate {oracle!r} at {item['x'].tolist()}"
        first = state.digests.setdefault(item["idx"], value.hex())
        if value.hex() != first:
            return "realize is not deterministic"
        return None


WORKLOADS = {w.name: w for w in (Solve(), BuildVerify(), Realize(), SweepPerturbation())}
