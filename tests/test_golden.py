"""Golden outputs: exact estimates, Monte Carlo batches and built networks.

The frozen randomness promises bit-identical reruns, so every value here is
pinned exactly: estimates as ``float.hex``, arrays and networks as SHA-256
of their bytes.  A change to a random stream, to the order of the Euler
arithmetic or to the network layout fails these tests.
"""

import hashlib
import json

import numpy as np
import pytest

from picardnet import (
    FrozenSample,
    MlpConfig,
    ROOT_PATH,
    TimeGrid,
    build_mlp_network,
    catalog_entry,
    mlp_estimate,
    network_encodings,
    network_to_json,
    uniform_grid,
)
from picardnet import cli
from picardnet.analysis import coupled_paths, simulate_terminal_batch
from picardnet.builder import build_euler_network

# the point 0.5 is repeated: the zero-length step must consume no randomness
REPEATED = TimeGrid((0.0, 0.25, 0.5, 0.5, 1.0))


def _grid(horizon, steps):
    return REPEATED if steps is None else uniform_grid(horizon, steps)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# (problem, n, M, grid steps or None for REPEATED, seed, t, x, float.hex)
ESTIMATES = [
    ("ode-exp", 2, 2, 4, 7, 0.0, (0.3,), "0x1.0000000000000p+1"),
    ("ode-exp", 3, 2, 4, 8, 0.4, (-1.0,), "0x1.d9d3487188c18p+0"),
    ("heat", 2, 2, 4, 7, 0.0, (0.25, -0.5), "0x1.959521da8f0ebp+1"),
    ("heat", 2, 3, None, 9, 0.3, (1.0, 0.5), "0x1.6a1739c57a8cbp+2"),
    ("relu-exact", 3, 3, 8, 0, 0.0, (0.25, -0.5), "0x1.4fc6dfb459370p-1"),
    ("relu-exact", 2, 2, None, 11, 0.5, (-0.3, 0.7), "0x1.a7af7c4715a35p-1"),
    ("bs-like", 3, 2, 4, 5, 0.0, (1.0, 1.2), "0x1.d5ec5b1559d8fp-3"),
    ("bs-like", 2, 3, None, 12, 0.25, (0.9, 1.1), "0x1.ba8afed8e3b76p-3"),
]


@pytest.mark.parametrize("name, n, M, steps, seed, t, x, want", ESTIMATES)
def test_golden_estimate(name, n, M, steps, seed, t, x, want):
    problem = catalog_entry(name).problem
    config = MlpConfig(n, M, _grid(problem.horizon, steps), FrozenSample(seed))
    assert mlp_estimate(problem, config, ROOT_PATH, t, x).hex() == want


# (problem, grid steps or None for REPEATED, t, s, seed, SHA-256 of the terminal states)
TERMINAL_BATCHES = [
    ("bs-like", 4, 0.0, 1.0, 3,
     "858e3d2cbdbff318af90f568cdeebcc3d03d27c3f9bdafe1c452e2f463614f94"),
    ("bs-like", None, 0.1, 0.8, 4,
     "d7f01e1d70bd5863141bfecc48a5a68797bff674a7706ccb7832de2d0f0e3b56"),
    ("relu-exact", None, 0.5, 0.5, 5,
     "a5a9cbfe669e5e61d3fee0b76b7598a1f80661b61244a66fcc4d06062dcb35e5"),
    ("heat", 3, 0.2, 0.9, 6,
     "3f9f1987231f2d42dea86016a03c57fc6868896d946aae933c76851c8d232573"),
]


@pytest.mark.parametrize("name, steps, t, s, seed, want", TERMINAL_BATCHES)
def test_golden_terminal_batch(name, steps, t, s, seed, want):
    problem = catalog_entry(name).problem
    x = np.linspace(0.8, 1.2, problem.d)
    out = simulate_terminal_batch(problem, _grid(problem.horizon, steps), t, x, s, 64, seed)
    assert _sha(out) == want


# (problem pair, grid steps or None for REPEATED, t, s_values, seed, SHA-256 of the snapshots)
COUPLED = [
    (("heat", "bs-like"), 8, 0.0, (0.0, 0.3, 0.5, 1.0), 77,
     "bba630ac6fccba4ed78b3c6038c58ead6b7743e6e54214b4541876b0195f9123"),
    (("bs-like", "relu-exact"), None, 0.1, (0.5, 0.6, 1.0), 78,
     "9d6424ee4dddfd6409d4a400d09ebcae6a0da0c56ff77541c4b25e91bd598647"),
    (("relu-exact", "heat"), 4, 0.25, (0.25,), 79,
     "07b4f1007785eafdde835375bd2d4e89df753c55153045fd109ac408699da446"),
]


@pytest.mark.parametrize("names, steps, t, s_values, seed, want", COUPLED)
def test_golden_coupled_paths(names, steps, t, s_values, seed, want):
    problem_a, problem_b = (catalog_entry(name).problem for name in names)
    x = np.array([0.9, 1.1])
    snaps = coupled_paths(problem_a, problem_b, _grid(1.0, steps), t, x, s_values, 48, seed)
    assert sorted(snaps) == sorted(set(s_values))
    parts = []
    for s in sorted(snaps):
        parts.extend([np.array([s]), *snaps[s]])
    assert _sha(*parts) == want


# (problem, seed, t, SHA-256 of network_to_json, n, M) at K = 2; level 3 is the
# first level whose correction summands are padded by two pad units
NETWORKS = [
    ("relu-exact", 17, 0.0,
     "bc1ccb14c143581ece43235151aec5b6b76edcad9a2a428a920b39ca3426af8a", 2, 2),
    ("bs-like", 18, 0.25,
     "ad308d7501419049ef9718f50dbf37ff2d48d83d68303ed3b4f22d81142c0a71", 2, 2),
    ("bs-like", 19, 0.1,
     "c08a1d03304f63221ec7ad94eff8d97825f5aec7f85dc8fbfe969a556c8a6714", 3, 2),
]


@pytest.mark.parametrize("name, seed, t, want, n, M", NETWORKS)
def test_golden_network(name, seed, t, want, n, M):
    problem = catalog_entry(name).problem
    config = MlpConfig(n, M, uniform_grid(problem.horizon, 2), FrozenSample(seed))
    built = build_mlp_network(network_encodings(problem), config, ROOT_PATH, t)
    text = network_to_json(built.network)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


# (problem, SHA-256 of network_to_json) of one Euler network at d = 2, K = 8,
# seed 0, from t = 0.3 to s = 0.6: three live steps between dead intervals on
# both sides; relu-exact has a constant sigma family, bs-like a linear one
EULER_NETWORKS = [
    ("relu-exact", "915e600e04d7ae5b7cce822c44d121422a75e30436f6a54539cc83c4d4fb1d6d"),
    ("bs-like", "e6daf9e9aac907acee9d45d1f3e8a971c259ddc7cfcbb743c3690292b779e257"),
]


@pytest.mark.parametrize("name, want", EULER_NETWORKS)
def test_golden_euler_network(name, want):
    problem = catalog_entry(name, d=2).problem
    encodings = network_encodings(problem)
    net = build_euler_network(encodings.mu, encodings.sigma, uniform_grid(problem.horizon, 8),
                              FrozenSample(0), ROOT_PATH, 0.3, 0.6)
    text = network_to_json(net)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


# (sweep config, CLI seed, output file, SHA-256 of the file), a row per
# file each sweep writes.  The perturbation rows are the sweep-perturbation
# input that perfbench derives from its seed 0, pinned there too; bs-like has
# a state-dependent diffusion; the paper growth recipe skips every point.
SWEEP_OUTPUTS = [
    ({"problem": "heat", "dimension": 2, "sweep": "perturbation", "paths": 4000},
     3653403231, "perturbation.csv",
     "7d3b4888c0c28668eb1abe3380bcb9873bcded97ae54dbf11b3e34186e83de1b"),
    ({"problem": "bs-like", "dimension": 3, "sweep": "lyapunov", "paths": 20000,
      "probes": [[0.9, 1.0, 1.1], [-0.5, 0.2, 2.0]]},
     1, "lyapunov.csv",
     "b7dd3559707c640c792484b6b173e5927b710de66a98fb14e0fe65c0d4e11117"),
    ({"problem": "heat", "dimension": 2, "sweep": "perturbation", "paths": 4000},
     3653403231, "perturbation_summary.json",
     "d2ec0c166a78826259355f8ef489af3088be3d4443b50cc744d31628d227b5b1"),
    ({"problem": "bs-like", "dimension": 3, "sweep": "lyapunov", "paths": 20000,
      "probes": [[0.9, 1.0, 1.1], [-0.5, 0.2, 2.0]]},
     1, "lyapunov_summary.json",
     "db825cf84c93bfa94c0a9a2a5484f398965490cebf5a08277f342dbd2556ab83"),
    ({"problem": "ode-exp", "sweep": "fullerror", "level_grid": [[1, 1], [2, 2]], "seeds": 4},
     2, "fullerror.csv",
     "8d89312e2a3cc389f7df22bb8f53d4a724689e36a73ad54333018a3a7655f800"),
    ({"problem": "ode-exp", "sweep": "fullerror", "level_grid": [[1, 1], [2, 2]], "seeds": 4},
     2, "fullerror_summary.json",
     "ba50583c7868d0de64a099242df69ff22750ef411e3051faca6299435cb547e0"),
    ({"problem": "relu-exact", "sweep": "fullerror", "level_grid": [[1, 1]], "seeds": 2},
     3, "fullerror.csv",
     "b31f26baa917612d205fa52bc92ea8c453419c36e2cca60a8299d9905cec335d"),
    ({"problem": "relu-exact", "sweep": "fullerror", "level_grid": [[1, 1]], "seeds": 2},
     3, "fullerror_summary.json",
     "71b17fd61fde8b3e8734f0d052018bb4bd5298384dab1cd3ea6a516b79888718"),
    ({"problem": "heat", "sweep": "growth", "recipe": "desk", "d_list": [1, 2],
      "eps_list": [0.4, 0.2]},
     4, "growth.csv",
     "980a5d91676b6e64dd5a5579079cf49140751203e6329d40600053fa7957a851"),
    ({"problem": "heat", "sweep": "growth", "recipe": "desk", "d_list": [1, 2],
      "eps_list": [0.4, 0.2]},
     4, "growth_summary.json",
     "e0003e9072425626ae02e1e5e9b135279631ea766a3baedcac6c2512c5ebf8c3"),
    ({"problem": "heat", "sweep": "growth", "recipe": "paper", "d_list": [1],
      "eps_list": [0.5]},
     5, "growth.csv",
     "3dae233d5c0c1ba18d50113334b0ddc94319131eb1d004d98ee84e4a68e9ce88"),
    ({"problem": "heat", "sweep": "growth", "recipe": "paper", "d_list": [1],
      "eps_list": [0.5]},
     5, "growth_summary.json",
     "666af182cfabf051423176e79c1815faa6f3e44ed925d34d7a3ee44d80f3a13f"),
]


@pytest.mark.parametrize("config, seed, output, want", SWEEP_OUTPUTS)
def test_golden_sweep_output(tmp_path, config, seed, output, want):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(path), "--seed", str(seed), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert hashlib.sha256((out / output).read_bytes()).hexdigest() == want
