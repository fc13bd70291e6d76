"""Seeded workload generators.

A workload turns ``(seed, index)`` into one child job: the CLI invocations
that one child process makes and the JSON config each of them reads. The
same seed and index always give byte-identical configs; the index walks
through fresh instances so that a run's medians are taken over several
inputs rather than one.

Why each workload exists is recorded next to it in ``BENCHMARK.json``; the
comments here say what the sizes are tied to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Tolerances the runners classify their verdict statistic against; the
# margin to them is reported as ``margin_digits``.
SHIELDING_TOL = 1e-9
QUENCH_TOL = 1e-9
CONJECTURE_TOL = 1e-8
ORACLE_TOL = 1e-8
DUAL_TOL = 1e-12


@dataclass(frozen=True)
class Invocation:
    """One ``shieldlab <experiment> --config FILE`` call and its checks."""

    experiment: str
    config: dict
    statistic_keys: tuple[str, ...]  # verdict keys whose max is compared to tol
    tol: float
    expected_rows: int               # rows the CSV must hold (see row_filter)
    row_filter: str | None = None    # count only rows whose column 'sector' equals this


@dataclass(frozen=True)
class Job:
    """Everything one child process runs, in order."""

    index: int
    invocations: tuple[Invocation, ...]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeding hashes with SHA-512, so draws are stable across
    # interpreter versions and independent between workloads.
    return random.Random(f"{workload}:{int(seed)}:{int(index)}")


def _config_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _round(x: float) -> float:
    # Short decimal literals keep the generated JSON readable and exact.
    return round(x, 6)


# ---------------------------------------------------------------------------
# quench_chain: the largest real eigensolves plus the evolution loop
# ---------------------------------------------------------------------------

QUENCH_SITES = 11  # 2 real eigh of dim 2048 per child, ~0.26 GB peak RSS
QUENCH_TIMES = {"start": 0.0, "stop": 6.0, "step": 0.05}  # 121 times
QUENCH_N_TIMES = 121


def quench_job(seed: int, index: int) -> Job:
    rng = _rng("quench_chain", seed, index)
    n = QUENCH_SITES
    interface = rng.randrange(4, n - 3)  # 0-based; both bulks keep >= 3 sites
    edges = [[i + 1, i + 2, _round(rng.uniform(0.5, 1.5))] for i in range(n - 1)]
    h = [_round(rng.uniform(0.2, 1.0)) for _ in range(n)]
    h[interface] = 0.0
    quench_site = rng.randrange(0, interface)
    cfg = {
        "kind": "quench",
        "pre": {"n_sites": n, "index_base": 1, "edges": edges, "h": h},
        "quench_site": quench_site + 1,
        "quench_h": _round(rng.uniform(-10.0, -2.0)),
        "times": QUENCH_TIMES,
        "observables": "x",
        "split": {
            "X": list(range(1, interface + 2)),
            "Y": list(range(interface + 1, n + 1)),
        },
    }
    inv = Invocation("quench", cfg, ("max_variation_shielded",), QUENCH_TOL,
                     expected_rows=QUENCH_N_TIMES * n)
    return Job(index, (inv,))


# ---------------------------------------------------------------------------
# shield_thermal_y: complex Hamiltonians, repeated spectra across betas
# ---------------------------------------------------------------------------

SHIELD_A = 4        # X-bulk sites (redrawn every trial)
SHIELD_B = 4        # Y-bulk sites (fixed)
SHIELD_TRIALS = 4   # full H is complex, dim 512
SHIELD_BETAS = [0.1, 1.0, 5.0]


def _side_edges(rng: random.Random, sites: list[int]) -> list[list]:
    """A spanning path through ``sites`` plus random long-range couplings."""
    order = list(sites)
    rng.shuffle(order)
    pairs = {tuple(sorted(p)) for p in zip(order, order[1:])}
    for i in sites:
        for j in sites:
            if i < j and (i, j) not in pairs and rng.random() < 0.3:
                pairs.add((i, j))
    return [[i, j, _round(rng.uniform(-2.0, 2.0))] for (i, j) in sorted(pairs)]


def shield_job(seed: int, index: int) -> Job:
    rng = _rng("shield_thermal_y", seed, index)
    n = SHIELD_A + 1 + SHIELD_B
    interface = SHIELD_A + 1  # 1-based
    x_side = list(range(1, interface + 1))
    y_side = list(range(interface, n + 1))
    edges = _side_edges(rng, x_side) + _side_edges(rng, y_side)
    h = [_round(rng.uniform(0.2, 1.0)) for _ in range(n)]
    g = [_round(rng.uniform(0.2, 1.0)) for _ in range(n)]
    h[interface - 1] = 0.0
    g[interface - 1] = 0.0
    cfg = {
        "kind": "verify-shielding",
        "lattice": {"n_sites": n, "index_base": 1, "edges": edges, "h": h, "g": g},
        "split": {"X": x_side, "Y": y_side},
        "betas": SHIELD_BETAS,
        "trials": SHIELD_TRIALS,
        "seed": _config_seed(rng),
        "J_range": [-2.0, 2.0],
        "h_range": [0.2, 1.0],
        "g_range": [0.2, 1.0],
    }
    inv = Invocation("verify-shielding", cfg, ("max_distance",), SHIELDING_TOL,
                     expected_rows=SHIELD_TRIALS * len(SHIELD_BETAS))
    return Job(index, (inv,))


# ---------------------------------------------------------------------------
# conjecture_ground: distinct real eigensolves, ground selection, sectors
# ---------------------------------------------------------------------------

# The 10-site triangular patch (rows of 1, 2, 3, 4 sites) of the shipped
# conjecture_patch10 config, 1-based, with its three-site interface {4, 5, 6}.
PATCH10_EDGES = [
    [1, 2], [1, 3], [2, 3], [2, 4], [2, 5], [3, 5], [3, 6], [4, 5], [4, 7],
    [4, 8], [5, 6], [5, 8], [5, 9], [6, 9], [6, 10], [7, 8], [8, 9], [9, 10],
]
PATCH10_X = [1, 2, 3, 4, 5, 6]
PATCH10_Y = [4, 5, 6, 7, 8, 9, 10]
PATCH10_A = 3  # |X \ Y|: sites 1, 2, 3
CONJECTURE_TRIALS = 8


def conjecture_job(seed: int, index: int) -> Job:
    rng = _rng("conjecture_ground", seed, index)
    cfg = {
        "kind": "conjecture",
        "lattice": {
            "n_sites": 10,
            "index_base": 1,
            "edges": [[i, j, 1.0] for (i, j) in PATCH10_EDGES],
            "h": [0.0] * 10,
        },
        "split": {"X": PATCH10_X, "Y": PATCH10_Y},
        "beta": "ground",
        "trials": CONJECTURE_TRIALS,
        "seed": _config_seed(rng),
        "a_field_range": [0.0, 1.0],
        "b_field_range": [0.0, 1.0],
        "offset_range": [0.0, 3.0],
    }
    # Interface-sector rows depend on which sectors are occupied, so only the
    # mixed-state rows have a fixed count: one x and one z row per A site.
    inv = Invocation("conjecture", cfg, ("max_variation",), CONJECTURE_TOL,
                     expected_rows=CONJECTURE_TRIALS * PATCH10_A * 2,
                     row_filter="mix")
    return Job(index, (inv,))


# ---------------------------------------------------------------------------
# small_exact: pure-Python series and Kronecker products, no large LAPACK call
# ---------------------------------------------------------------------------

DIAMOND_BETAS = [1.0, 4.0, 7.0, 20.0]
DIAMOND_H1 = {"start": 0.0, "stop": 2.0, "step": 0.05}  # 41 points
DIAMOND_N_H1 = 41
DUAL_SITES = 8
DUAL_TRIALS = 20


def small_exact_job(seed: int, index: int) -> Job:
    rng = _rng("small_exact", seed, index)
    counter = {
        "kind": "counterexample",
        "h4": _round(rng.uniform(0.5, 1.5)),
        "betas": DIAMOND_BETAS,
        "h1_grid": DIAMOND_H1,
        "series_tol": 1e-14,
    }
    dual = {
        "kind": "dual-check",
        "n_sites": DUAL_SITES,
        "trials": DUAL_TRIALS,
        "seed": _config_seed(rng),
        "J_range": [-2.0, 2.0],
        "h_range": [-1.0, 1.0],
        "zero_field_site": rng.randrange(1, DUAL_SITES - 1),
    }
    return Job(index, (
        Invocation("counterexample", counter, ("max_abs_delta",), ORACLE_TOL,
                   expected_rows=len(DIAMOND_BETAS) * DIAMOND_N_H1),
        Invocation("dual-check", dual,
                   ("max_hamiltonian_residual", "max_algebra_residual"), DUAL_TOL,
                   expected_rows=DUAL_TRIALS),
    ))


GENERATORS = {
    "quench_chain": quench_job,
    "shield_thermal_y": shield_job,
    "conjecture_ground": conjecture_job,
    "small_exact": small_exact_job,
}
