"""Each Hamiltonian is diagonalized once, whatever reads its spectrum.

``shieldlab.thermal.spectrum`` solves every Hamiltonian in one stacked
``np.linalg.eigh`` call; a counting wrapper around ``np.linalg.eigh`` shows
how many distinct solves a computation needs and the block stacks it hands
to LAPACK. Counting wrappers around ``SpectralDecomposition.function`` and
``DensityMatrix`` show which states a verdict forms, and a
``HamiltonianTerms.to_dense`` that raises shows that no solve builds a
dense Hamiltonian.
"""

import math

import numpy as np
import pytest

import shieldlab.thermal as thermal
from shieldlab import (
    DensityMatrix,
    HamiltonianTerms,
    PauliString,
    QuenchProtocol,
    ShieldlabError,
    build_hamiltonian,
    make_chain,
    run_conjecture,
    run_counterexample,
    run_quench,
    run_quench_experiment,
    run_verify_shielding,
    thermal_state,
    update_parameters,
    validate_split,
)

from helpers import random_product_state
from test_experiments import chain_config, lattice_json, shipped_config, triangle_config


@pytest.fixture
def eig_calls(monkeypatch):
    """The shape of every stack handed to ``np.linalg.eigh``, one per call."""
    shapes = []
    original = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


@pytest.fixture
def solved_terms(monkeypatch):
    """The terms of every Hamiltonian handed to ``spectrum``, through the
    bindings of both ``dynamics`` and ``thermal``."""
    import shieldlab.dynamics as dynamics
    solved = []
    spectrum = thermal.spectrum

    def recorded(H):
        solved.append(H.terms)
        return spectrum(H)

    monkeypatch.setattr(dynamics, "spectrum", recorded)
    monkeypatch.setattr(thermal, "spectrum", recorded)
    return solved


@pytest.fixture
def state_dims(monkeypatch):
    """Dimensions of every matrix ``SpectralDecomposition.function`` returns
    and of every ``DensityMatrix`` built."""
    dims = []
    function = thermal.SpectralDecomposition.function
    check = thermal.DensityMatrix.__post_init__

    def counted_function(self, f):
        out = function(self, f)
        dims.append(out.shape[0])
        return out

    def counted_check(self):
        check(self)
        dims.append(self.dim)

    monkeypatch.setattr(thermal.SpectralDecomposition, "function", counted_function)
    monkeypatch.setattr(thermal.DensityMatrix, "__post_init__", counted_check)
    return dims


def shielded_chain(n=6, L=3):
    h = [0.6] * n
    h[L] = 0.0
    lat = make_chain(n, [1.0, -0.7, 1.3, 0.4, -1.1][: n - 1], h)
    return lat, validate_split(lat, range(L + 1), range(L, n))


def short_quench(observables="x"):
    lat, _ = shielded_chain()
    return {"pre": lattice_json(lat), "quench_site": 0, "quench_h": -2.0,
            "times": {"start": 0.0, "stop": 1.0, "step": 0.25},
            "observables": observables}


def test_verify_shielding_solves_each_trial_once_plus_the_shielded_side(eig_calls):
    trials = 3
    cfg = chain_config(n=5, L=2, trials=trials, betas=[0.5, 2.0, "ground"])
    table = run_verify_shielding(cfg)
    assert len(table.rows) == trials * 3
    assert len(eig_calls) == trials + 1


def test_quench_from_a_callers_state_never_solves_the_pre_hamiltonian(
        solved_terms, eig_calls):
    # the caller's state is split into pure states by one dense eigh; only
    # the post Hamiltonian's spectrum is solved, as one real block of 32
    pre, _ = shielded_chain()
    post = update_parameters(pre, h=[-2.0, *pre.h[1:]])
    rng = np.random.default_rng(3)
    rho0 = DensityMatrix(random_product_state(rng, 6), tuple(range(6)))
    protocol = QuenchProtocol(pre, post, (0.3, 0.9, 1.7, 2.2, 4.0),
                              (PauliString.single(6, 5, "X"),))
    assert len(run_quench(protocol, rho0=rho0).rows) == 5
    assert solved_terms == [build_hamiltonian(post).terms]
    assert eig_calls == [(64, 64), (1, 32, 32)]


def test_thermal_states_and_ground_state_share_one_solve(eig_calls):
    lat, _ = shielded_chain()
    H = build_hamiltonian(lat)
    for beta in (0.1, 1.0, 5.0):
        thermal_state(H, beta)
    assert thermal_state(H, math.inf).degeneracy == 2
    assert len(eig_calls) == 1


def test_quench_runner_solves_pre_and_post_once(solved_terms, eig_calls):
    # a chain read through X_i: each lattice is one 12x12 Majorana form,
    # the pre's solved first, and no block spectrum is read
    table = run_quench_experiment(short_quench())
    assert len(table.rows) == 5 * 6 and table.metadata["solver"] == "free-fermion"
    assert eig_calls == [(12, 12), (12, 12)]
    assert solved_terms == []


def test_blocked_quench_runner_solves_pre_and_post_once(solved_terms, eig_calls):
    # read through Z_i, the same chain takes the blocked path. The zero
    # field on site 3 cuts the pre's field sites into {0, 1, 2} and {4, 5}:
    # its ground space is composed from one block per side, solved with
    # site 3 as the pivot like spectrum's one pattern, and never reaches
    # spectrum; the post is one real block of 32
    table = run_quench_experiment(short_quench("z"))
    assert len(table.rows) == 5 * 6 and table.metadata["solver"] == "blocked"
    assert eig_calls == [(1, 8, 8), (1, 4, 4), (1, 32, 32)]
    pre, _ = shielded_chain()
    post = update_parameters(pre, h=[-2.0, *pre.h[1:]])
    assert solved_terms == [build_hamiltonian(post).terms]


def test_quench_pre_with_its_zero_field_at_a_chain_end_is_one_block(eig_calls):
    # a zero field at the end leaves the other sites one component, so the
    # pre is solved by spectrum, as one real block of 32 like the post
    cfg = short_quench("z")
    cfg["pre"]["h"] = [0.0, 0.6, 0.6, 0.6, 0.6, 0.6]
    cfg["quench_site"] = 5
    assert len(run_quench_experiment(cfg).rows) == 5 * 6
    assert eig_calls == [(1, 32, 32)] * 2


def test_config_with_an_unread_key_solves_nothing(eig_calls):
    quench = short_quench()
    quench["times"]["num"] = 5
    conjecture = triangle_config("ground")
    conjecture["split"]["Z"] = [0]
    for run, cfg in ((run_verify_shielding, chain_config(trails=2)),
                     (run_quench_experiment, quench),
                     (run_conjecture, conjecture)):
        with pytest.raises(ShieldlabError, match="is unknown or does not apply"):
            run(cfg)
    assert eig_calls == []


def test_conjecture_patch_trial_is_four_blocks_of_128(eig_calls):
    # 10 sites, three zero-field interface sites: 2^(3-1) blocks of 2^(10-3)
    run_conjecture(shipped_config("conjecture_patch10", trials=3))
    assert eig_calls == [(4, 128, 128)] * 3


def test_control_without_zero_field_site_solves_two_half_blocks(eig_calls):
    # the interface field leaves the full 6-site H no zero-field site, so it
    # is solved in its two spin-flip sectors; split_hamiltonian charges that
    # field to H_X, so the shielded 4-site side keeps one and is one block
    run_verify_shielding(shipped_config("verify_shielding_control", trials=2))
    assert eig_calls == [(1, 8, 8), (2, 32, 32), (2, 32, 32)]


@pytest.mark.parametrize("run, name, n_sites", [
    (run_conjecture, "conjecture_patch10", 10),
    (run_verify_shielding, "verify_shielding_chain", 6),
    (run_verify_shielding, "verify_shielding_control", 6),
], ids=["conjecture_patch10", "verify_shielding_chain", "verify_shielding_control"])
def test_verdicts_form_no_full_lattice_state(state_dims, run, name, n_sites):
    # reduced states come straight from the blocks: every state formed lives
    # on A (conjecture) or on Y (verify-shielding), never on all n sites
    run(shipped_config(name, trials=2))
    assert state_dims and max(state_dims) < 2 ** n_sites


def test_counterexample_solves_each_diamond_once(eig_calls):
    # every beta reads the one spectrum of each h1's diamond
    cfg = {"h4": 1.0, "betas": [1.0, 4.0], "h1_grid": [0.0, 0.5, 1.5]}
    assert len(run_counterexample(cfg).rows) == 2 * 3
    assert len(eig_calls) == 3


@pytest.mark.parametrize("run, cfg", [
    (run_conjecture, lambda: shipped_config("conjecture_patch10", trials=2)),
    (run_verify_shielding, lambda: shipped_config("verify_shielding_chain", trials=2)),
    (run_verify_shielding, lambda: shipped_config("verify_shielding_control", trials=2)),
    (run_counterexample, lambda: shipped_config("counterexample")),
    (run_quench_experiment, short_quench),
    (run_quench_experiment, lambda: short_quench("z")),
], ids=["conjecture_patch10", "verify_shielding_chain", "verify_shielding_control",
        "counterexample", "quench", "blocked_quench"])
def test_no_solve_builds_a_dense_hamiltonian(monkeypatch, run, cfg):
    # the blocks are read from the terms; to_dense is left to the oracles
    def no_dense(self):
        raise AssertionError("HamiltonianTerms.to_dense called")

    monkeypatch.setattr(HamiltonianTerms, "to_dense", no_dense)
    assert run(cfg()).rows
