"""Each Hamiltonian is diagonalized once, whatever reads its spectrum.

``shieldlab.thermal.spectrum`` decomposes every Hamiltonian once, in one
stacked ``np.linalg.eigh`` call per component of its field sites. A counting
wrapper around ``shieldlab.thermal._decompose`` shows how many Hamiltonians a
computation solves, and one around ``np.linalg.eigh`` the block stacks it
hands to LAPACK; one around ``np.linalg.svd`` shows the free-fermion
quench's one solve per chain. Counting wrappers around ``_reduced_states`` and
``DensityMatrix`` show which states a verdict forms, and a
``HamiltonianTerms.to_dense`` that raises shows that no solve builds a
dense Hamiltonian.
"""

import math

import numpy as np
import pytest

import shieldlab.thermal as thermal
from shieldlab import (
    HamiltonianTerms,
    ShieldlabError,
    build_hamiltonian,
    make_chain,
    reduced_state,
    run_conjecture,
    run_counterexample,
    run_quench_experiment,
    run_verify_shielding,
    update_parameters,
    validate_split,
)

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
def svd_calls(monkeypatch):
    """A copy of every matrix handed to ``np.linalg.svd``, one per call."""
    seen = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return seen


@pytest.fixture
def decomposed(monkeypatch):
    """The terms of every Hamiltonian handed to ``_decompose``, one per call."""
    seen = []
    decompose = thermal._decompose

    def recorded(H):
        seen.append(H.terms)
        return decompose(H)

    monkeypatch.setattr(thermal, "_decompose", recorded)
    return seen


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
    """Dimensions of every piece ``_reduced_states`` returns, through the
    bindings of both ``thermal`` and ``experiments``, and of every
    ``DensityMatrix`` built."""
    import shieldlab.experiments as experiments
    dims = []
    reduced_states = thermal._reduced_states
    check = thermal.DensityMatrix.__post_init__

    def counted_reduced_states(*args):
        pieces = reduced_states(*args)
        dims.extend(len(p) for per_beta in pieces for p in per_beta)
        return pieces

    def counted_check(self):
        check(self)
        dims.append(self.dim)

    monkeypatch.setattr(thermal, "_reduced_states", counted_reduced_states)
    monkeypatch.setattr(experiments, "_reduced_states", counted_reduced_states)
    monkeypatch.setattr(thermal.DensityMatrix, "__post_init__", counted_check)
    return dims


@pytest.fixture
def reads(monkeypatch):
    """The betas of every ``_reduced_states`` call, one list per call,
    through the bindings of both ``thermal`` and ``experiments``."""
    import shieldlab.experiments as experiments
    betas = []
    reduced_states = thermal._reduced_states

    def recorded(H, at, *args):
        betas.append(list(at))
        return reduced_states(H, at, *args)

    monkeypatch.setattr(thermal, "_reduced_states", recorded)
    monkeypatch.setattr(experiments, "_reduced_states", recorded)
    return betas


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


def test_verify_shielding_solves_each_trial_once_plus_the_shielded_side(
        decomposed, eig_calls):
    # one decomposition per Hamiltonian: the zero field on site 2 cuts each
    # trial's field sites into {0, 1} and {3, 4}, and leaves the shielded
    # side {3, 4} alone, one real stack of 4 each
    trials = 3
    cfg = chain_config(n=5, L=2, trials=trials, betas=[0.5, 2.0, "ground"])
    table = run_verify_shielding(cfg)
    assert len(table.rows) == trials * 3
    assert len(decomposed) == len(set(decomposed)) == trials + 1
    assert eig_calls == [(1, 4, 4)] * (2 * trials + 1)


def test_verify_shielding_reads_each_trial_once_for_every_beta(reads):
    # the shielded side is read first, then each trial's lattice, each in
    # one pass for the whole beta list
    cfg = chain_config(n=5, L=2, trials=3, betas=[0.5, 2.0, "ground"])
    assert len(run_verify_shielding(cfg).rows) == 3 * 3
    assert reads == [[0.5, 2.0, math.inf]] * (1 + 3)


def test_thermal_states_and_ground_state_share_one_solve(decomposed, eig_calls):
    # one decomposition, a real stack for each side of the zero field on site 3
    lat, _ = shielded_chain()
    H = build_hamiltonian(lat)
    for beta in (0.1, 1.0, 5.0, math.inf):
        reduced_state(H, beta, range(H.n_sites))
    dec = thermal.spectrum(H)
    assert np.count_nonzero(thermal._weights(dec, math.inf)(dec.eigenvalues)) == 2
    assert decomposed == [H.terms]
    assert eig_calls == [(1, 8, 8), (1, 4, 4)]


def test_quench_runner_solves_pre_and_post_once(solved_terms, eig_calls, svd_calls):
    # a chain read through X_i: each lattice is one SVD of its 6x6 a-b
    # Majorana block, whose diagonal is -2h, the pre's first; no eigh is
    # called and no block spectrum is read
    table = run_quench_experiment(short_quench())
    assert len(table.rows) == 5 * 6 and table.metadata["solver"] == "free-fermion"
    assert [k.shape for k in svd_calls] == [(6, 6), (6, 6)]
    pre, _ = shielded_chain()
    assert [k[0, 0] for k in svd_calls] == [-2 * pre.h[0], -2 * -2.0]
    assert eig_calls == []
    assert solved_terms == []


def test_blocked_quench_runner_solves_pre_and_post_once(
        solved_terms, decomposed, eig_calls):
    # read through Z_i, the same chain takes the blocked path. The zero
    # field on site 3 cuts the field sites of both the pre and the post into
    # {0, 1, 2} and {4, 5}: each is one decomposition, a real stack per side,
    # the pre's ground space read from its spectrum like the post's times
    table = run_quench_experiment(short_quench("z"))
    assert len(table.rows) == 5 * 6 and table.metadata["solver"] == "blocked"
    assert eig_calls == [(1, 8, 8), (1, 4, 4)] * 2
    pre, _ = shielded_chain()
    post = update_parameters(pre, h=[-2.0, *pre.h[1:]])
    terms = [build_hamiltonian(lat).terms for lat in (pre, post)]
    assert solved_terms == decomposed == terms


def test_quench_pre_with_its_zero_field_at_a_chain_end_is_one_block(eig_calls):
    # a zero field at the end leaves the other sites one component, so the
    # pre is one real block of 32 like the post
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


def test_conjecture_patch_trial_is_one_stack_per_component(decomposed, eig_calls):
    # 10 sites, three zero-field interface sites: 2^(3-1) patterns, whose
    # blocks of 2^(10-3) are products over the field sites cut into 3 and 4
    run_conjecture(shipped_config("conjecture_patch10", trials=3))
    assert len(decomposed) == len(set(decomposed)) == 3
    assert eig_calls == [(4, 8, 8), (4, 16, 16)] * 3


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


def test_counterexample_solves_each_diamond_once(decomposed, eig_calls):
    # every beta reads the one spectrum of each h1's diamond. At h1 = 0 only
    # site 3 has a field, one stack over 2^(3-1) patterns; else the zero-field
    # sites 1 and 2 cut sites 0 and 3 apart, one stack each
    cfg = {"h4": 1.0, "betas": [1.0, 4.0], "h1_grid": [0.0, 0.5, 1.5]}
    assert len(run_counterexample(cfg).rows) == 2 * 3
    assert len(decomposed) == len(set(decomposed)) == 3
    assert eig_calls == [(4, 2, 2)] + [(2, 2, 2)] * 4


def test_counterexample_reads_each_diamond_once_for_every_beta(reads):
    cfg = {"h4": 1.0, "betas": [1.0, 4.0, 7.0], "h1_grid": [0.0, 0.5, 1.5]}
    assert len(run_counterexample(cfg).rows) == 3 * 3
    assert reads == [[1.0, 4.0, 7.0]] * 3


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
