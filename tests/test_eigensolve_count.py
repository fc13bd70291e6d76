"""Each Hamiltonian is diagonalized once, whatever reads its spectrum.

``shieldlab.thermal.eig_hermitian`` is the only eigensolver call for
Hamiltonians; a counting wrapper around it shows how many distinct solves a
computation needs. Counting wrappers around ``SpectralDecomposition.function``
and ``DensityMatrix`` show which states a verdict forms.
"""

import numpy as np
import pytest

import shieldlab.thermal as thermal
from shieldlab import (
    DensityMatrix,
    PauliString,
    ShieldlabError,
    build_hamiltonian,
    gibbs,
    ground_state_density,
    make_chain,
    run_conjecture,
    run_quench_experiment,
    run_verify_shielding,
    shielded_dynamics_check,
    split_hamiltonian,
    validate_split,
)

from helpers import random_product_state
from test_experiments import chain_config, lattice_json, shipped_config, triangle_config


@pytest.fixture
def eig_calls(monkeypatch):
    calls = []
    original = thermal.eig_hermitian

    def counted(matrix):
        calls.append(np.asarray(matrix).shape[0])
        return original(matrix)

    monkeypatch.setattr(thermal, "eig_hermitian", counted)
    return calls


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


@pytest.fixture
def lapack_shapes(monkeypatch):
    shapes = []
    original = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


def shielded_chain(n=6, L=3):
    h = [0.6] * n
    h[L] = 0.0
    lat = make_chain(n, [1.0, -0.7, 1.3, 0.4, -1.1][: n - 1], h)
    return lat, validate_split(lat, range(L + 1), range(L, n))


def test_verify_shielding_solves_each_trial_once_plus_the_shielded_side(eig_calls):
    trials = 3
    cfg = chain_config(n=5, L=2, trials=trials, betas=[0.5, 2.0, "inf"])
    table = run_verify_shielding(cfg)
    assert len(table.rows) == trials * 3
    assert len(eig_calls) == trials + 1


def test_shielded_dynamics_check_solves_two_hamiltonians(eig_calls):
    lat, split = shielded_chain()
    parts = split_hamiltonian(build_hamiltonian(lat), split)
    rng = np.random.default_rng(3)
    rho0 = DensityMatrix(random_product_state(rng, 6), tuple(range(6)))
    times = [0.3, 0.9, 1.7, 2.2, 4.0]
    dev = shielded_dynamics_check(parts.h_x, parts.h_y,
                                  PauliString.single(6, 5, "X"), rho0, times)
    assert dev < 1e-10
    assert len(eig_calls) == 2


def test_gibbs_states_and_ground_state_share_one_solve(eig_calls):
    lat, _ = shielded_chain()
    H = build_hamiltonian(lat)
    for beta in (0.1, 1.0, 5.0):
        gibbs(H, beta)
    assert ground_state_density(H).degeneracy == 2
    assert len(eig_calls) == 1


def test_quench_runner_solves_pre_and_post_once(eig_calls):
    lat, _ = shielded_chain()
    cfg = {
        "pre": lattice_json(lat),
        "quench_site": 0,
        "quench_h": -2.0,
        "times": {"start": 0.0, "stop": 1.0, "step": 0.25},
    }
    assert len(run_quench_experiment(cfg).rows) == 5 * 6
    assert eig_calls == [64, 64]


def test_config_with_an_unread_key_solves_nothing(eig_calls):
    lat, _ = shielded_chain()
    quench = {"pre": lattice_json(lat), "quench_site": 0, "quench_h": -2.0,
              "times": {"start": 0.0, "stop": 1.0, "step": 0.25, "num": 5}}
    conjecture = triangle_config("ground")
    conjecture["split"]["Z"] = [0]
    for run, cfg in ((run_verify_shielding, chain_config(trails=2)),
                     (run_quench_experiment, quench),
                     (run_conjecture, conjecture)):
        with pytest.raises(ShieldlabError, match="is unknown or does not apply"):
            run(cfg)
    assert eig_calls == []


def test_conjecture_patch_trial_is_four_blocks_of_128(eig_calls, lapack_shapes):
    # 10 sites, three zero-field interface sites: 2^(3-1) blocks of 2^(10-3)
    run_conjecture(shipped_config("conjecture_patch10", trials=3))
    assert eig_calls == [1024] * 3
    assert lapack_shapes == [(4, 128, 128)] * 3


def test_control_without_zero_field_site_solves_two_half_blocks(eig_calls, lapack_shapes):
    # the interface field leaves the full 6-site H no zero-field site, so it
    # is solved in its two spin-flip sectors; split_hamiltonian charges that
    # field to H_X, so the shielded 4-site side keeps one and is one block
    run_verify_shielding(shipped_config("verify_shielding_control", trials=2))
    assert eig_calls == [16, 64, 64]
    assert lapack_shapes == [(1, 8, 8), (2, 32, 32), (2, 32, 32)]


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
