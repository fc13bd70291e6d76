"""Chain quenches read from the free-fermion correlation matrix, against the
Kronecker-product oracle and against the blocked path, and the inputs that
keep the blocked path."""

import json

import numpy as np
import pytest

import shieldlab.dynamics as dynamics
from shieldlab import (
    DensityMatrix,
    PauliString,
    QuenchProtocol,
    ShieldlabError,
    emit,
    make_chain,
    make_triangular_patch,
    run_quench,
    run_quench_experiment,
    update_parameters,
    validate_lattice,
)

from helpers import dense_reference, kron_word, random_product_state
from test_experiments import shipped_config

TIMES = (0.0, 0.35, 1.7, 4.2)


def oracle(pre, post, times, observables):
    """Values (times × observables) of the uniform mixture over the pre's
    levels within 1e-9·max(span, 1) of the lowest, evolved under the post,
    all from eigh of the kron-built matrices."""
    w, v = np.linalg.eigh(dense_reference(pre))
    ground = w <= w[0] + 1e-9 * max(w[-1] - w[0], 1.0)
    wp, vp = np.linalg.eigh(dense_reference(post))
    start = vp.conj().T @ v[:, ground]
    words = [kron_word(o) for o in observables]
    out = []
    for t in times:
        psi = vp @ (np.exp(-1j * wp * t)[:, None] * start)
        out.append([np.vdot(psi, p @ psi).real / psi.shape[1] for p in words])
    return np.array(out)


def table_values(table, observables, times):
    """The rows of ``table`` as (times × observables), in the order given."""
    assert [r[:2] for r in table.rows] == sorted(r[:2] for r in table.rows)
    by_key = {r[:2]: r[2] for r in table.rows}
    return np.array([[by_key[t, o.support()[0]] for o in observables] for t in times])


def random_chain_quench(rng, n):
    """A chain with couplings and fields of either sign, quenched to -10 on
    one site, read through one ±X_i or ±Z_i Z_{i+1} per site. Every third
    chain has one zero field, and every third one a zero coupling as well."""
    J = rng.uniform(0.3, 1.5, n - 1) * rng.choice([-1, 1], n - 1)
    h = rng.uniform(0.3, 1.5, n) * rng.choice([-1, 1], n)
    if n % 3 == 1:
        J[rng.integers(n - 1)] = 0.0
    if n % 3 != 2:
        h[rng.integers(n)] = 0.0
    pre = make_chain(n, J, h)
    quenched = h.copy()
    quenched[rng.integers(n)] = -10.0
    obs = []
    for i in range(n):
        sign = 2 * int(rng.integers(2))
        if i < n - 1 and rng.random() < 0.5:
            obs.append(PauliString.from_sites(n, {i: "Z", i + 1: "Z"}, sign))
        else:
            obs.append(PauliString.from_sites(n, {i: "X"}, sign))
    return pre, make_chain(n, J, quenched), tuple(obs)


def check_against_oracle(pre, post, obs, solver="free-fermion"):
    table = run_quench(QuenchProtocol(pre, post, TIMES, obs))
    assert table.metadata == {"solver": solver}
    ref = oracle(pre, post, TIMES, obs)
    assert np.abs(table_values(table, obs, TIMES) - ref).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_random_chains_match_the_kron_oracle(n):
    check_against_oracle(*random_chain_quench(np.random.default_rng(2024 + n), n))


def test_zero_couplings_and_fields_give_many_zero_modes():
    # sites 1, 2 and 4 have no field and site 2 no coupling: three exactly
    # zero modes, an eightfold ground space; fields of both signs
    pre = make_chain(6, [0.8, 0.0, 0.0, 1.1, 0.0], [0.7, 0.0, 0.0, -0.9, 0.0, 0.5])
    post = update_parameters(pre, h=[-10.0, 0.0, 0.0, -0.9, 0.0, 0.5])
    obs = (PauliString.from_text("- X0", 6), PauliString.from_text("+ Z1 Z2", 6),
           PauliString.from_text("- Z2 Z3", 6), PauliString.from_text("+ X3", 6),
           PauliString.from_text("+ Z4 Z5", 6), PauliString.from_text("- X5", 6))
    check_against_oracle(pre, post, obs)


def test_a_mode_under_the_cut_is_left_empty_and_filled():
    # a field of 3e-10 on a decoupled site is one mode of 6e-10, under the
    # cut of 1.6e-9: the ground space holds both of its fillings
    pre = make_chain(2, [0.0], [3e-10, 0.8])
    post = update_parameters(pre, h=[3e-10, -10.0], J_by_edge={(0, 1): 0.6})
    obs = (PauliString.from_text("+ X0", 2), PauliString.from_text("- X1", 2))
    check_against_oracle(pre, post, obs)


def test_modes_summing_past_the_cut_take_the_blocked_path():
    # two decoupled sites with h = 3e-10: modes of 6e-10 each, together
    # 1.2e-9, past the cut of 1e-9, so three of the four levels are in the
    # ground space, a mixture that is not Gaussian
    pre = make_chain(2, [0.0], [3e-10, 3e-10])
    post = update_parameters(pre, h=[3e-10, -10.0], J_by_edge={(0, 1): 0.6})
    w = np.linalg.eigvalsh(dense_reference(pre))
    assert np.count_nonzero(w <= w[0] + 1e-9) == 3
    obs = (PauliString.from_text("+ Z0 Z1", 2), PauliString.from_text("+ X1", 2))
    check_against_oracle(pre, post, obs, solver="blocked")


def test_shipped_chain_matches_the_blocked_path(monkeypatch):
    cfg = shipped_config("quench_chain12")
    fast = run_quench_experiment(cfg)
    monkeypatch.setattr(dynamics, "_quench_values", lambda *args: None)
    slow = run_quench_experiment(cfg)
    assert (fast.metadata["solver"], slow.metadata["solver"]) == ("free-fermion", "blocked")
    assert [r[:2] for r in fast.rows] == [r[:2] for r in slow.rows]
    assert max(abs(a[2] - b[2]) for a, b in zip(fast.rows, slow.rows)) <= 1e-12
    assert fast.metadata["verdict"]["status"] == slow.metadata["verdict"]["status"] == "pass"


def test_sidecar_names_the_path(tmp_path):
    cfg = shipped_config("quench_chain12")
    with_y = shipped_config("quench_chain12")
    with_y["pre"] = {**with_y["pre"], "g": [0.0, 0.3] + [0.0] * 10}
    for name, c, solver in (("chain", cfg, "free-fermion"), ("y", with_y, "blocked")):
        path = emit(run_quench_experiment(c), tmp_path / name / "quench.csv")
        sidecar = json.loads(path.with_suffix(".csv.meta.json").read_text())
        assert sidecar["solver"] == solver
        assert sidecar["verdict"]["status"] == "pass"


def chain_quench():
    pre = make_chain(5, [1.0, -0.7, 1.3, 0.4], [0.6, 0.8, 0.0, 0.7, 0.5])
    return pre, update_parameters(pre, h=[-10.0, *pre.h[1:]])


def y_field():
    pre, post = chain_quench()
    return (update_parameters(pre, g=[0.0, 0.4, 0.0, 0.0, 0.0]),
            update_parameters(post, g=[0.0, 0.4, 0.0, 0.0, 0.0]), None)


def z_word():
    pre, post = chain_quench()
    return pre, post, None


def callers_state():
    pre, post = chain_quench()
    rho0 = random_product_state(np.random.default_rng(5), 5)
    return pre, post, DensityMatrix(rho0, tuple(range(5)))


def triangle():
    lat, _ = make_triangular_patch([1, 2])
    post = update_parameters(lat, h=[-10.0, 0.5, 0.7])
    return update_parameters(lat, h=[0.3, 0.5, 0.7]), post, None


def out_of_order():
    # a path 0-2-1: its ZZ words are not Jordan-Wigner neighbours
    pre = validate_lattice(3, [(0, 2, 1.0), (1, 2, 0.7)], [0.5, 0.6, 0.4])
    return pre, update_parameters(pre, h=[-10.0, 0.6, 0.4]), None


@pytest.mark.parametrize("case, words", [
    (y_field, ("+ X1", "+ Z2 Z3")),
    (z_word, ("+ X1", "+ Z2")),
    (callers_state, ("+ X1", "+ Z2 Z3")),
    (triangle, ("+ X0", "+ Z1 Z2")),
    (out_of_order, ("+ X0", "+ Z1 Z2")),
], ids=["y_field", "z_word", "callers_state", "triangle", "out_of_order"])
def test_other_inputs_take_the_blocked_path(case, words):
    pre, post, rho0 = case()
    obs = tuple(PauliString.from_text(w, pre.n_sites) for w in words)
    table = run_quench(QuenchProtocol(pre, post, TIMES, obs), rho0=rho0)
    assert table.metadata == {"solver": "blocked"}
    assert len(table.rows) == len(TIMES) * len(obs)


def test_chains_over_the_cap_are_refused():
    pre = make_chain(13, [1.0] * 12, [0.5] * 13)
    with pytest.raises(ShieldlabError, match="^dense realization of 13 sites exceeds the cap"):
        run_quench(QuenchProtocol(pre, pre, (0.0,), (PauliString.single(13, 0, "X"),)))
