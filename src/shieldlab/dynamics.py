"""Exact quench dynamics, read from the post-quench spectrum.

Evolution is spectral throughout (no Trotterization): the post-quench
Hamiltonian is solved once, as the real blocks of :mod:`shieldlab.thermal`
(split on the spin flip and on the Z of every zero-field site, each placed
in the full basis once per eigenspace it stands for), and every time step
reads that one spectrum. :func:`run_quench` is the library's only time
evolution. It projects the initial state's pure components onto each
placement once and evolves them there with real eigenvectors, every time
of a batch in one product. A batch holds as many times as fit a fixed
budget of full-basis entries, however small the blocks, and each
observable is read once per batch, over all of its columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShieldlabError, SizeMismatchError
from .hamiltonian import build_hamiltonian
from .lattice import LatticeSpec
from .pauli import PauliString
from .tables import ResultTable
from .thermal import DensityMatrix, _dot, _ground_columns, spectrum

# full-basis entries of one time batch of evolved states in run_quench
_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True)
class QuenchProtocol:
    """Sudden parameter change on a fixed graph, then unitary evolution.

    ``pre`` fixes the initial Hamiltonian (whose ground-space mixture is the
    default initial state), ``post`` the Hamiltonian driving the evolution.
    Both must share the site count and edge pairs; only parameters change.
    Observables must be Hermitian, so a word with phase ±i is rejected.
    Errors name the field at fault (``post``, ``times`` or ``observables[k]``).
    """

    pre: LatticeSpec
    post: LatticeSpec
    times: tuple[float, ...]
    observables: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if self.pre.n_sites != self.post.n_sites:
            raise SizeMismatchError("pre and post lattices differ in size", key="post")
        pre_pairs = [(i, j) for (i, j, _) in self.pre.edges]
        post_pairs = [(i, j) for (i, j, _) in self.post.edges]
        if pre_pairs != post_pairs:
            raise SizeMismatchError("pre and post lattices differ in edge set", key="post")
        times = tuple(float(t) for t in self.times)
        if not all(map(math.isfinite, times)):
            raise ShieldlabError("must be finite", key="times")
        if any(t < 0 for t in times) or list(times) != sorted(times):
            raise ShieldlabError("must be non-negative and ascending", key="times")
        object.__setattr__(self, "times", times)
        for k, obs in enumerate(self.observables):
            if obs.n_sites != self.pre.n_sites:
                raise SizeMismatchError(
                    f"observable {obs.to_text()!r} does not match the lattice size",
                    key=f"observables[{k}]")
            if obs.phase_k % 2:
                raise ShieldlabError(
                    f"{obs.to_text()!r} has phase +i or -i, so its expectation is not real",
                    key=f"observables[{k}]")


def _observable_site(obs: PauliString) -> int:
    sup = obs.support()
    return sup[0] if sup else -1


def _initial_states(protocol: QuenchProtocol,
                    rho0: DensityMatrix | None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted pure states (columns, weights) whose mixture is the initial state.

    By default these are the pre-quench ground columns, weighted uniformly,
    from :func:`shieldlab.thermal._ground_columns`, which solves each
    component that the pre's zero fields cut off on its own. Their mixture
    is the ground projector whatever basis spans it, so no verdict depends
    on the path. Whatever is solved here is released on return, so it
    never shares memory with the post spectrum.
    """
    if rho0 is None:
        states = _ground_columns(build_hamiltonian(protocol.pre))
        return states, np.full(states.shape[1], 1.0 / states.shape[1])
    if rho0.n_sites != protocol.pre.n_sites:
        raise SizeMismatchError("initial state does not match the lattice")
    vals, vecs = np.linalg.eigh(rho0.matrix)
    keep = vals > 1e-14
    return vecs[:, keep], vals[keep]


def run_quench(protocol: QuenchProtocol, rho0: DensityMatrix | None = None) -> ResultTable:
    """Evolve through a quench and tabulate (t, site, value) expectations.

    The initial state defaults to the uniform ground-space mixture of the
    pre-quench Hamiltonian; any caller-supplied state is used as-is. That
    default is read from the same block solve as every spectrum, with each
    component of the pre's field sites solved on its own
    (:func:`shieldlab.thermal._ground_columns`). No verdict rests on how it
    is computed: the identity below holds for any ``rho0``, and the mixture
    is the same ground projector, so only rounding differs. Rather than
    rotating the full density matrix at every time, the state is
    decomposed once into weighted pure states and projected once into each
    placement of the post-Hamiltonian's blocks. There it is evolved as
    vectors, a batch of times in one real-by-complex product done as one
    real product, and added into one full-basis array per batch. A batch
    holds as many times as fit ``_BATCH_ENTRIES`` entries of that array
    (at least one), however small the blocks. Each observable is then
    applied once to the whole array and summed per column. Rows are ordered
    by (t, site), with single-site observables labeled by their site.

    The headline identity, in this function's rows: let a zero-field
    interface split the post lattice into X and Y, with bulks A and B. The
    X-side terms (fields on A, couplings inside X) commute with the rest, so
    from any ``rho0``, post lattices that differ only on the X side give the
    same rows for every observable on B. The far side never feels H_X; with
    the X side set to zero it evolves under H_Y alone.
    """
    states, weights = _initial_states(protocol, rho0)
    post = spectrum(build_hamiltonian(protocol.post))

    coords = [_dot(post.blocks[b][1].conj().T, post.project(p, states))
              for p, (b, _, _) in enumerate(post.placements)]
    width = states.shape[1]
    batch = max(1, _BATCH_ENTRIES // (post.dim * width))
    sites = [_observable_site(obs) for obs in protocol.observables]
    obs_order = np.argsort(np.array(sites), kind="stable")

    rows = []
    times = np.array(protocol.times)
    for start in range(0, times.size, batch):
        ts = times[start:start + batch]
        evolved = np.zeros((post.dim, ts.size * width), dtype=complex)
        for p, ((b, _, _), c) in enumerate(zip(post.placements, coords)):
            w, v = post.blocks[b]
            # columns ordered by (time, state), as the readout reshapes them
            phased = np.exp(-1j * np.outer(w, ts))[:, :, None] * c[:, None, :]
            post.lift(p, _dot(v, phased.reshape(w.size, -1)), evolved)
        readouts = [np.sum(evolved.conj() * protocol.observables[i].apply(evolved), axis=0)
                    .reshape(ts.size, width) for i in obs_order]
        for k, t in enumerate(ts):
            for obs_idx, vals in zip(obs_order, readouts):
                value = float(np.real(np.sum(weights * vals[k])))
                rows.append((float(t), sites[obs_idx], value))
    table = ResultTable(columns=("t", "site", "value"))
    table.rows = rows
    return table
