"""Exact quench dynamics: every time read from one solve of the post.

:func:`run_quench` is the library's only time evolution, and it takes one of
two paths, chosen from its inputs. A quench of open chains with g ≡ 0 from
the default ground mixture, read through ±X_i and ±Z_i Z_{i+1}, is solved
as free fermions (:mod:`shieldlab.freefermion`): one 2n×2n solve of each
whole chain, and every time read from the 2n×2n Majorana correlations.

Every other quench is solved in the real blocks of :mod:`shieldlab.thermal`
(split on the spin flip and on the Z of every zero-field site, each placed
in the full basis once per eigenspace it stands for), with no
Trotterization: the post-quench Hamiltonian is solved once and every time
step reads that one spectrum. The initial state's pure components are
projected onto each placement once, skipping those they have no part in,
and evolved there with real eigenvectors, every time of a batch in one real
product. The states stay in the real frame of the blocks, as their real and
imaginary parts; the y-field phases go into each observable's coefficients
instead, once per run. A batch holds as many times as fit a fixed budget of
full-basis entries, however small the blocks, and each observable is read
once per batch, over all of its columns, as one real product over half the
basis that pairs each row with the row its flips reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShieldlabError
from .freefermion import _quench_values
from .hamiltonian import build_hamiltonian
from .lattice import LatticeSpec
from .pauli import PauliString, check_dense_cap
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
    Observables must be Hermitian, so a word with phase ±i is rejected, and
    no two may share their first site, which keys their rows in the table.
    Errors name the field at fault (``post``, ``times`` or ``observables[k]``).
    """

    pre: LatticeSpec
    post: LatticeSpec
    times: tuple[float, ...]
    observables: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if self.pre.n_sites != self.post.n_sites:
            raise ShieldlabError("pre and post lattices differ in size", key="post")
        pre_pairs = [(i, j) for (i, j, _) in self.pre.edges]
        post_pairs = [(i, j) for (i, j, _) in self.post.edges]
        if pre_pairs != post_pairs:
            raise ShieldlabError("pre and post lattices differ in edge set", key="post")
        times = tuple(float(t) for t in self.times)
        if not all(map(math.isfinite, times)):
            raise ShieldlabError("must be finite", key="times")
        if any(t < 0 for t in times) or list(times) != sorted(times):
            raise ShieldlabError("must be non-negative and ascending", key="times")
        object.__setattr__(self, "times", times)
        first: dict[int, int] = {}
        for k, obs in enumerate(self.observables):
            if obs.n_sites != self.pre.n_sites:
                raise ShieldlabError(
                    f"observable {obs.to_text()!r} does not match the lattice size",
                    key=f"observables[{k}]")
            if obs.phase_k % 2:
                raise ShieldlabError(
                    f"{obs.to_text()!r} has phase +i or -i, so its expectation is not real",
                    key=f"observables[{k}]")
            site = _observable_site(obs)
            if first.setdefault(site, k) != k:
                raise ShieldlabError(
                    f"shares its site column ({site}) with observables[{first[site]}], "
                    "so the rows could not be told apart", key=f"observables[{k}]")


def _observable_site(obs: PauliString) -> int:
    sup = obs.support()
    return sup[0] if sup else -1


def _initial_states(protocol: QuenchProtocol, rho0: DensityMatrix | None) -> np.ndarray:
    """Pure states, each scaled by the square root of its weight, whose
    mixture Σ ψψ† is the initial state.

    By default these are the pre-quench ground columns, weighted uniformly,
    from :func:`shieldlab.thermal._ground_columns`, which solves each
    component that the pre's zero fields cut off on its own. Their mixture
    is the ground projector whatever basis spans it, so no verdict depends
    on the path. Whatever is solved here is released on return, so it
    never shares memory with the post spectrum.
    """
    if rho0 is None:
        states = _ground_columns(build_hamiltonian(protocol.pre))
        return states / math.sqrt(states.shape[1])
    if rho0.n_sites != protocol.pre.n_sites:
        raise ShieldlabError("initial state does not match the lattice")
    vals, vecs = np.linalg.eigh(rho0.matrix)
    keep = vals > 1e-14
    return vecs[:, keep] * np.sqrt(vals[keep])


def _folded(obs: PauliString, phases: np.ndarray | None):
    """The flip mask x of the Hermitian word ``obs`` and the real and
    imaginary parts (None where all zero) of its coefficients in the real
    frame of the phases d.

    There P′ = d̄ ⊙ P ⊙ dᵀ takes |j> to c′_j |j ^ x> with
    c′_j = i^k (-1)^popcount(j & z) d_j d̄_{j^x}. P′ is Hermitian, so entry j
    of P′ applied to the all-ones vector, d̄ ⊙ P d, is the conjugate of c′_j.
    For x = 0 the coefficients run over every row; else, doubled, over the
    rows j with x's top bit clear, in the order of :func:`_pairs`, standing
    for j and j ^ x.
    """
    x = obs.xzk[0]
    d = np.ones((1 << obs.n_sites, 1)) if phases is None else phases[:, None]
    c = (d * obs.apply(d).conj())[:, 0]
    if x:
        low = 1 << (x.bit_length() - 1)
        c = 2 * c.reshape(-1, 2, low)[:, 0].ravel()
    return x, *(part if part.any() else None for part in (c.real, c.imag))


def _pairs(evolved: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows j of ``evolved`` with flip mask x's top bit clear and their
    partners j ^ x, found by a reshape on that bit and a gather on x's lower
    bits, if it has any; for x = 0, every row paired with itself."""
    if not x:
        return evolved, evolved
    low = 1 << (x.bit_length() - 1)
    halves = evolved.reshape(-1, 2, low, *evolved.shape[1:])
    partners = halves[:, 1]
    if x != low:
        partners = partners[:, np.arange(low) ^ (x ^ low)]
    return halves[:, 0], partners


def _read(word, evolved: np.ndarray) -> np.ndarray:
    """Σ_φ ⟨φ|P′|φ⟩ per time, for P′ the word read by :func:`_folded` and
    states φ = a + ib held in the real array ``evolved`` of shape (rows,
    states, 2, times), a at [:, :, 0] and b at [:, :, 1].

    The pair (j, j′ = j ^ x) gives 2 Re[c′_j φ_j φ̄_j′] = 2[Re c′·(a a′ + b b′)
    − Im c′·(b a′ − a b′)], one real product per nonzero part of c′ over the
    rows j that :func:`_pairs` finds; b a′ and a b′ come from the same
    product with the partner's a and b swapped.
    """
    x, re, im = word
    lo, hi = _pairs(evolved, x)
    out = np.zeros(evolved.shape[-1])
    for part, partner, sign in ((re, hi, 1.0), (im, hi[..., ::-1, :], -1.0)):
        if part is not None:
            s = (part @ (lo * partner).reshape(part.size, -1)).reshape(evolved.shape[1:])
            out += s[:, 0].sum(axis=0) + sign * s[:, 1].sum(axis=0)
    return out


def run_quench(protocol: QuenchProtocol, rho0: DensityMatrix | None = None) -> ResultTable:
    """Evolve through a quench and tabulate (t, site, value) expectations.

    The initial state defaults to the uniform ground-space mixture of the
    pre-quench Hamiltonian; any caller-supplied state is used as-is. Rows
    are ordered by (t, site), each observable labeled by its first site
    (no two share one). Lattices over the dense cap are refused on either
    path, and the table's metadata names the one that ran as its ``solver``.

    From the default state, when pre and post are open chains with g ≡ 0
    and every observable is ±X_i or ±Z_i Z_{i+1}, the rows come from the
    chain's 2n×2n Majorana correlations (:mod:`shieldlab.freefermion`,
    ``"free-fermion"``): one small solve of each whole chain, no 2^n state
    and no split. That holds unless the pre has modes at or under the
    ground cut that, filled together, pass it; its ground mixture is then
    not Gaussian. There, and for every other input, the rows come from the
    post's blocks (:func:`_blocked_values`, ``"blocked"``). Both cut the
    ground space at the same :func:`shieldlab.thermal._ground_slack` of the
    pre's span, so only rounding differs between them.

    The headline identity, in this function's rows: let a zero-field
    interface split the post lattice into X and Y, with bulks A and B. The
    X-side terms (fields on A, couplings inside X) commute with the rest, so
    from any ``rho0``, post lattices that differ only on the X side give the
    same rows for every observable on B. The far side never feels H_X; with
    the X side set to zero it evolves under H_Y alone.
    """
    check_dense_cap(protocol.pre.n_sites)
    sites = [_observable_site(obs) for obs in protocol.observables]
    obs_order = np.argsort(np.array(sites), kind="stable")
    values, solver = None, "free-fermion"
    if rho0 is None:
        values = _quench_values(protocol.pre, protocol.post, protocol.times,
                                protocol.observables)
    if values is None:
        values, solver = _blocked_values(protocol, rho0, obs_order), "blocked"
    table = ResultTable(columns=("t", "site", "value"), metadata={"solver": solver})
    table.rows = [(t, sites[i], float(values[k, i]))
                  for k, t in enumerate(protocol.times) for i in obs_order]
    return table


def _blocked_values(protocol: QuenchProtocol, rho0: DensityMatrix | None,
                    obs_order: np.ndarray) -> np.ndarray:
    """Values of the observables (columns) at the times (rows), evolved in
    the post's real blocks, spectral throughout (no Trotterization).

    The initial state is decomposed once into pure states scaled by the
    square roots of their weights (:func:`_initial_states`), so that a
    time's value is a sum over columns. They are turned into the post's real
    frame (H = d ⊙ H′ ⊙ d̄ᵀ with H′ real) by d̄ and projected once into each
    placement of its blocks; a column whose projection is exactly zero is
    skipped there, and so is a placement with none left. A batch of times is
    evolved by one real product per placement, the block's real
    eigenvectors against the real and imaginary parts of the phased
    coordinates, and added into one real full-basis array per batch that
    holds both parts of every state at every time. A batch holds as many
    times as fit ``_BATCH_ENTRIES`` complex entries, the bytes of that array
    (at least one time), however small the blocks. Each observable is read
    once per batch by :func:`_read`, in ``obs_order``, its coefficients
    folded with d once per run by :func:`_folded`, so neither the evolution
    nor the readout forms a complex full-basis array.
    """
    states = _initial_states(protocol, rho0)
    post = spectrum(build_hamiltonian(protocol.post))
    if post.phases is not None:
        states = post.phases.conj()[:, None] * states

    width = states.shape[1]
    coords = []
    for p, (b, _, _) in enumerate(post.placements):
        proj = post.project(p, states)
        live = np.flatnonzero(proj.any(axis=0))
        if live.size:
            coords.append((p, live, _dot(post.blocks[b][1].T, proj[:, live])))
    batch = max(1, _BATCH_ENTRIES // (post.dim * width))
    words = [_folded(protocol.observables[i], post.phases) for i in obs_order]

    times = np.array(protocol.times)
    out = np.empty((times.size, len(words)))
    for start in range(0, times.size, batch):
        ts = times[start:start + batch]
        evolved = np.zeros((post.dim, width, 2, ts.size))
        for p, live, c in coords:
            w, v = post.blocks[post.placements[p][0]]
            phased = np.exp(-1j * np.outer(w, ts))[:, None, :] * c[:, :, None]
            parts = np.stack([phased.real, phased.imag], axis=2).reshape(w.size, -1)
            post.lift(p, _dot(v, parts).reshape(-1, live.size, 2, ts.size), evolved, live)
        for i, word in zip(obs_order, words):
            out[start:start + ts.size, i] = _read(word, evolved)
    return out
