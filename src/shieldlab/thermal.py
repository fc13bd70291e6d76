"""Exact finite-temperature and ground-state machinery.

Everything here is spectral. Each Hamiltonian is diagonalized once: the
eigendecomposition is cached on the ``HamiltonianTerms``, and Gibbs states
at every beta, the ground space and the time evolution of
:mod:`shieldlab.dynamics` all read that one spectrum. Gibbs states shift the
ground energy out for stability; the ground state is always the uniform
mixture over the ground eigenspace (the beta → ∞ limit of the Gibbs state,
which keeps degenerate cases deterministic). The partial trace is computed
by exact index-bit bucketing.

The spectrum is held in two parity sectors. A per-site rotation about z
turns each site's field terms onto x, a X_i + b Y_i = r D_i X_i D_i† with
D_i = diag(1, e^{iφ}), and leaves every ZZ term alone. The rotated H′ is
real and commutes with the global spin flip P = ∏X_i, which reverses the
basis index, so it splits into two real blocks of half dimension, one per
eigenvalue ±1 of P. Gibbs states, ground mixtures and U(t) are assembled
from half-size products of those blocks and rotated back by the diagonal
phases d: ρ = d ⊙ ρ′ ⊙ d̄ᵀ. None of them forms a full 2^n eigenvector
matrix.

Verdict thresholds used throughout the experiment runners:

* a shielding distance below ``SHIELDING_PASS_TOL`` (1e-9) counts as exact
  agreement up to numerics,
* above ``SHIELDING_FAIL_TOL`` (1e-3) counts as a genuine violation,
* anything between is flagged indeterminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidSiteSetError,
    NotHermitianError,
    SizeMismatchError,
)
from .hamiltonian import HamiltonianTerms, build_hamiltonian, split_hamiltonian
from .lattice import LatticeSpec, RegionSplit
from .pauli import PauliString, check_dense_cap

SHIELDING_PASS_TOL = 1e-9
SHIELDING_FAIL_TOL = 1e-3

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12


def classify_distance(distance: float) -> str:
    """Map a trace distance onto the pass / fail / indeterminate verdict."""
    if distance < SHIELDING_PASS_TOL:
        return "pass"
    if distance > SHIELDING_FAIL_TOL:
        return "fail"
    return "indeterminate"


@dataclass
class SpectralDecomposition:
    """Eigenvalues and orthonormal eigenvector columns, block by block.

    ``blocks`` holds one (eigenvalues ascending, eigenvector columns) pair
    per invariant subspace. A matrix equal to its index reversal has two
    blocks, the P = +1 and P = -1 sectors of half dimension, and a sector
    column v stands for [v; ±v[::-1]]/√2 in the full basis; any other matrix
    has one block, the full basis. With ``phases`` d set, the blocks
    decompose M′ and the matrix described is M = d ⊙ M′ ⊙ d̄ᵀ.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    phases: np.ndarray | None = None

    def _sign(self, b: int) -> int:
        return (1, -1)[b] if len(self.blocks) == 2 else 0

    @property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending."""
        return np.sort(np.concatenate([w for w, _ in self.blocks]))

    @property
    def eigenvectors(self) -> np.ndarray:
        """Full-basis eigenvector columns, in the order of ``eigenvalues``."""
        w = np.concatenate([w for w, _ in self.blocks])
        return self.columns(lambda w: slice(None))[:, np.argsort(w, kind="stable")]

    def lift(self, b: int, y: np.ndarray) -> np.ndarray:
        """Full-basis form d ⊙ L y of columns ``y`` given in block ``b``."""
        sign = self._sign(b)
        if sign:
            y = np.concatenate([y, sign * y[::-1]]) / math.sqrt(2.0)
        return y if self.phases is None else self.phases[:, None] * y

    def project(self, b: int, x: np.ndarray) -> np.ndarray:
        """Coordinates L† (d̄ ⊙ x) in block ``b`` of full-basis columns ``x``."""
        if self.phases is not None:
            x = self.phases.conj()[:, None] * x
        sign, h = self._sign(b), x.shape[0] // 2
        return (x[:h] + sign * x[::-1][:h]) / math.sqrt(2.0) if sign else x

    def columns(self, keep) -> np.ndarray:
        """Full-basis eigenvector columns whose eigenvalues ``keep(w)`` selects."""
        return np.hstack([self.lift(b, v[:, keep(w)])
                          for b, (w, v) in enumerate(self.blocks)])

    def function(self, f) -> np.ndarray:
        """f(M) = Σ V f(w) V† over the blocks, as a full-basis matrix.

        Columns with f(w) exactly 0 are skipped. Each sector contributes a
        half-size product A_±; with S = A₊ + A₋, D = A₊ - A₋ and J the index
        reversal, the two sectors sum to ½[[S, D·J], [J·D, J·S·J]].
        """
        parts = []
        for w, v in self.blocks:
            fw = f(w)
            nonzero = fw != 0
            if not nonzero.all():
                v, fw = v[:, nonzero], fw[nonzero]
            vf = v * fw
            parts.append(vf @ v.conj().T if np.iscomplexobj(v) else _dot(v, vf.T))
        if len(parts) == 1:
            out = parts[0]
        else:
            plus, minus = parts
            s, d = plus + minus, plus - minus
            h = s.shape[0]
            out = np.empty((2 * h, 2 * h), dtype=s.dtype)
            out[:h, :h], out[h:, h:] = s, s[::-1, ::-1]
            out[:h, h:], out[h:, :h] = d[:, ::-1], d[::-1]
            out *= 0.5
        if self.phases is not None:
            out = self.phases[:, None] * out * self.phases.conj()
        return out


def _dot(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z, as one real product over z's real and imaginary parts when a is real."""
    if np.iscomplexobj(a) or not np.iscomplexobj(z):
        return a @ z
    m = z.shape[1]
    both = a @ np.concatenate([z.real, z.imag], axis=1)
    return both[:, :m] + 1j * both[:, m:]


def eig_hermitian(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Matrices with exactly zero imaginary part take the real-symmetric LAPACK
    path, which is several times faster at the dimensions used here. A
    matrix equal to its index reversal (P M P = M for the global spin flip
    P = ∏X_i) is solved in the two half-size sectors
    M_± = M[:h, :h] ± M[:h, h:][:, ::-1]; any other in the full basis.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SizeMismatchError(f"expected a square matrix, got {matrix.shape}")
    n_sites = int(matrix.shape[0]).bit_length() - 1
    if (1 << n_sites) != matrix.shape[0]:
        raise SizeMismatchError(f"dimension {matrix.shape[0]} is not a power of two")
    check_dense_cap(n_sites)
    scale = max(1.0, float(np.abs(matrix).max()))
    if float(np.abs(matrix - matrix.conj().T).max()) > _HERMITICITY_TOL * scale:
        raise NotHermitianError("matrix is not Hermitian")
    if np.iscomplexobj(matrix) and not np.any(matrix.imag):
        matrix = matrix.real
    if n_sites == 0 or not np.array_equal(matrix, matrix[::-1, ::-1]):
        return SpectralDecomposition((tuple(np.linalg.eigh(matrix)),))
    h = matrix.shape[0] // 2
    turned = matrix[:h, h:][:, ::-1]
    return SpectralDecomposition(tuple(
        tuple(np.linalg.eigh(matrix[:h, :h] + sign * turned)) for sign in (1, -1)))


def _rotate_y(H: HamiltonianTerms) -> tuple[HamiltonianTerms, np.ndarray | None]:
    """H′ with every Y field turned onto X, and the phases d of H = d ⊙ H′ ⊙ d̄ᵀ.

    a X_i + b Y_i = r D_i X_i D_i† with r = hypot(a, b), D_i = diag(1, e^{iφ})
    and φ = atan2(b, a); d is the diagonal of ⊗ D_i. Sites without a Y field
    keep their X coefficient and phase 1; without any Y field H′ is H.
    """
    if not H.has_y_terms():
        return H, None
    n = H.n_sites
    fields: dict[int, list[float]] = {}
    terms = []
    for c, p in H.terms:
        sup = p.support()
        if len(sup) == 1:
            fields.setdefault(sup[0], [0.0, 0.0])["XY".index(p.letters[sup[0]])] += c
        else:
            terms.append((c, p))
    idx = np.arange(1 << n)
    angle = np.zeros(1 << n)
    for i, (a, b) in sorted(fields.items()):
        if b != 0.0:
            angle += math.atan2(b, a) * ((idx >> (n - 1 - i)) & 1)
        terms.append((math.hypot(a, b) if b != 0.0 else a, PauliString.single(n, i, "X")))
    return HamiltonianTerms(n, tuple(terms)), np.exp(1j * angle)


def _spectrum(H: HamiltonianTerms) -> SpectralDecomposition:
    """Eigendecomposition of ``H``, solved on first use and cached on ``H``.

    Y fields are rotated away first (:func:`_rotate_y`), so the matrix solved
    is real and commutes with the spin flip: its two parity sectors are real
    half-size blocks, and the rotation comes back as the decomposition's
    phases.
    """
    if H._spectrum is None:
        rotated, phases = _rotate_y(H)
        H._spectrum = replace(eig_hermitian(rotated.to_dense()), phases=phases)
    return H._spectrum


def _ground_cut(dec: SpectralDecomposition, degeneracy_tol: float = 1e-9) -> float:
    """Highest energy in the ground space that ground_state_density defines."""
    w = dec.eigenvalues
    return w[0] + degeneracy_tol * max(float(w[-1] - w[0]), 1.0)


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace state on a labeled set of sites.

    ``site_labels`` are the global site indices the state lives on, in the
    order of the tensor factors (ascending everywhere in this library).
    ``degeneracy`` is set on ground states to record the dimension of the
    ground eigenspace.
    """

    matrix: np.ndarray
    site_labels: tuple[int, ...]
    degeneracy: int | None = None

    def __post_init__(self) -> None:
        self.site_labels = tuple(int(i) for i in self.site_labels)
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SizeMismatchError(f"density matrix must be square, got {m.shape}")
        if m.shape[0] != 1 << len(self.site_labels):
            raise SizeMismatchError(
                f"dimension {m.shape[0]} does not match {len(self.site_labels)} sites"
            )
        if float(np.abs(m - m.conj().T).max()) > _HERMITICITY_TOL:
            raise NotHermitianError("density matrix is not Hermitian")
        if abs(complex(np.trace(m)).real - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace is {complex(np.trace(m)).real!r}, expected 1")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.site_labels)


def _default_labels(n_sites: int, site_labels) -> tuple[int, ...]:
    if site_labels is None:
        return tuple(range(n_sites))
    labels = tuple(int(i) for i in site_labels)
    if len(labels) != n_sites:
        raise SizeMismatchError("site_labels length does not match n_sites")
    return labels


def gibbs(H: HamiltonianTerms, beta: float, site_labels=None) -> DensityMatrix:
    """Exact Gibbs state exp(-beta H) / Z at finite beta >= 0.

    Computed spectrally with the spectrum shifted by its minimum, so large
    beta cannot overflow. ``beta = 0`` gives the maximally mixed state. Use
    :func:`thermal_state` if beta may be infinite.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    dec = _spectrum(H)
    low = dec.eigenvalues[0]
    z = sum(float(np.exp(-beta * (w - low)).sum()) for w, _ in dec.blocks)
    rho = dec.function(lambda w: np.exp(-beta * (w - low)) / z)
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(rho, _default_labels(H.n_sites, site_labels))


def ground_state_density(H: HamiltonianTerms, degeneracy_tol: float = 1e-9,
                         site_labels=None) -> DensityMatrix:
    """Uniform mixture over the ground eigenspace (the beta → ∞ Gibbs limit).

    Eigenvalues within ``degeneracy_tol`` of the minimum, measured relative
    to the spectral span, belong to the ground space; its dimension is
    reported on the result's ``degeneracy`` field.
    """
    dec = _spectrum(H)
    cut = _ground_cut(dec, degeneracy_tol)
    d = int(np.count_nonzero(dec.eigenvalues <= cut))
    rho = dec.function(lambda w: (w <= cut) / d)
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(rho, _default_labels(H.n_sites, site_labels), degeneracy=d)


def thermal_state(H: HamiltonianTerms, beta: float, site_labels=None) -> DensityMatrix:
    """Gibbs state at finite beta, ground-state mixture at beta = inf."""
    if math.isinf(beta):
        return ground_state_density(H, site_labels=site_labels)
    return gibbs(H, beta, site_labels=site_labels)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the sites labeled by ``keep``.

    Exact index-bit bucketing: with kept sites K and traced sites T, entry
    (a, b) of the result sums rho[pack(a, c), pack(b, c)] over all traced
    configurations c, where pack() scatters local bits back into global bit
    positions under the site-0-is-MSB convention.
    """
    keep = sorted(int(i) for i in keep)
    labels = rho.site_labels
    if len(set(keep)) != len(keep) or not set(keep) <= set(labels):
        raise InvalidSiteSetError(f"keep={keep} is not a subset of {labels}")
    pos = {site: k for k, site in enumerate(labels)}
    n = rho.n_sites
    keep_pos = [pos[s] for s in keep]
    trace_pos = [p for p in range(n) if p not in keep_pos]

    def offsets(positions: list[int]) -> np.ndarray:
        m = len(positions)
        out = np.zeros(1 << m, dtype=np.int64)
        for local in range(1 << m):
            s = 0
            for r, p in enumerate(positions):
                s += ((local >> (m - 1 - r)) & 1) << (n - 1 - p)
            out[local] = s
        return out

    A = offsets(keep_pos)
    C = offsets(trace_pos)
    reduced = np.zeros((A.size, A.size), dtype=rho.matrix.dtype)
    for c in C:
        reduced += rho.matrix[np.ix_(A + c, A + c)]
    reduced = (reduced + reduced.conj().T) / 2.0
    return DensityMatrix(reduced, tuple(keep))


def expectation(rho: DensityMatrix, obs) -> float:
    """Real expectation value Tr(rho · obs).

    ``obs`` is a Pauli word or a dense matrix. A Pauli word either matches
    the state's sites positionally or is a global word whose support lies
    inside ``rho.site_labels`` (it is then restricted automatically).
    Raises if the imaginary residual exceeds 1e-10.
    """
    if isinstance(obs, PauliString):
        if obs.n_sites == rho.n_sites:
            word = obs
        elif set(obs.support()) <= set(rho.site_labels):
            pos = {site: k for k, site in enumerate(rho.site_labels)}
            word = PauliString.from_sites(
                rho.n_sites, {pos[i]: obs.letters[i] for i in obs.support()},
                obs.phase_k,
            )
        else:
            raise SizeMismatchError(
                f"observable {obs.to_text()!r} is not supported on sites "
                f"{rho.site_labels}"
            )
        # Tr(rho P) gathered along the stripe rho[j, j ^ mask]; O(dim) work
        mask, coefs = word.basis_action()
        idx = np.arange(rho.dim)
        value = complex(np.dot(rho.matrix[idx, idx ^ mask], coefs))
    else:
        obs = np.asarray(obs)
        if obs.shape != rho.matrix.shape:
            raise SizeMismatchError(
                f"observable shape {obs.shape} does not match state {rho.matrix.shape}"
            )
        value = complex(np.einsum("ij,ji->", rho.matrix, obs))
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residual {value.imag}")
    return float(value.real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b (both Hermitian, so via eigenvalues)."""
    if a.dim != b.dim:
        raise SizeMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


@dataclass
class ShieldingReport:
    """Outcome of one shielding comparison.

    ``lhs`` is the reduced Gibbs state of the full lattice on Y, ``rhs`` the
    Gibbs state of the shielded Hamiltonian alone; ``distance`` their trace
    distance and ``verdict`` its classification.
    """

    distance: float
    lhs: DensityMatrix
    rhs: DensityMatrix
    verdict: str


def _shielded_states(H: HamiltonianTerms, split: RegionSplit,
                     betas) -> dict[float, DensityMatrix]:
    """Thermal states on Y of the shielded part of ``H``, one per beta."""
    parts = split_hamiltonian(H, split)
    return {beta: thermal_state(parts.h_shielded, beta, site_labels=parts.y_sites)
            for beta in betas}


def _compare_shielded(H: HamiltonianTerms, rhs: DensityMatrix,
                      beta: float) -> ShieldingReport:
    """Report for Tr_X(thermal state of H) against ``rhs`` on its sites."""
    lhs = partial_trace(thermal_state(H, beta), rhs.site_labels)
    d = trace_distance(lhs, rhs)
    return ShieldingReport(distance=d, lhs=lhs, rhs=rhs, verdict=classify_distance(d))


def shielding_report(lat: LatticeSpec, split: RegionSplit, beta: float) -> ShieldingReport:
    """Compare Tr_X(thermal state of H) against the shielded thermal state on Y."""
    H = build_hamiltonian(lat)
    return _compare_shielded(H, _shielded_states(H, split, [beta])[beta], beta)
