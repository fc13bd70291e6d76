"""Exact finite-temperature and ground-state machinery.

Everything here is spectral. Each Hamiltonian is diagonalized once: the
eigendecomposition is cached on the ``HamiltonianTerms``, and Gibbs states
at every beta, the ground space and the blocked time evolution of
:mod:`shieldlab.dynamics` all read that one spectrum. Gibbs states shift the
ground energy out for stability; the ground state is always the uniform
mixture over the ground eigenspace (the beta → ∞ limit of the Gibbs state,
which keeps degenerate cases deterministic). Every state is read by one
reader, :func:`_reduced_states`: the rows of each placed block, sorted by
traced and kept bits, are gathered a batch of traced patterns at a time,
laid out as kept bits × (traced pattern, column), weighted by √f(w) and
summed as M M† a strip of rows at a time, so no product larger than a
strip is formed. One pass serves every beta of a call: the row order and
gather index of each placement are worked out once, and the weights and
kept columns once per block and beta. Every runner reads each Hamiltonian
once for all its betas, and :func:`_states` labels the pieces it reads.
Shielding verdicts and the conjecture runner keep a few sites, so they
never form a 2^n×2^n state; :func:`reduced_state` is the public reader of
one state on any sites, at any beta >= 0 (beta = inf for the ground
mixture), and forms the full state only when it keeps every site.

The spectrum is held in blocks, read by :func:`spectrum` (through
:func:`_decompose`) straight from the Hamiltonian's terms; no 2^n×2^n
Hamiltonian is formed on the way (its ``to_dense`` stays the tests' oracle
for these blocks). A per-site rotation about z turns each site's field terms
onto x, a X_i + b Y_i = r D_i X_i D_i† with D_i = diag(1, e^{iφ}), and
leaves every ZZ term alone. The rotated H′ is real and commutes with Z_l on
every site l that has no field, and with the spin flip ∏X_i over all sites
or over any component of the graph of ZZ terms. Every block is at most half
the basis. With m ≥ 1 zero-field sites, the first one's Z splits H′ into
2^(m-1) real blocks of dimension 2^(n-m), each placed plainly on its rows R
and on their flip R̄ = 2^n - 1 - R. With none, the spin flip of site 0's
component splits it into two sectors, each placed on R and on R̄, R with that
component's bits flipped, with coefficients (1, ±1)/√2. Once the Z's are
fixed, the field sites fall into components that do not interact: each is
solved for all patterns in one stacked call, and a block is the Kronecker
product of their eigenvectors. A placement turns a block column v into
Σ_k c_k·(v on R_k). States are read in the frame of H′ and rotated back by
the diagonal phases d: ρ = d ⊙ ρ′ ⊙ d̄ᵀ, a product over sites, so it
commutes with the partial trace. Quench states are evolved inside the
placements and stay in the frame of H′, where lifts and projections work;
the quench folds d into its observables instead. None of them lifts the
blocks into a full 2^n eigenvector matrix.

Verdict thresholds used throughout the experiment runners:

* a shielding distance below ``SHIELDING_PASS_TOL`` (1e-9) counts as exact
  agreement up to numerics,
* above ``SHIELDING_FAIL_TOL`` (1e-3) counts as a genuine violation,
* anything between is flagged indeterminate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShieldlabError
from .hamiltonian import HamiltonianTerms, build_hamiltonian, split_hamiltonian
from .lattice import LatticeSpec, RegionSplit
from .pauli import PauliString, _signs, check_dense_cap

SHIELDING_PASS_TOL = 1e-9
SHIELDING_FAIL_TOL = 1e-3

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
# eigenvalues within this share of the spectral span (at least 1) of the
# lowest one make up the ground space
_GROUND_TOL = 1e-9
# entries per batch of the loops that walk a block's columns or a full-basis
# state, so that none of them copies the whole block or state
_BATCH = 1 << 14
# a row strip of a product M M† in _reduced_states holds at most this share
# of its piece's rows, unless the whole product fits _BATCH entries
_STRIP_SHARE = 16


def classify_distance(distance: float) -> str:
    """Map a trace distance onto the pass / fail / indeterminate verdict."""
    return _classify(distance, SHIELDING_PASS_TOL)


def _classify(statistic: float, pass_tol: float) -> str:
    """The verdict on a statistic that is zero when the claim holds: pass
    below ``pass_tol``, fail above ``SHIELDING_FAIL_TOL``, else indeterminate."""
    if statistic < pass_tol:
        return "pass"
    if statistic > SHIELDING_FAIL_TOL:
        return "fail"
    return "indeterminate"


@dataclass
class SpectralDecomposition:
    """Eigenvalues and orthonormal eigenvector columns, block by block.

    ``blocks`` holds one (eigenvalues, eigenvector columns) pair per block:
    ascending for a solved block, not for a product of solved blocks;
    :attr:`eigenvalues` sorts them all. ``placements`` says where the blocks
    sit in the full basis: a placement (b, rows, coefs) turns a column v of
    block b into Σ_k coefs[k]·(v on rows[k]), ``rows`` holding one row set
    per coefficient. A block is placed once per eigenspace it stands for, so
    every eigenvalue counts once per placement, and the placed columns are
    orthonormal and cover the basis. With ``phases`` d set, the blocks
    decompose M′ and the matrix described is M = d ⊙ M′ ⊙ d̄ᵀ.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    placements: tuple[tuple[int, np.ndarray, tuple[float, ...]], ...]
    phases: np.ndarray | None = None

    @cached_property
    def dim(self) -> int:
        """Dimension of the full basis."""
        return sum(rows.shape[1] for _, rows, _ in self.placements)

    def _values(self) -> np.ndarray:
        """Eigenvalues in the order of :meth:`columns`, one copy per placement."""
        return np.concatenate([self.blocks[b][0] for b, _, _ in self.placements])

    @property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending."""
        return np.sort(self._values())

    def lift(self, p: int, y: np.ndarray, out: np.ndarray, cols=None) -> None:
        """Add Σ_k coefs[k]·(y on rows[k]) to full-basis columns ``out`` (to
        its columns ``cols`` only, if given: the second axis), for coordinates
        ``y`` in placement ``p``; only its rows are touched. The phases d are
        not applied: ``out`` is in the frame of M′."""
        _, rows, coefs = self.placements[p]
        for at, c in zip(rows, coefs):
            out[at if cols is None else np.ix_(at, cols)] += _scaled(c, y)

    def project(self, p: int, x: np.ndarray) -> np.ndarray:
        """Coordinates in placement ``p`` of full-basis columns ``x`` in the
        frame of M′: the adjoint of :meth:`lift`, Σ_k coefs[k]·x[rows[k]]."""
        _, rows, coefs = self.placements[p]
        return sum(_scaled(c, x[at]) for at, c in zip(rows, coefs))

    def columns(self, f) -> np.ndarray:
        """Full-basis eigenvector columns of M with weight f(w) ≠ 0, each
        scaled by √f(w), so that Σ ψψ† over them is f(M): the lifted block
        columns, times d."""
        picked = [v * np.sqrt(fw) for v, fw in (_weighted(f, *block) for block in self.blocks)]
        placed = [picked[b] for b, _, _ in self.placements]
        out = np.zeros((self.dim, sum(y.shape[1] for y in placed)), dtype=np.result_type(*picked))
        start = 0
        for p, y in enumerate(placed):
            self.lift(p, y, out[:, start:start + y.shape[1]])
            start += y.shape[1]
        return out if self.phases is None else self.phases[:, None] * out


def _weighted(f, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``v`` whose weight f(w) is not 0, and those weights;
    ``v`` itself, not a copy, when none is 0."""
    fw = f(w)
    nonzero = fw != 0
    return (v, fw) if nonzero.all() else (v[:, nonzero], fw[nonzero])


def _scaled(c: float, a: np.ndarray) -> np.ndarray:
    """c·a, without a copy when c is 1."""
    return a if c == 1.0 else c * a


def _offsets(bits) -> np.ndarray:
    """Every sum of a subset of ``bits``, in the order of a counter whose
    digits are ``bits``, the first one most significant."""
    out = np.zeros(1, dtype=np.int64)
    for bit in bits:
        out = (out[:, None] + np.array([0, bit])).ravel()
    return out


def _read_terms(H: HamiltonianTerms):
    """The field strengths r, the diagonal terms and the y-field phases of
    ``H``, read from its terms once its size is checked against the dense cap.

    Per site, the X and Y coefficients a, b are summed; the field is turned
    onto x with strength r = hypot(a, b) and phase φ = atan2(b, a), or r = a
    where b = 0. The diagonal terms come as (coefficient, Z mask) pairs in
    term order. The phases d = ⊗ diag(1, e^{iφ_i}) are None without y fields.
    """
    n = H.n_sites
    check_dense_cap(n)
    x, y, zz = [0.0] * n, [0.0] * n, []
    for c, p in H.terms:
        flip, sign, _ = p.xzk
        if flip:
            (y if sign else x)[n - flip.bit_length()] += c
        else:
            zz.append((c, sign))
    r = [math.hypot(xi, yi) if yi != 0.0 else xi for xi, yi in zip(x, y)]
    phases = None
    if any(y):
        phases = np.exp(1j * _offsets([math.atan2(b, a) if b else 0.0 for a, b in zip(x, y)]))
    return r, zz, phases


def _flip_stack(diag: np.ndarray, fields) -> np.ndarray:
    """Blocks holding the rows of ``diag`` on their diagonals and fields[k]
    wherever bit k of the block index flips, the first bit most significant."""
    d = diag.shape[1]
    a = np.arange(d)
    stack = np.zeros((len(diag), d, d))
    stack[:, a, a] = diag
    for k, f in enumerate(fields):
        stack[:, a, a ^ (1 << (len(fields) - 1 - k))] = f
    return stack


def spectrum(H: HamiltonianTerms) -> SpectralDecomposition:
    """Eigendecomposition of ``H``, read block by block from its terms by
    :func:`_decompose`, solved on first use and cached on ``H``."""
    if H._spectrum is None:
        H._spectrum = _decompose(H)
    return H._spectrum


def _decompose(H: HamiltonianTerms) -> SpectralDecomposition:
    """Eigendecomposition of ``H`` in blocks of at most half the basis,
    each a product over the parts of the field sites.

    The fields r and phases d are those of :func:`_read_terms`. Sites with
    r = 0 conserve their Z. The parts, the components of the field sites
    that the diagonal terms join, do not interact: each part's block holds
    on its diagonal the diagonal terms that touch it (the first part also
    those that touch none) and r_i wherever its site i flips, and is solved
    for all patterns in one stacked call; a block is the Kronecker product
    of the parts' eigenvectors, energies summed. Its rows R set the pivot's
    bit to 0. The pivot is either

    * the first zero-field site, R holding one pattern of the other
      conserved bits; each block is placed on R and on R̄ = 2^n - 1 - R; or
    * with no zero field, site 0, which leaves its part. Its field couples
      R to R̄, R with the bits of site 0's component flipped, as r_0 times
      the anti-identity J on that part, so the part is solved in its sectors
      ± r_0·J, and each sector's block is placed on (R, R̄) with (1, ±1)/√2.
    """
    n = H.n_sites
    r, zz, phases = _read_terms(H)
    bit = [1 << (n - 1 - i) for i in range(n)]
    conserved = [i for i in range(n) if r[i] == 0.0]
    # the parts: field sites of one label, joined across each diagonal term
    label = {i: i for i in range(n) if r[i] != 0.0}
    for _, sign in zz:
        ends = {label[i] for i in label if sign & bit[i]}
        if len(ends) > 1:
            label = {i: min(ends) if k in ends else k for i, k in label.items()}
    parts = [[i for i in label if label[i] == k] for k in sorted(set(label.values()))] or [[]]
    if conserved:
        flip = (1 << n) - 1
    else:  # pivot on site 0, the first site of the first part
        flip = sum(bit[i] for i in parts[0])
        parts[0] = parts[0][1:]
    patterns = _offsets([bit[i] for i in conserved[1:]])
    part_rows = [patterns[:, None] + _offsets([bit[i] for i in part]) for part in parts]
    masks = [sum(bit[i] for i in part) for part in parts]
    diags = [np.zeros(at.shape) for at in part_rows]
    for c, sign in zz:
        j = next((j for j, mask in enumerate(masks) if sign & mask), 0)
        diags[j] += c * _signs(part_rows[j], sign)
    stacks = [_flip_stack(diag, [r[i] for i in part]) for part, diag in zip(parts, diags)]
    if not conserved:
        cross = np.diag(np.full(part_rows[0].shape[1], r[0]))[::-1]  # r_0 J
        stacks[0] = np.concatenate([stacks[0] + cross, stacks[0] - cross])
    (w, v), *others = [np.linalg.eigh(stack) for stack in stacks]
    blocks = []
    for s in range(len(w)):
        ws, vs = w[s], v[s]
        p = s % len(patterns)  # block s's pattern: both sectors share the one
        for pw, pv in others:
            ws, vs = np.add.outer(ws, pw[p]).ravel(), np.kron(vs, pv[p])
        blocks.append((ws, vs))
    rows = patterns[:, None] + _offsets([bit[i] for part in parts for i in part])
    if conserved:
        placements = [(b, at[None], (1.0,))
                      for b, row in enumerate(rows) for at in (row, row ^ flip)]
    else:
        both, c = np.concatenate([rows, rows ^ flip]), math.sqrt(0.5)
        placements = [(0, both, (c, c)), (1, both, (c, -c))]
    return SpectralDecomposition(tuple(blocks), tuple(placements), phases)


def _asymmetry(m: np.ndarray) -> float:
    """max |m - m†| over the entries of square ``m``, comparing each square
    tile of its lower triangle, of at most _BATCH entries, with its mirror."""
    t = math.isqrt(_BATCH)
    return max(float(np.abs(m[i:i + t, j:j + t] - m[j:j + t, i:i + t].conj().T).max())
               for i in range(0, len(m), t) for j in range(0, i + 1, t))


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace state on a labeled set of sites.

    ``site_labels`` are the distinct global site indices the state lives on,
    in the order of the tensor factors (ascending everywhere in this library).
    """

    matrix: np.ndarray
    site_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShieldlabError(f"density matrix must be square, got {m.shape}")
        try:
            labels = tuple(map(operator.index, self.site_labels))
        except TypeError:
            raise ShieldlabError(f"site_labels {self.site_labels} are not all integers") from None
        if len(set(labels)) != len(labels):
            raise ShieldlabError(f"site_labels {labels} repeat a site")
        if m.shape[0] != 1 << len(labels):
            raise ShieldlabError(f"dimension {m.shape[0]} does not match {len(labels)} sites")
        self.site_labels = labels
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise ShieldlabError(f"density matrix entry ({i}, {j}) is {m[i, j]}, not finite")
        if _asymmetry(m) > _HERMITICITY_TOL:
            raise ShieldlabError("density matrix is not Hermitian")
        if abs(complex(np.trace(m)).real - 1.0) > _TRACE_TOL:
            raise ShieldlabError(f"trace is {complex(np.trace(m)).real!r}, expected 1")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.site_labels)


def _ground_slack(span: float) -> float:
    """How far above the lowest level the ground space reaches in a spectrum
    of this span: _GROUND_TOL·max(span, 1)."""
    return _GROUND_TOL * max(span, 1.0)


def _weights(dec: SpectralDecomposition, beta: float):
    """Eigenvector weights f of the state at ``beta``.

    Finite beta: f(w) = e^{-beta(w - w0)} / Z with w0 the lowest eigenvalue, so
    large beta cannot overflow. beta = inf: the uniform mixture
    f(w) = (w <= cut) / d over the d-dimensional ground space, cut = w0 +
    :func:`_ground_slack` of the span; the one place it is chosen
    (the free-fermion quench of :mod:`shieldlab.freefermion` takes the same
    slack of its chain's span, and keeps to this choice).
    """
    w = dec.eigenvalues
    if math.isinf(beta):
        cut = w[0] + _ground_slack(float(w[-1] - w[0]))
        d = int(np.count_nonzero(w <= cut))
        return lambda x: (x <= cut) / d
    low = w[0]
    z = float(np.exp(-beta * (w - low)).sum())
    return lambda x: np.exp(-beta * (x - low)) / z


def _sites(sites, n: int, what: str) -> list[int]:
    """``sites`` sorted, checked to be distinct integer sites of an ``n``-site
    lattice (1.7 is refused, not truncated)."""
    sites = list(sites)
    try:
        out = sorted(map(operator.index, sites))
    except TypeError:
        raise ShieldlabError(f"{what}={sites} is not a set of sites of {n}") from None
    if len(set(out)) != len(out) or not set(out) <= set(range(n)):
        raise ShieldlabError(f"{what}={out} is not a set of sites of {n}")
    return out


def _bits(index: np.ndarray, sites, n: int) -> np.ndarray:
    """The bits of basis ``index`` on ``sites``, packed, the first site most
    significant (site 0 is the top bit of an ``n``-site index)."""
    out = np.zeros_like(index)
    for site in sites:
        out = (out << 1) | ((index >> (n - 1 - site)) & 1)
    return out


def _at(a: np.ndarray | None, r: slice, c: slice):
    """Index of the entries of a piece at kept rows a[r] and columns a[c];
    plain slices when ``a`` is None, the piece's own order."""
    return (r, c) if a is None else (a[r, None], a[c])


def _reduced_states(H: HamiltonianTerms, betas, keep, by=()) -> list[list[np.ndarray]]:
    """Tr_{not keep} P_s ρ P_s for the thermal state ρ of ``H`` at each of
    ``betas``, one list per beta of unnormalized matrices on ``keep``, one
    per Z pattern s of the sites ``by``.

    The patterns run in the order of ``product((1, -1), repeat=len(by))``
    (+1 for Z = +1), so the pieces sum to Tr_{not keep} ρ. Each site of
    ``by`` must be a zero-field site, whose Z the blocks conserve. A beta
    that is negative or NaN, and a ``keep`` or ``by`` that is not a set of
    sites, are refused before ``H`` is solved.

    One pass over the placements serves every beta: the row order, gather
    index and coefficients of a placement are worked out once, and the
    weights f(w) and the columns with f(w) ≠ 0 once per block and beta.
    Each beta then reads the placement on its own, so its pieces are those
    of a call with that beta alone, bit for bit. Besides the pieces, one
    batch M and one strip of M M† are formed at a time. The rows of a
    placement (all its row sets together) form a product of kept and traced
    bit patterns, and every placement of a block with a conserved Z lies in
    one Z pattern. Sorted by (traced bits, kept bits), each traced pattern
    holds the same kept rows in the same order. A batch of traced patterns (and, when one pattern is
    too wide, of columns) is gathered from the block straight into a matrix
    M whose rows are the kept bits and whose columns are the traced patterns
    and eigenvector columns; it holds at most _BATCH entries, or as many as
    its M M†: a whole block only when one traced pattern holds every row of
    the placement, as when every site is kept. M is scaled in place by the
    columns' √f(w) and the rows' placement coefficients, and M M† is added
    to its pattern's piece a strip of rows at a time: each strip's diagonal
    block, and its block left of the diagonal together with that block's
    transpose above it, so no product larger than a strip is formed and the
    pieces stay exactly symmetric (the blocks are real). A strip lands on
    its kept rows in place when they are the piece's own order (every site
    kept, a placement covering the basis), else through an index of its
    rows. The phases d = ⊗ D_i of the y-field rotation are a product over
    sites, so they pass through the trace and are applied to the pieces
    last, in place.
    """
    for beta in betas:
        if not beta >= 0.0:
            raise ShieldlabError(f"beta must be non-negative, got {beta}")
    n = H.n_sites
    keep, by = _sites(keep, n, "keep"), _sites(by, n, "by")
    dec = spectrum(H)
    traced = [i for i in range(n) if i not in keep]
    fs = [_weights(dec, beta) for beta in betas]
    kind = float if dec.phases is None else complex
    pieces = [[np.zeros((1 << len(keep),) * 2, dtype=kind) for _ in range(1 << len(by))]
              for _ in fs]
    # per basis row: its Z pattern on by, and its key (traced bits, kept bits)
    index = np.arange(dec.dim)
    pattern_of = _bits(index, by, n)
    key_of = (_bits(index, traced, n) << len(keep)) | _bits(index, keep, n)
    last = None
    for b, rows, coefs in dec.placements:
        if b != last:  # placements of one block share each beta's weighted columns
            weighted = [(per_beta, v, np.sqrt(fw)) for per_beta, (v, fw)
                        in zip(pieces, (_weighted(f, *dec.blocks[b]) for f in fs))
                        if v.shape[1]]
            last = b
        at = rows.ravel()
        pattern = pattern_of[at]
        if np.any(pattern != pattern[0]):
            raise ShieldlabError(
                f"by={by} lists a site with a field: its Z is not conserved")
        if not weighted:
            continue
        key = key_of[at]
        order = np.argsort(key)
        key = key[order]
        width = int(np.count_nonzero(key >> len(keep) == key[0] >> len(keep)))
        a = key[:width] & ((1 << len(keep)) - 1)
        # block row and placement coefficient of (kept row, traced pattern)
        src = (order % rows.shape[1]).reshape(-1, width).T
        coef = None if set(coefs) == {1.0} else \
            np.asarray(coefs)[order // rows.shape[1]].reshape(-1, width).T[..., None]
        strip = max(_BATCH // width, (1 << len(keep)) // _STRIP_SHARE)
        if width == 1 << len(keep):  # the kept rows are the piece's own order
            a = None
        for per_beta, v, root in weighted:
            piece = per_beta[pattern[0]]
            # a batch holds at most _BATCH entries, or as many as the M M† it adds to
            cols = min(v.shape[1], max(_BATCH // width, width))
            step = max(1, _BATCH // (width * cols))
            for j in range(0, v.shape[1], cols):
                vj, rj = v[:, j:j + cols], root[j:j + cols]
                for t in range(0, src.shape[1], step):
                    m = vj[src[:, t:t + step]]
                    m *= rj
                    if coef is not None:
                        m *= coef[:, t:t + step]
                    m = m.reshape(width, -1)
                    for i in range(0, width, strip):
                        s = slice(i, i + strip)
                        piece[_at(a, s, s)] += m[s] @ m[s].T
                        if i:  # the block left of the diagonal, and its transpose
                            low = m[s] @ m[:i].T
                            piece[_at(a, s, slice(i))] += low
                            piece[_at(a, slice(i), s)] += low.T.copy()
                    del m  # freed before the next batch is gathered
    if dec.phases is not None:
        # d_K: d on the rows whose traced bits are all 0, where each D_i is 1
        d = dec.phases[_offsets([1 << (n - 1 - i) for i in keep])]
        for per_beta in pieces:
            for p in per_beta:
                p *= d[:, None]
                p *= d.conj()
    return pieces


def _states(H: HamiltonianTerms, betas, keep, labels) -> list[DensityMatrix]:
    """Tr_{not keep} of the thermal state of ``H`` at each of ``betas``, read
    in one pass by :func:`_reduced_states` and labeled ``labels``."""
    return [DensityMatrix(rho, labels) for (rho,) in _reduced_states(H, betas, keep)]


def reduced_state(H: HamiltonianTerms, beta: float, keep) -> DensityMatrix:
    """Tr_{not keep} of the thermal state of ``H`` at ``beta`` >= 0, on the
    sites ``keep`` in ascending order: the Gibbs state exp(-beta H) / Z at
    finite beta, the uniform mixture over the ground eigenspace (its beta → ∞
    limit) at beta = inf, with the weights of :func:`_weights`. Keeping every
    site gives the full state."""
    keep = _sites(keep, H.n_sites, "keep")
    return _states(H, [beta], keep, keep)[0]


def expectation(rho: DensityMatrix, obs: PauliString) -> float:
    """Real expectation value Tr(rho · obs) of a Pauli word.

    ``obs`` lives on the state's own sites: letter k acts on
    ``rho.site_labels[k]``. Tr(rho P) is gathered along the stripe
    rho[j, j ^ mask] in O(dim) work. Raises if the imaginary residual
    exceeds 1e-10.
    """
    if obs.n_sites != rho.n_sites:
        raise ShieldlabError(
            f"observable {obs.to_text()!r} acts on {obs.n_sites} sites, "
            f"the state on {rho.n_sites}")
    mask, coefs = obs.basis_action()
    idx = np.arange(rho.dim)
    value = complex(np.dot(rho.matrix[idx, idx ^ mask], coefs))
    if abs(value.imag) > 1e-10:
        raise ShieldlabError(f"expectation has imaginary residual {value.imag}")
    return float(value.real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b (both Hermitian, so via eigenvalues), two
    states on the same sites in the same order."""
    if a.site_labels != b.site_labels:
        raise ShieldlabError(f"states live on different sites: {a.site_labels} "
                             f"vs {b.site_labels}")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


@dataclass
class ShieldingReport:
    """Outcome of one shielding comparison.

    ``distance`` is the trace distance of the reduced Gibbs state of the full
    lattice on Y from the Gibbs state of the shielded Hamiltonian alone, and
    ``verdict`` that distance's classification.
    """

    distance: float
    verdict: str


def shielding_report(lat: LatticeSpec, split: RegionSplit, beta: float) -> ShieldingReport:
    """Compare Tr_X(thermal state of H) against the shielded thermal state on Y."""
    H = build_hamiltonian(lat)
    parts = split_hamiltonian(H, split)
    y = parts.y_sites
    [rhs] = _states(parts.h_shielded, [beta], range(len(y)), y)
    lhs = reduced_state(H, beta, y)
    d = trace_distance(lhs, rhs)
    return ShieldingReport(distance=d, verdict=classify_distance(d))
