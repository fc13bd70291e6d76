"""Hamiltonian construction, region splitting and duality.

The model Hamiltonian on a lattice is

    H = - sum_edges J_ij Z_i Z_j  -  sum_i h_i X_i  -  sum_i g_i Y_i

held as a list of (real coefficient, Pauli word) terms. Only the three term
shapes above are admitted, which keeps every Hamiltonian Hermitian by
construction. The eigensolver (:func:`shieldlab.thermal.spectrum`) reads its
blocks straight from these terms. Every dense reading of a sum of words (the
matrices of :meth:`HamiltonianTerms.to_dense` and :meth:`DualChain.to_dense`,
the commutator norm and the dual check's residual) sums the words' basis
actions per flip mask x: entry (j ^ x, j) is Σ c·i^k·(-1)^popcount(j & z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShieldlabError
from .lattice import LatticeSpec, RegionSplit
from .pauli import PauliString, _PHASES, _product, _signs, check_dense_cap

Term = tuple[float, PauliString]


def _term_shape(p: PauliString) -> str:
    x, z, _ = p.xzk
    if not x and z.bit_count() == 2:
        return "ZZ"
    if x.bit_count() == 1 and z in (0, x):
        return "Y" if z else "X"
    raise ShieldlabError(f"unsupported term shape {p.to_text()!r}")


@dataclass
class HamiltonianTerms:
    """Sum of real-weighted Pauli words of ZZ / X / Y shape on n_sites >= 1.

    Treat instances as immutable; the dense matrix and the eigendecomposition
    are each computed once on first access and cached (the latter by
    :func:`shieldlab.thermal.spectrum`, whose block solve is the only place
    a Hamiltonian is diagonalized and never builds the dense matrix).
    """

    n_sites: int
    terms: tuple[Term, ...]
    _dense: np.ndarray | None = field(default=None, repr=False, compare=False)
    _spectrum: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ShieldlabError(f"must be positive, got {self.n_sites}", key="n_sites")
        self.terms = tuple((float(c), p) for (c, p) in self.terms)
        for c, p in self.terms:
            if p.n_sites != self.n_sites:
                raise ShieldlabError(
                    f"term {p.to_text()!r} lives on {p.n_sites} sites, "
                    f"Hamiltonian on {self.n_sites}")
            if p.phase_k != 0:
                raise ShieldlabError(f"term {p.to_text()!r} carries a phase")
            _term_shape(p)
            if not np.isfinite(c):
                raise ShieldlabError("non-finite coefficient")

    def to_dense(self) -> np.ndarray:
        """Dense matrix under the site-0-is-MSB convention.

        The terms are summed per flip mask (:func:`_mask_sums`): ZZ terms
        (x = 0) give the diagonal, X_i and Y_i couple j <-> j ^ x. Each sum
        is scattered once. Real dtype when no Y term is present. No solve
        reads it: it is the oracle that the block spectrum is tested against.
        """
        if self._dense is None:
            self._dense = _dense_matrix(self.n_sites, [(c, p.xzk) for c, p in self.terms])
        return self._dense


def _mask_sums(n_sites: int, words) -> dict[int, np.ndarray]:
    """Σ c·i^k·(-1)^popcount(j & z) over the words ``(c, (x, z, k))`` of each
    flip mask x, for every basis index j: entry (j ^ x, j) of the words' sum.

    Each mask's words are added from zero in the order given; words with
    c = 0 are skipped. The sums are real when every c·i^k is.
    """
    check_dense_cap(n_sites)
    idx = np.arange(1 << n_sites)
    weights = [(x, z, c * _PHASES[k]) for c, (x, z, k) in words if c != 0]
    real = not any(w.imag for _, _, w in weights)
    sums: dict[int, np.ndarray] = {}
    for x, z, w in weights:
        acc = sums.setdefault(x, np.zeros(idx.size, dtype=float if real else complex))
        acc += (w.real if real else w) * _signs(idx, z)
    return sums


def _dense_matrix(n_sites: int, words) -> np.ndarray:
    """Dense matrix of the words ``(c, (x, z, k))``: each :func:`_mask_sums`
    sum scattered once onto its stripe (j ^ x, j); real when the sums are."""
    sums = _mask_sums(n_sites, words)
    idx = np.arange(1 << n_sites)
    H = np.zeros((idx.size, idx.size), dtype=np.result_type(float, *sums.values()))
    for x, acc in sums.items():
        H[idx ^ x, idx] = acc
    return H


def build_hamiltonian(lat: LatticeSpec) -> HamiltonianTerms:
    """Terms -J_ij Z_i Z_j, -h_i X_i, -g_i Y_i; zero coefficients dropped."""
    n = lat.n_sites
    terms: list[Term] = []
    for (i, j, J) in lat.edges:
        if J != 0.0:
            terms.append((-J, PauliString.from_sites(n, {i: "Z", j: "Z"})))
    for i, hi in enumerate(lat.h):
        if hi != 0.0:
            terms.append((-hi, PauliString.single(n, i, "X")))
    for i, gi in enumerate(lat.g):
        if gi != 0.0:
            terms.append((-gi, PauliString.single(n, i, "Y")))
    return HamiltonianTerms(n, tuple(terms))


@dataclass
class SplitHamiltonians:
    """Term-by-term split H = H_X + H_Y plus the shielded Hamiltonian.

    ``h_shielded`` is ``h_y`` relabeled onto the compacted sites of Y;
    ``y_sites`` records the global indices (ascending) of those sites so the
    result can be compared against reduced states.
    """

    h_x: HamiltonianTerms
    h_y: HamiltonianTerms
    h_shielded: HamiltonianTerms
    y_sites: tuple[int, ...]


def split_hamiltonian(H: HamiltonianTerms, split: RegionSplit) -> SplitHamiltonians:
    """Assign every term of ``H`` to exactly one side of the split.

    Edges inside X go to H_X and edges inside Y to H_Y; edges with both ends
    on the interface go to H_Y, so H_Y restricted to Y is the shielded
    Hamiltonian that the reduced Gibbs state is compared against. Field
    terms follow their site's bulk; a field sitting exactly on the interface
    (only the verify-shielding control's lattice carries one, set after its
    split was validated on the lattice without it) is charged to H_X, which
    keeps H_Y in shielded form.
    """
    if H.n_sites != split.n_sites:
        raise ShieldlabError("Hamiltonian and split disagree on n_sites")
    x_terms: list[Term] = []
    y_terms: list[Term] = []
    for c, p in H.terms:
        sup = set(p.support())
        if sup <= split.S:
            # a field on S belongs to neither bulk: H_X takes it (see docstring)
            (x_terms if len(sup) == 1 else y_terms).append((c, p))
        elif sup <= split.X:
            x_terms.append((c, p))
        elif sup <= split.Y:
            y_terms.append((c, p))
        else:
            raise ShieldlabError(f"term {p.to_text()!r} is not contained in either region")

    y_sites = tuple(sorted(split.Y))
    relabel = {site: k for k, site in enumerate(y_sites)}
    shielded: list[Term] = []
    for c, p in y_terms:
        shielded.append((
            c,
            PauliString.from_sites(
                len(y_sites), {relabel[i]: p.letters[i] for i in p.support()}
            ),
        ))
    return SplitHamiltonians(
        h_x=HamiltonianTerms(H.n_sites, tuple(x_terms)),
        h_y=HamiltonianTerms(H.n_sites, tuple(y_terms)),
        h_shielded=HamiltonianTerms(len(y_sites), tuple(shielded)),
        y_sites=y_sites,
    )


def commutator_norm(A: HamiltonianTerms, B: HamiltonianTerms) -> float:
    """Max-entry magnitude of AB - BA.

    The commutator is collected word by word, keyed by the masks (x, z) of
    each product, so terms that commute cancel exactly and a vanishing
    commutator returns exactly 0.0. Entry (j ^ x, j) comes only from
    surviving words with flip mask x, so they are summed per mask
    (:func:`_mask_sums`) and no 2^n x 2^n matrix is formed.
    """
    if A.n_sites != B.n_sites:
        raise ShieldlabError("operands live on different numbers of sites")
    acc: dict[tuple[int, int], complex] = {}
    for a, p in A.terms:
        for b, q in B.terms:
            x, z, k = _product(p.xzk, q.xzk)
            acc[x, z] = acc.get((x, z), 0j) + a * b * _PHASES[k]
            x, z, k = _product(q.xzk, p.xzk)
            acc[x, z] = acc.get((x, z), 0j) - a * b * _PHASES[k]
    sums = _mask_sums(A.n_sites, [(c, (x, z, 0)) for (x, z), c in acc.items()])
    return max((float(np.abs(v).max()) for v in sums.values()), default=0.0)


@dataclass
class DualChain:
    """Chain rewritten in link variables where couplings and fields swap roles.

    Dual sites are labeled 0..n (one per link, including the two boundary
    half-links). ``mu_z(d)`` and ``mu_x(d)`` return the dual operators as
    Pauli words on the original chain:

        mu_z(0) = Z_0,  mu_z(d) = Z_{d-1} Z_d,  mu_z(n) = Z_{n-1}
        mu_x(d) = X_d X_{d+1} ... X_{n-1}   (empty product = identity at d = n)

    so ``mu_x(d-1) mu_x(d) = X_{d-1}`` for every d, making the rewritten
    Hamiltonian an exact operator identity. Note the boundary constraint of
    the open chain: mu_x(0) is the full X string rather than the identity,
    and mu_z(n) = Z_{n-1} anticommutes with the nontrivial mu_x words — the
    2(n+1) dual operators cannot all be independent on 2^n dimensions, and
    the dual Hamiltonian never uses mu_z(n).
    """

    n_sites: int
    dual_couplings: tuple[float, ...]  # along dual edges (d, d+1); = original h
    dual_fields: tuple[float, ...]     # on dual sites 0..n; = original J padded

    @property
    def n_dual_sites(self) -> int:
        return self.n_sites + 1

    def mu_z(self, d: int) -> PauliString:
        n = self.n_sites
        if d == 0:
            return PauliString.single(n, 0, "Z")
        if d == n:
            return PauliString.single(n, n - 1, "Z")
        return PauliString.from_sites(n, {d - 1: "Z", d: "Z"})

    def mu_x(self, d: int) -> PauliString:
        n = self.n_sites
        return PauliString.from_sites(n, {k: "X" for k in range(d, n)})

    def dual_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the dual graph under nonzero couplings."""
        comps: list[list[int]] = [[0]]
        for d, c in enumerate(self.dual_couplings):
            if c != 0.0:
                comps[-1].append(d + 1)
            else:
                comps.append([d + 1])
        return tuple(tuple(c) for c in comps)

    def _words(self) -> list[tuple[float, tuple[int, int, int]]]:
        """The rewritten Hamiltonian as (weight, masks) words: -J_d mu_z(d)
        for every dual site, then -h_d mu_x(d) mu_x(d+1) for every dual edge."""
        xs = [self.mu_x(d).xzk for d in range(self.n_dual_sites)]
        words = [(-J, self.mu_z(d).xzk) for d, J in enumerate(self.dual_fields)]
        words += [(-h, _product(xs[d], xs[d + 1])) for d, h in enumerate(self.dual_couplings)]
        return words

    def to_dense(self) -> np.ndarray:
        """Dense matrix of the rewritten Hamiltonian (dual-variable form): the
        dual words are summed per flip mask (:func:`_mask_sums`) and each sum
        is scattered once (the mu_z words share mask 0). Real dtype when
        every word is real, as X and Z strings are."""
        return _dense_matrix(self.n_sites, self._words())


def dual_algebra_residual(dc: DualChain) -> float:
    """Worst violation of the dual operators' Pauli relations.

    Checked exactly on the masks (x, z, k), with no word products, so a clean
    dual chain returns exactly 0.0 and a violation 2.0 (= |1 - (-1)|): every
    operator squares to the identity ((i**k X**x Z**z)**2 = (-1)**(k +
    popcount(x & z))), same-dual-site z/x pairs anticommute (popcount(x1 & z2)
    + popcount(z1 & x2) is odd), different-dual-site pairs commute. Only the
    boundary alias ``mu_z(n)`` (= Z on the last original site, never used by
    the dual Hamiltonian) is left out of the pair checks, as the open boundary
    leaves it without an independent partner; ``mu_x(n)``, the empty word, is
    checked. See :class:`DualChain`.
    """
    n = dc.n_sites
    worst = 0.0
    ops: dict[tuple[str, int], tuple[int, int, int]] = {}
    for d in range(n + 1):
        ops[("z", d)] = dc.mu_z(d).xzk
        ops[("x", d)] = dc.mu_x(d).xzk
    for x, z, k in ops.values():
        worst = max(worst, 2.0 * ((k + (x & z).bit_count()) % 2))
    checked = [("z", d) for d in range(n)] + [("x", d) for d in range(n + 1)]
    for i, key_a in enumerate(checked):
        for key_b in checked[i + 1:]:
            same_site = key_a[1] == key_b[1] and key_a[0] != key_b[0]
            (xa, za, _), (xb, zb, _) = ops[key_a], ops[key_b]
            anti = ((xa & zb).bit_count() + (za & xb).bit_count()) % 2 == 1
            worst = max(worst, 2.0 * (anti != same_site))
    return worst


def _chain_fault(lat: LatticeSpec) -> str | None:
    """Why ``lat`` is not an open nearest-neighbor chain with g ≡ 0, the
    lattices that :func:`dual_chain` rewrites and that Jordan–Wigner turns
    into free fermions; None when it is one."""
    expected = [(i, i + 1) for i in range(lat.n_sites - 1)]
    if [(i, j) for (i, j, _) in lat.edges] != expected:
        return "lattice is not an open nearest-neighbor chain"
    if any(x != 0.0 for x in lat.g):
        return "dual construction requires g ≡ 0"
    return None


def dual_chain(lat: LatticeSpec) -> DualChain:
    """Dual description of an open chain with g ≡ 0."""
    fault = _chain_fault(lat)
    if fault is not None:
        raise ShieldlabError(fault)
    J = [e[2] for e in lat.edges]
    return DualChain(n_sites=lat.n_sites, dual_couplings=tuple(lat.h),
                     dual_fields=(0.0, *J, 0.0))
