"""Lattice geometry, Hamiltonian parameters and region splits.

Sites are 0-indexed integers. Edges are undirected and stored once with
``i < j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ShieldlabError

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class LatticeSpec:
    """Graph of spin sites with ZZ couplings and per-site transverse fields.

    ``h`` are the x-axis fields, ``g`` the y-axis fields. Construct through
    :func:`validate_lattice` (or the ``make_*`` helpers), which canonicalizes
    and checks the data.
    """

    n_sites: int
    edges: tuple[Edge, ...]
    h: tuple[float, ...]
    g: tuple[float, ...]


@dataclass(frozen=True)
class RegionSplit:
    """Cover of the sites by two sets X, Y with interface S = X ∩ Y.

    :func:`validate_split` returns only splits with X and Y non-empty, no
    edge between X\\S and Y\\S and exactly zero transverse fields on every
    interface site of the lattice it checked. A split holds no fields: the
    verify-shielding control validates its split on its lattice, which is
    zero on S, and only then sets a field on S.
    """

    n_sites: int
    X: frozenset[int]
    Y: frozenset[int]
    S: frozenset[int]

    @property
    def A(self) -> frozenset[int]:
        """Bulk of X (sites of X not on the interface)."""
        return self.X - self.S

    @property
    def B(self) -> frozenset[int]:
        """Bulk of Y (sites of Y not on the interface)."""
        return self.Y - self.S


def validate_lattice(n_sites: int, edges, h, g=None) -> LatticeSpec:
    """Canonicalize and check a lattice description.

    Edges are returned sorted with ``i < j``. ``g`` defaults to all zeros.
    Raises ``ShieldlabError`` on a self edge, a duplicate edge, a site out of
    range, a parameter list of the wrong length or a non-finite parameter,
    keyed by the argument at fault (``n_sites``, ``edges[k]``, ``h`` or ``g``).
    """
    if n_sites < 1:
        raise ShieldlabError(f"must be positive, got {n_sites}", key="n_sites")
    canon: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for k, (i, j, J) in enumerate(edges):
        i, j, key = int(i), int(j), f"edges[{k}]"
        if i == j:
            raise ShieldlabError(f"edge ({i}, {j}) joins a site to itself", key=key)
        if not (0 <= i < n_sites and 0 <= j < n_sites):
            raise ShieldlabError(f"edge ({i}, {j}) outside 0..{n_sites - 1}", key=key)
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ShieldlabError(f"duplicate edge {pair}", key=key)
        seen.add(pair)
        J = float(J)
        if not math.isfinite(J):
            raise ShieldlabError(f"coupling on edge {pair} is not finite", key=key)
        canon.append((pair[0], pair[1], J))
    canon.sort(key=lambda e: (e[0], e[1]))

    h = tuple(float(x) for x in h)
    g = tuple(float(x) for x in g) if g is not None else (0.0,) * n_sites
    for name, values in (("h", h), ("g", g)):
        if len(values) != n_sites:
            raise ShieldlabError(f"has {len(values)} entries, expected {n_sites}", key=name)
        if any(not math.isfinite(x) for x in values):
            raise ShieldlabError("has a non-finite entry", key=name)
    return LatticeSpec(n_sites, tuple(canon), h, g)


def validate_split(lat: LatticeSpec, X, Y) -> RegionSplit:
    """Check a candidate (X, Y) cover against ``lat`` and derive S = X ∩ Y.

    Symmetric in X and Y. An empty set is refused keyed by its name (``X``
    or ``Y``), and a site out of range keyed by the set that holds it; so
    are a site in neither set, an edge between the two bulks and a nonzero
    field (h or g) on an interface site.
    """
    X = frozenset(int(i) for i in X)
    Y = frozenset(int(i) for i in Y)
    for key, sites in (("X", X), ("Y", Y)):
        if not sites:
            raise ShieldlabError("holds no site", key=key)
        for i in sorted(sites):
            if not 0 <= i < lat.n_sites:
                raise ShieldlabError(f"site {i} outside 0..{lat.n_sites - 1}", key=key)
    if X | Y != frozenset(range(lat.n_sites)):
        missing = sorted(frozenset(range(lat.n_sites)) - (X | Y))
        raise ShieldlabError(f"sites {missing} belong to neither region")
    S = X & Y
    bulk_x, bulk_y = X - S, Y - S
    for (i, j, _) in lat.edges:
        if (i in bulk_x and j in bulk_y) or (j in bulk_x and i in bulk_y):
            raise ShieldlabError(f"edge ({i}, {j}) crosses between the two bulks")
    for l in sorted(S):
        if lat.h[l] != 0.0 or lat.g[l] != 0.0:
            raise ShieldlabError(f"interface site {l} carries field h={lat.h[l]}, g={lat.g[l]}")
    return RegionSplit(lat.n_sites, X, Y, S)


def make_chain(n: int, J, h) -> LatticeSpec:
    """Open chain of ``n`` sites with nearest-neighbor couplings and g ≡ 0."""
    J = list(J)
    h = list(h)
    if len(J) != n - 1 or len(h) != n:
        raise ShieldlabError(
            f"chain of {n} sites needs {n - 1} couplings and {n} fields, "
            f"got {len(J)} and {len(h)}")
    edges = [(i, i + 1, J[i]) for i in range(n - 1)]
    return validate_lattice(n, edges, h)


def make_diamond(h_left: float = 1.0, h_right: float = 1.0) -> LatticeSpec:
    """Four-site diamond: 0 — {1, 2} — 3 with field-free middle sites.

    Site 0 couples to sites 1 and 2, which couple to site 3; there is no
    edge between 1 and 2. The natural two-site-interface split is
    X = {0, 1, 2}, Y = {1, 2, 3}.
    """
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
    return validate_lattice(4, edges, [h_left, 0.0, 0.0, h_right])


def make_triangular_patch(row_sizes):
    """Triangular-lattice patch built row by row.

    Row ``r`` holds ``row_sizes[r]`` sites; site (r, c) connects to
    (r, c+1), (r+1, c) and (r+1, c+1) where those exist. All fields start
    at zero. Returns ``(spec, rows)`` with ``rows`` the per-row site lists.
    """
    rows: list[list[int]] = []
    k = 0
    for size in row_sizes:
        rows.append(list(range(k, k + size)))
        k += size
    edges: list[tuple[int, int, float]] = []
    for r, row in enumerate(rows):
        for c in range(len(row) - 1):
            edges.append((row[c], row[c + 1], 1.0))
        if r + 1 < len(rows):
            nxt = rows[r + 1]
            for c in range(len(row)):
                if c < len(nxt):
                    edges.append((row[c], nxt[c], 1.0))
                if c + 1 < len(nxt):
                    edges.append((row[c], nxt[c + 1], 1.0))
    return validate_lattice(k, edges, [0.0] * k), rows


def update_parameters(lat: LatticeSpec, h=None, g=None, J_by_edge=None) -> LatticeSpec:
    """Copy of ``lat`` with some parameters replaced.

    ``J_by_edge`` maps unordered pairs ``(i, j)`` to new couplings; the edge
    set itself never changes, so a pair that is not an edge is refused.
    """
    edges = lat.edges
    if J_by_edge:
        lookup = {(min(i, j), max(i, j)): float(v) for (i, j), v in J_by_edge.items()}
        known = {(i, j) for i, j, _ in edges}
        for i, j in J_by_edge:
            if (min(i, j), max(i, j)) not in known:
                raise ShieldlabError(f"({i}, {j}) is not an edge", key="J_by_edge")
        edges = tuple((i, j, lookup.get((i, j), J)) for (i, j, J) in edges)
    return validate_lattice(lat.n_sites, edges, lat.h if h is None else h,
                            lat.g if g is None else g)
