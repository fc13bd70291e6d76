import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import shieldlab.thermal as thermal
from shieldlab import (
    DensityMatrix,
    HamiltonianTerms,
    PauliString,
    ShieldlabError,
    build_hamiltonian,
    expectation,
    make_chain,
    make_diamond,
    partial_trace,
    shielding_report,
    spectrum,
    thermal_state,
    trace_distance,
    update_parameters,
    validate_lattice,
    validate_split,
)

from helpers import (
    I2,
    SZ,
    classical_chain_gibbs_diag,
    dense_reference,
    gibbs_reference,
    kron_op,
    kron_word,
    ptrace_reference,
    random_mixed_state,
    random_product_state,
    random_pure_state,
)

TANH1 = 0.7615941559557649  # tanh(1)


def random_shielded_chain(rng, n=None):
    """Random open chain with a zero field at a random interior site."""
    n = n or int(rng.integers(3, 9))
    L = int(rng.integers(1, n - 1))
    h = rng.uniform(0, 1, size=n)
    h[L] = 0.0
    lat = make_chain(n, rng.uniform(-2, 2, size=n - 1), h)
    return lat, L


def random_interface_lattice(rng, n=None):
    """Random |S|=1 lattice with long-range edges inside each half and g fields."""
    n = n or int(rng.integers(4, 9))
    L = int(rng.integers(1, n - 1))
    left = list(range(L))
    right = list(range(L + 1, n))
    edges = []
    for half in (left + [L], right + [L]):
        for a in range(len(half)):
            for b in range(a + 1, len(half)):
                if rng.random() < 0.55:
                    edges.append((half[a], half[b], rng.uniform(-2, 2)))
    h = rng.uniform(0, 1, size=n)
    g = rng.uniform(0, 1, size=n)
    h[L] = g[L] = 0.0
    lat = validate_lattice(n, edges, h, g)
    split = validate_split(lat, left + [L], [L] + right)
    return lat, split


def random_graph_lattice(rng, n, y_fields, n_zero=1):
    """Random connected graph of ``n`` sites (a path plus random chords).

    ``n_zero`` sites get no field at all; with ``y_fields`` the others carry
    both x and y fields.
    """
    edges = [(i, i + 1, rng.uniform(-2, 2)) for i in range(n - 1)]
    edges += [(i, j, rng.uniform(-2, 2)) for i in range(n) for j in range(i + 2, n)
              if rng.random() < 0.3]
    h = rng.uniform(-1, 1, size=n)
    g = rng.uniform(-1, 1, size=n) if y_fields else np.zeros(n)
    zero = rng.choice(n, size=min(n_zero, n), replace=False)
    h[zero] = g[zero] = 0.0
    return validate_lattice(n, edges, h, g)


def zero_field_lattices(rng):
    """Lattices the eigensolver splits on their zero-field sites: 1, 2 and 3
    such sites, with and without y fields; a classical lattice, with no field
    anywhere, whose blocks are all 1x1; and a zero-field site without edges."""
    for n_zero in (1, 2, 3):
        for y_fields in (False, True):
            yield random_graph_lattice(rng, 8, y_fields, n_zero)
    yield random_graph_lattice(rng, 7, y_fields=False, n_zero=7)
    edges = [(i, j, rng.uniform(-2, 2)) for i, j in ((0, 1), (1, 2), (2, 4), (4, 5), (0, 5))]
    h, g = rng.uniform(-1, 1, size=6), rng.uniform(-1, 1, size=6)
    h[3] = g[3] = 0.0
    yield validate_lattice(6, edges, h, g)


def oracle_lattices(seed):
    """Lattices of 1 to 9 sites, with and without y fields, with and without
    zero-field sites (whose ground spaces are degenerate), then the
    :func:`zero_field_lattices`."""
    rng = np.random.default_rng(seed)
    for n in range(1, 10):
        for y_fields in (False, True):
            yield random_graph_lattice(rng, n, y_fields, n_zero=int(rng.integers(0, 3)))
    yield from zero_field_lattices(rng)


def eigenvector_columns(dec):
    """Every full-basis eigenvector column of ``dec``, in the order of
    ``dec.eigenvalues``."""
    order = np.argsort(dec._values(), kind="stable")
    return dec.columns(lambda w: slice(None))[:, order]


def dense_spectrum(H):
    """The oracle: full-basis eigh of the dense matrix, Y branch included."""
    return np.linalg.eigh(H.to_dense())


def dense_ground(H):
    """Oracle ground mixture and its degeneracy, with the error bound it shares
    with any other solver: each perturbs the ground projector by about
    eps * span / gap (Davis-Kahan), so a nearly degenerate ground space
    widens the bound beyond 1e-12."""
    w, v = dense_spectrum(H)
    span = max(w[-1] - w[0], 1.0)
    in_ground = w <= w[0] + 1e-9 * span
    ground = v[:, in_ground]
    gap = w[~in_ground][0] - w[0] if not in_ground.all() else span
    d = ground.shape[1]
    return ground @ ground.conj().T / d, d, max(1e-12, 1e-14 * span / gap)


class TestEig:
    def test_minus_x_ground_vector(self):
        dec = spectrum(HamiltonianTerms(1, ((-1.0, PauliString("X")),)))
        assert np.allclose(dec.eigenvalues, [-1, 1])
        ground = eigenvector_columns(dec)[:, 0]
        target = np.array([1, 1]) / math.sqrt(2)
        assert abs(abs(np.vdot(target, ground)) - 1) < 1e-12

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(41)
        lat = validate_lattice(
            3, [(0, 1, 1.2), (1, 2, -0.7), (0, 2, 0.4)],
            rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3),
        )
        H = build_hamiltonian(lat)
        dec = spectrum(H)
        v = eigenvector_columns(dec)
        assert np.abs((v * dec.eigenvalues) @ v.conj().T - H.to_dense()).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-10

    def test_blocks_read_from_the_terms_rebuild_the_dense_matrix(self):
        """f(w) = w gives back H itself: the blocks, their placements and the
        y-field phases, all read from the terms, against the dense build."""
        for lat in oracle_lattices(43):
            H = build_hamiltonian(lat)
            dec = spectrum(H)
            assert all(v.shape == (w.size, w.size) for w, v in dec.blocks)
            assert np.abs(dec.function(lambda w: w) - H.to_dense()).max() < 1e-12

    def test_no_sites_is_one_state_of_energy_zero(self):
        dec = spectrum(HamiltonianTerms(0, ()))
        assert dec.dim == 1 and np.array_equal(dec.eigenvalues, [0.0])
        assert np.array_equal(dec.function(lambda w: w + 1.0), [[1.0]])

    def test_y_fields_solve_as_two_real_sectors(self):
        rng = np.random.default_rng(47)
        for n in (1, 4, 7):
            H = build_hamiltonian(random_graph_lattice(rng, n, y_fields=True, n_zero=0))
            dec = spectrum(H)
            assert dec.phases is not None
            assert [v.shape for _, v in dec.blocks] == [(2 ** (n - 1),) * 2] * 2
            assert all(np.isrealobj(w) and np.isrealobj(v) for w, v in dec.blocks)
            w, _ = dense_spectrum(H)
            assert np.abs(dec.eigenvalues - w).max() < 1e-12

    def test_zero_field_sites_split_into_shared_sectors(self):
        # m zero-field sites: 2^(m-1) real blocks of dimension 2^(n-m), each
        # standing for both spin-flip sectors, in one stacked solve, and 2^m
        # plain placements; with no field anywhere every block is 1x1
        rng = np.random.default_rng(61)
        for y_fields in (False, True):
            for m in (1, 2, 3, 8):
                H = build_hamiltonian(random_graph_lattice(rng, 8, y_fields, n_zero=m))
                dec = spectrum(H)
                assert [v.shape for _, v in dec.blocks] == [(2 ** (8 - m),) * 2] * 2 ** (m - 1)
                assert [(len(rows), coefs) for _, rows, coefs in dec.placements] == \
                    [(1, (1.0,))] * 2 ** m
                assert np.abs(dec.eigenvalues - dense_spectrum(H)[0]).max() < 1e-12

    def test_tiny_field_blocks_the_split(self):
        # a field of 1e-300 is a field: its site's Z is not conserved, so the
        # lattice has one zero-field site left, not two
        lat = make_chain(4, [1.0, -0.5, 0.8], [0.6, 0.0, 0.0, 0.4])
        assert len(spectrum(build_hamiltonian(lat)).blocks) == 2
        H = build_hamiltonian(update_parameters(lat, h=[0.6, 0.0, 1e-300, 0.4]))
        dec = spectrum(H)
        assert [v.shape for _, v in dec.blocks] == [(8, 8)]
        assert len(dec.placements) == 2
        assert np.abs(dec.function(lambda w: w) - H.to_dense()).max() < 1e-12

    def test_placements_cover_the_basis(self):
        """Placement widths sum to the dimension; each basis row lies in
        exactly one plain placement or in exactly two spin-flip sector
        placements; the placed columns are unitary with and without phases;
        a block shared by two coinciding sectors is solved once and placed
        twice, on R and on R̄."""
        rng = np.random.default_rng(89)
        c = math.sqrt(0.5)
        for lat in oracle_lattices(89):
            dec = spectrum(build_hamiltonian(lat))
            shared = any(h == g == 0.0 for h, g in zip(lat.h, lat.g))
            assert sum(rows.shape[1] for _, rows, _ in dec.placements) == dec.dim
            plain, sector = np.zeros((2, dec.dim), dtype=int)
            for _, rows, coefs in dec.placements:
                assert coefs in ((1.0,), (c, c), (c, -c)) and len(rows) == len(coefs)
                np.add.at(plain if len(coefs) == 1 else sector, rows.ravel(), 1)
            assert np.all((plain == 1) & (sector == 0) | (plain == 0) & (sector == 2))
            placed = [[rows for b, rows, _ in dec.placements if b == k]
                      for k in range(len(dec.blocks))]
            assert {len(p) for p in placed} == {2 if shared else 1}
            assert sum(w.size for w, _ in dec.blocks) * (2 if shared else 1) == dec.dim
            if shared:
                assert all(np.array_equal(s, dec.dim - 1 - r) for (r,), (s,) in placed)
            for phases in (None, np.exp(2j * np.pi * rng.random(dec.dim))):
                v = replace(dec, phases=phases).columns(lambda w: slice(None))
                assert v.shape == (dec.dim,) * 2
                assert np.abs(v.conj().T @ v - np.eye(dec.dim)).max() < 1e-12


class TestGibbs:
    def test_infinite_temperature(self):
        lat = make_chain(3, [1.0, 0.5], [0.4, 0.2, 0.7])
        rho = thermal_state(build_hamiltonian(lat), 0.0)
        assert np.allclose(rho.matrix, np.eye(8) / 8)

    def test_single_spin_closed_form(self):
        H = HamiltonianTerms(1, ((-1.0, PauliString("X")),))
        rho = thermal_state(H, 1.0)
        assert expectation(rho, PauliString("X")) == pytest.approx(TANH1, abs=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            lat = make_chain(4, rng.uniform(-2, 2, 3), rng.uniform(0, 1, 4))
            H = build_hamiltonian(lat)
            for beta in (0.1, 1.0, 5.0):
                got = thermal_state(H, beta).matrix
                ref = gibbs_reference(dense_reference(lat), beta)
                assert np.abs(got - ref).max() < 1e-12

    def test_large_beta_stable(self):
        lat = make_chain(2, [1.0], [0.5, 0.5])
        rho = thermal_state(build_hamiltonian(lat), 1e6)
        assert np.isfinite(rho.matrix).all()

    @pytest.mark.parametrize("beta", [-0.1, -math.inf, math.nan])
    def test_rejects_bad_beta(self, beta):
        # -inf must not read as the ground mixture, nor nan as any state
        lat = make_chain(3, [1.0, 1.0], [0.5, 0.0, 0.5])
        with pytest.raises(ShieldlabError, match="^beta must be non-negative"):
            thermal_state(build_hamiltonian(lat), beta)
        with pytest.raises(ShieldlabError, match="^beta must be non-negative"):
            shielding_report(lat, validate_split(lat, {0, 1}, {1, 2}), beta)


class TestGroundState:
    def test_pure_plus_state(self):
        H = HamiltonianTerms(1, ((-1.0, PauliString("X")),))
        rho = thermal_state(H, math.inf)
        assert rho.degeneracy == 1
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5))

    def test_classical_double_degeneracy(self):
        H = build_hamiltonian(make_chain(2, [1.0], [0.0, 0.0]))
        rho = thermal_state(H, math.inf)
        assert rho.degeneracy == 2
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho.matrix, expected)

    def test_zero_interface_field_doubles_spectrum(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            lat, _ = random_shielded_chain(rng, n=int(rng.integers(3, 7)))
            rho = thermal_state(build_hamiltonian(lat), math.inf)
            assert rho.degeneracy == 2

    def test_degeneracy_only_at_infinite_beta(self):
        H = build_hamiltonian(make_chain(2, [1.0], [0.3, 0.4]))
        assert thermal_state(H, math.inf).degeneracy == 1
        assert thermal_state(H, 2.0).degeneracy is None


def cut_lattices(rng):
    """(lattice, composed) pairs: ``composed`` says whether the zero-field
    sites cut the field sites into two or more components (or none are
    needed: a graph that falls apart by itself)."""
    def chain(zero, y_fields):
        h, g = rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9) * y_fields
        h[zero] = g[zero] = 0.0
        return validate_lattice(9, [(i, i + 1, rng.uniform(-2, 2)) for i in range(8)], h, g)

    for zero in ([4], [2, 6], [1, 4, 7]):
        for y_fields in (False, True):
            yield chain(zero, y_fields), True
    bowtie = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    h, g = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
    h[2] = g[2] = 0.0
    yield validate_lattice(5, [(i, j, rng.uniform(-2, 2)) for i, j in bowtie], h, g), True
    # triangular patch of rows 1-4, interface row 3 at zero field
    patch = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (3, 6), (3, 7),
             (4, 5), (4, 7), (4, 8), (5, 8), (5, 9), (6, 7), (7, 8), (8, 9)]
    h = rng.uniform(0, 1, 10)
    h[[3, 4, 5]] = 0.0
    yield validate_lattice(10, [(i, j, rng.uniform(-2, 2)) for i, j in patch], h), True
    # uniform couplings: an antiferromagnetic zero-field triangle ties six of
    # its eight patterns, and two zero-field star centres tie all four
    triangle = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (1, 5)]
    yield validate_lattice(6, [(i, j, -1.0) for i, j in triangle], [0, 0, 0, .5, .5, .5]), True
    stars = [(0, 1), (0, 2), (3, 4), (3, 5)]
    yield validate_lattice(6, [(i, j, 1.0) for i, j in stars], [0, .5, .5, 0, .5, .5]), True
    # no zero field, but the graph is two chains
    yield validate_lattice(5, [(0, 1, 0.7), (1, 2, -1.2), (3, 4, 0.9)],
                           rng.uniform(0.2, 1, 5), rng.uniform(-1, 1, 5)), True
    # one component: a zero field at a chain end, in a ring, or none at all
    yield make_chain(7, rng.uniform(-2, 2, 6), [0.0, *rng.uniform(-1, 1, 6)]), False
    ring = [(i, (i + 1) % 6, rng.uniform(-2, 2)) for i in range(6)]
    yield validate_lattice(6, ring, [0.4, 0.0, 0.3, 0.8, 0.5, 0.6]), False
    yield random_graph_lattice(rng, 7, y_fields=True, n_zero=0), False


class TestGroundColumns:
    """The quench's default initial state: ground-space columns solved per
    component of the field sites, against the dense oracle."""

    def test_columns_span_the_dense_ground_space(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        widths, covered = [], set()
        for lat, composed in cut_lattices(np.random.default_rng(97)):
            n = lat.n_sites
            m = sum(h == g == 0.0 for h, g in zip(lat.h, lat.g))
            H = build_hamiltonian(lat)
            shapes.clear()
            got = thermal._ground_columns(H)
            assert H._spectrum is None
            solved, shapes[:] = shapes[:], []
            dec = spectrum(build_hamiltonian(lat))
            if composed:
                # one stack per component, over the 2^(m-1) patterns spectrum
                # solves (one pattern without a zero field), their blocks
                # covering the field sites
                assert len(solved) >= 2
                assert {s[0] for s in solved} == {2 ** (m - 1) if m else 1}
                assert math.prod(s[1] for s in solved) == 2 ** (n - m)
                covered.add((min(m, 2), any(lat.g)))
            else:
                assert solved == shapes
            ref, d, _ = dense_ground(H)
            assert got.shape == (2 ** n, d)
            assert thermal._weights(dec, math.inf)[1] == d
            assert np.abs(got.conj().T @ got - np.eye(d)).max() < 1e-12
            assert np.abs(got @ got.conj().T / d - ref).max() < 1e-12
            widths.append(d)
        assert widths[8:10] == [6, 4]  # the tied uniform lattices
        # m >= 2 zero fields with y fields, and the all-field two chains
        assert {(2, True), (0, True)} <= covered

    def test_one_component_is_spectrums_own_columns(self):
        for lat, composed in cut_lattices(np.random.default_rng(101)):
            if not composed:
                dec = spectrum(build_hamiltonian(lat))
                f, _ = thermal._weights(dec, math.inf)
                assert np.array_equal(thermal._ground_columns(build_hamiltonian(lat)),
                                      dec.columns(lambda x: f(x) != 0))


class TestSectorOracle:
    """Gibbs and ground states from the parity sectors against dense eigh, and
    reduced states from the blocks against the traced full state."""

    def test_gibbs_matches_dense_eigh(self):
        for lat in oracle_lattices(53):
            H = build_hamiltonian(lat)
            for beta in (0.3, 2.0, 40.0):
                ref = gibbs_reference(H.to_dense(), beta)
                assert np.abs(thermal_state(H, beta).matrix - ref).max() < 1e-12

    def test_ground_state_matches_dense_eigh(self):
        degenerate = 0
        for lat in oracle_lattices(59):
            H = build_hamiltonian(lat)
            ref, d, tol = dense_ground(H)
            rho = thermal_state(H, math.inf)
            assert rho.degeneracy == d
            assert np.abs(rho.matrix - ref).max() < tol
            degenerate += rho.degeneracy > 1
        assert degenerate >= 5

    @staticmethod
    def keeps(lat):
        """One site, a non-contiguous set, the complement of a zero-field site
        and all sites, where the lattice has them."""
        n = lat.n_sites
        zero = [i for i in range(n) if lat.h[i] == lat.g[i] == 0.0]
        out = [[n - 1], list(range(n))]
        if n >= 3:
            out.append(list(range(0, n, 2)))
        if zero:
            out.append([i for i in range(n) if i != zero[0]])
        return out

    def test_reduced_states_match_the_traced_full_state(self):
        for lat in oracle_lattices(73):
            H = build_hamiltonian(lat)
            for beta in (0.0, 0.3, 2.0, 40.0, math.inf):
                rho = thermal_state(H, beta)
                tol = dense_ground(H)[2] if math.isinf(beta) else 1e-12
                for keep in self.keeps(lat):
                    (got,) = thermal._reduced_states(H, beta, keep)
                    ref = partial_trace(rho, keep).matrix
                    assert np.abs(got - ref).max() < tol
                    if len(keep) == lat.n_sites:
                        assert np.abs(got - rho.matrix).max() < tol

    def test_pieces_are_the_traced_interface_sectors(self):
        """Piece s is Tr P_s ρ P_s, P_s projecting the sites ``by`` onto Z
        pattern s, and the pieces sum to the whole."""
        for lat in oracle_lattices(79):
            n = lat.n_sites
            by = [i for i in range(n) if lat.h[i] == lat.g[i] == 0.0][:2]
            if not by:
                continue
            H = build_hamiltonian(lat)
            for beta in (0.3, math.inf):
                rho = thermal_state(H, beta).matrix
                for keep in self.keeps(lat):
                    pieces = thermal._reduced_states(H, beta, keep, by)
                    assert len(pieces) == 2 ** len(by)
                    (whole,) = thermal._reduced_states(H, beta, keep)
                    assert np.abs(sum(pieces) - whole).max() < 1e-12
                    for signs, piece in zip(itertools.product((1, -1), repeat=len(by)), pieces):
                        p = kron_op(n, {i: (I2 + s * SZ) / 2 for i, s in zip(by, signs)})
                        ref = ptrace_reference(p @ rho @ p, n, keep)
                        assert np.abs(piece - ref).max() < 1e-12

    def test_pieces_need_conserved_sites(self):
        lat = make_chain(4, [1.0, -0.5, 0.8], [0.6, 0.0, 0.3, 0.4])
        H = build_hamiltonian(lat)
        assert len(thermal._reduced_states(H, 1.0, [3], by=[1])) == 2
        for by in ([0], [1, 2]):
            with pytest.raises(ShieldlabError, match="lists a site with a field"):
                thermal._reduced_states(H, 1.0, [3], by=by)
        for keep, by, what in (([4], [], "keep"), ([0, 0], [], "keep"), ([3], [7], "by")):
            with pytest.raises(ShieldlabError, match=f"^{what}=.* is not a set of sites of 4"):
                thermal._reduced_states(H, 1.0, keep, by)

    def test_lift_adds_back_what_project_takes(self):
        """Σ_p lift(p, project(p, x)) = x: the placements cover the basis
        once, and lift adds into its output rather than overwriting it."""
        rng = np.random.default_rng(61)
        for lat in oracle_lattices(61):
            dec = spectrum(build_hamiltonian(lat))
            x = rng.normal(size=(dec.dim, 2)) + 1j * rng.normal(size=(dec.dim, 2))
            out = x.copy()
            for p in range(len(dec.placements)):
                dec.lift(p, dec.project(p, x), out)
            assert np.abs(out - 2 * x).max() < 1e-12


class TestPartialTrace:
    def test_product_state_exact(self):
        rng = np.random.default_rng(53)
        a = random_mixed_state(rng, 1)
        b = random_mixed_state(rng, 2)
        rho = DensityMatrix(np.kron(a, b), (0, 1, 2))
        assert np.abs(partial_trace(rho, [0]).matrix - a).max() < 1e-14
        assert np.abs(partial_trace(rho, [1, 2]).matrix - b).max() < 1e-14

    def test_bell_state(self):
        v = np.zeros(4)
        v[0] = v[3] = 1 / math.sqrt(2)
        rho = DensityMatrix(np.outer(v, v), (0, 1))
        reduced = partial_trace(rho, [0])
        assert np.allclose(reduced.matrix, np.eye(2) / 2)

    def test_against_reshape_oracle(self):
        rng = np.random.default_rng(59)
        for n in (2, 3, 4, 5):
            rho_m = random_mixed_state(rng, n)
            rho = DensityMatrix(rho_m, tuple(range(n)))
            for _ in range(4):
                k = int(rng.integers(1, n + 1))
                keep = sorted(rng.choice(n, size=k, replace=False).tolist())
                got = partial_trace(rho, keep).matrix
                ref = ptrace_reference(rho_m, n, keep)
                assert np.abs(got - ref).max() < 1e-13

    def test_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(61)
        rho = DensityMatrix(random_mixed_state(rng, 4), (0, 1, 2, 3))
        reduced = partial_trace(rho, [1, 3])
        assert abs(np.trace(reduced.matrix).real - 1) < 1e-12
        assert np.linalg.eigvalsh(reduced.matrix)[0] >= -1e-10
        assert reduced.site_labels == (1, 3)

    def test_respects_site_labels(self):
        rng = np.random.default_rng(67)
        a = random_mixed_state(rng, 1)
        b = random_mixed_state(rng, 1)
        rho = DensityMatrix(np.kron(a, b), (4, 7))
        assert np.abs(partial_trace(rho, [7]).matrix - b).max() < 1e-14

    def test_invalid_site_set(self):
        rho = DensityMatrix(np.eye(2) / 2, (3,))
        with pytest.raises(ShieldlabError, match=r"^keep=\[0\] is not a subset of \(3,\)"):
            partial_trace(rho, [0])

    def test_keep_everything(self):
        rng = np.random.default_rng(71)
        rho = DensityMatrix(random_mixed_state(rng, 2), (0, 1))
        assert np.abs(partial_trace(rho, [0, 1]).matrix - rho.matrix).max() == 0.0


class TestExpectation:
    def test_maximally_mixed_z(self):
        rho = DensityMatrix(np.eye(2) / 2, (0,))
        assert expectation(rho, PauliString("Z")) == 0.0

    def test_single_spin_tanh(self):
        H = HamiltonianTerms(1, ((-1.0, PauliString("X")),))
        assert expectation(thermal_state(H, 1.0), PauliString("X")) == pytest.approx(
            TANH1, abs=1e-12)

    def test_classical_chain_second_site(self):
        # diagonal Gibbs state of the longitudinally pinned chain:
        # <Z_2> = tanh(beta) tanh(h1 beta)
        n, beta, h1 = 4, 0.9, 0.6
        rho = DensityMatrix(np.diag(classical_chain_gibbs_diag(n, beta, h1)),
                            tuple(range(n)))
        got = expectation(rho, PauliString.single(n, 1, "Z"))
        assert got == pytest.approx(math.tanh(beta) * math.tanh(h1 * beta),
                                    abs=1e-12)

    def test_matches_dense_observable(self):
        rng = np.random.default_rng(79)
        rho_m = random_mixed_state(rng, 3)
        rho = DensityMatrix(rho_m, (0, 1, 2))
        p = PauliString.from_text("+ X0 Y2", 3)
        assert expectation(rho, p) == pytest.approx(
            float(np.trace(rho_m @ kron_word(p)).real), abs=1e-12)

    def test_size_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2, (0,))
        with pytest.raises(ShieldlabError, match="acts on 3 sites, the state on 1"):
            expectation(rho, PauliString.from_sites(3, {1: "X", 2: "Z"}))

    def test_imaginary_residual_guard(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]), (0,))
        with pytest.raises(ShieldlabError, match="^expectation has imaginary residual"):
            expectation(rho, PauliString.from_text("+i Z0", 1))  # anti-Hermitian


class TestTraceDistance:
    def test_identical(self):
        rng = np.random.default_rng(83)
        rho = DensityMatrix(random_mixed_state(rng, 2), (0, 1))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix(np.diag([1.0, 0.0]), (0,))
        one = DensityMatrix(np.diag([0.0, 1.0]), (0,))
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-14)

    def test_symmetric(self):
        rng = np.random.default_rng(89)
        a = DensityMatrix(random_mixed_state(rng, 2), (0, 1))
        b = DensityMatrix(random_mixed_state(rng, 2), (0, 1))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))

    def test_size_mismatch(self):
        a = DensityMatrix(np.eye(2) / 2, (0,))
        b = DensityMatrix(np.eye(4) / 4, (0, 1))
        with pytest.raises(ShieldlabError, match="states live on different sites"):
            trace_distance(a, b)
        # one dimension is not enough: the sites must be the same, in order
        c = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 3))
        with pytest.raises(ShieldlabError, match=r"\(0, 1\) vs \(2, 3\)"):
            trace_distance(b, c)
        with pytest.raises(ShieldlabError, match=r"\(2, 3\) vs \(3, 2\)"):
            trace_distance(c, DensityMatrix(np.eye(4) / 4, (3, 2)))


class TestShielding:
    def test_chains_shield_across_zero_field_site(self):
        rng = np.random.default_rng(97)
        for _ in range(8):
            lat, L = random_shielded_chain(rng)
            split = validate_split(lat, range(L + 1), range(L, lat.n_sites))
            beta = float(rng.choice([0.1, 1.0, 5.0]))
            report = shielding_report(lat, split, beta)
            assert report.distance < 1e-10
            assert report.verdict == "pass"

    def test_interface_lattices_with_y_fields_shield(self):
        rng = np.random.default_rng(101)
        for _ in range(6):
            lat, split = random_interface_lattice(rng)
            report = shielding_report(lat, split, 1.0)
            assert report.distance < 1e-10

    def test_reduced_state_does_not_move_with_far_parameters(self):
        # observable support strictly left of the zero-field site is
        # unaffected by any parameter change strictly to its right
        rng = np.random.default_rng(103)
        lat, L = random_shielded_chain(rng, n=6)
        if L < 2:
            L = 2
            h = list(lat.h)
            h[L] = 0.0
            lat = update_parameters(lat, h=h)
        split = validate_split(lat, range(L + 1), range(L, 6))
        obs = PauliString.single(L, 0, "Z")  # on the kept sites 0..L-1
        before = expectation(partial_trace(thermal_state(build_hamiltonian(lat), 1.3),
                                           range(L)), obs)
        h2 = list(lat.h)
        for i in range(L + 1, 6):
            h2[i] = rng.uniform(0, 1)
        lat2 = update_parameters(lat, h=h2,
                                 J_by_edge={(L, L + 1): rng.uniform(-2, 2)})
        after = expectation(partial_trace(thermal_state(build_hamiltonian(lat2), 1.3),
                                          range(L)), obs)
        assert abs(before - after) < 1e-10

    def test_two_site_interface_fails_at_finite_temperature(self):
        lat = make_diamond(1.0, 1.0)
        split = validate_split(lat, {0, 1, 2}, {1, 2, 3})
        report = shielding_report(lat, split, 1.0)
        assert report.distance > 1e-3
        assert report.verdict == "fail"

    def test_beta_zero_trivially_shields(self):
        lat = make_chain(4, [1.0, 1.0, 1.0], [0.5, 0.0, 0.3, 0.2])
        split = validate_split(lat, {0, 1}, {1, 2, 3})
        assert shielding_report(lat, split, 0.0).distance < 1e-14

    def test_ground_state_limit_matches_for_single_site_interface(self):
        lat = make_chain(5, [1.0, -0.5, 0.8, 1.2], [0.6, 0.1, 0.0, 0.7, 0.4])
        split = validate_split(lat, {0, 1, 2}, {2, 3, 4})
        report = shielding_report(lat, split, math.inf)
        assert report.distance < 1e-9


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ShieldlabError, match="^density matrix is not Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]), (0,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ShieldlabError, match="^trace is 2.0, expected 1"):
            DensityMatrix(np.eye(2), (0,))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, entry):
        with pytest.raises(ShieldlabError, match=rf"entry \(0, 0\) is {entry}, not finite"):
            DensityMatrix(np.full((2, 2), entry), (0,))
        with pytest.raises(ShieldlabError, match=rf"entry \(0, 0\) is {entry}, not finite"):
            DensityMatrix(np.array([[entry, 0.0], [0.0, 0.5]]), (0,))
        with pytest.raises(ShieldlabError, match=rf"entry \(0, 1\) is {entry}, not finite"):
            DensityMatrix(np.array([[0.5, entry], [entry, 0.5]]), (0,))

    @pytest.mark.parametrize("shape", [(2,), (2, 4)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ShieldlabError,
                           match=f"^density matrix must be square, got {re.escape(str(shape))}"):
            DensityMatrix(np.zeros(shape), (0,))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ShieldlabError, match="^dimension 4 does not match 1 sites"):
            DensityMatrix(np.eye(4) / 4, (0,))

    def test_rejects_repeated_site_labels(self):
        with pytest.raises(ShieldlabError, match=r"site_labels \(0, 0\) repeat a site"):
            DensityMatrix(np.eye(4) / 4, (0, 0))
        H = build_hamiltonian(make_chain(3, [1.0, 1.0], [0.5, 0.0, 0.5]))
        with pytest.raises(ShieldlabError, match="repeat a site"):
            thermal_state(H, 1.0, site_labels=(5, 5, 5))

    def test_gibbs_state_is_positive(self):
        rng = np.random.default_rng(107)
        lat, _ = random_shielded_chain(rng, n=4)
        rho = thermal_state(build_hamiltonian(lat), 2.0)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10

    def test_pure_states_from_helpers_are_valid(self):
        rng = np.random.default_rng(109)
        DensityMatrix(random_pure_state(rng, 2), (0, 1))
        DensityMatrix(random_product_state(rng, 3), (0, 1, 2))
