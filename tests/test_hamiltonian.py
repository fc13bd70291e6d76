import numpy as np
import pytest

from shieldlab import (
    DualChain,
    HamiltonianTerms,
    PauliString,
    RegionSplit,
    ShieldlabError,
    build_hamiltonian,
    commutator_norm,
    dual_algebra_residual,
    dual_chain,
    make_chain,
    make_diamond,
    make_triangular_patch,
    split_hamiltonian,
    validate_lattice,
    validate_split,
)

from helpers import dense_reference, dual_reference, kron_word


def random_lattice(rng, n, with_g=False):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = [p for p in pairs if rng.random() < 0.6]
    edges = [(i, j, rng.uniform(-2, 2)) for (i, j) in keep]
    h = rng.uniform(-1, 1, size=n)
    g = rng.uniform(-1, 1, size=n) if with_g else None
    return validate_lattice(n, edges, h, g)


class TestBuild:
    def test_single_site_field(self):
        H = build_hamiltonian(validate_lattice(1, [], [0.7]))
        assert H.terms == ((-0.7, PauliString("X")),)

    def test_classical_two_spin(self):
        H = build_hamiltonian(make_chain(2, [1.0], [0.0, 0.0]))
        assert H.terms == ((-1.0, PauliString("ZZ")),)
        evals = np.linalg.eigvalsh(H.to_dense())
        assert np.allclose(evals, [-1, -1, 1, 1])

    def test_diamond_terms(self):
        H = build_hamiltonian(make_diamond(0.9, 1.1))
        texts = sorted(f"{c:+g} {p.to_text()}" for c, p in H.terms)
        assert texts == [
            "-0.9 + X0",
            "-1 + Z0 Z1",
            "-1 + Z0 Z2",
            "-1 + Z1 Z3",
            "-1 + Z2 Z3",
            "-1.1 + X3",
        ]

    def test_zero_coefficients_pruned(self):
        lat = validate_lattice(2, [(0, 1, 0.0)], [0.0, 0.5], [0.25, 0.0])
        H = build_hamiltonian(lat)
        assert H.terms == ((-0.5, PauliString("IX")), (-0.25, PauliString("YI")))

    def test_dense_matches_kron_reference(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4, 5):
            for with_g in (False, True):
                lat = random_lattice(rng, n, with_g)
                got = build_hamiltonian(lat).to_dense()
                assert np.allclose(got, dense_reference(lat), atol=1e-14)

    def test_dense_real_without_y_terms(self):
        lat = random_lattice(np.random.default_rng(6), 4, with_g=False)
        assert not np.iscomplexobj(build_hamiltonian(lat).to_dense())
        lat_g = random_lattice(np.random.default_rng(6), 4, with_g=True)
        assert np.iscomplexobj(build_hamiltonian(lat_g).to_dense())

    def test_hermitian_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            H = build_hamiltonian(random_lattice(rng, 4, rng.random() < 0.5))
            dense = H.to_dense()
            assert np.array_equal(dense, dense.conj().T)

    def test_rejects_bad_term_shapes(self):
        with pytest.raises(ShieldlabError, match="^unsupported term shape '\\+ Z0'"):
            HamiltonianTerms(2, ((1.0, PauliString("ZI")),))
        with pytest.raises(ShieldlabError, match="^unsupported term shape '\\+ X0 X1'"):
            HamiltonianTerms(2, ((1.0, PauliString("XX")),))
        with pytest.raises(ShieldlabError, match="^term '\\+i Z0 Z1' carries a phase"):
            HamiltonianTerms(2, ((1.0, PauliString("ZZ", 1)),))

    def test_rejects_term_on_other_size(self):
        with pytest.raises(ShieldlabError,
                           match="^term '\\+ Z0 Z1' lives on 2 sites, Hamiltonian on 3"):
            HamiltonianTerms(3, ((1.0, PauliString("ZZ")),))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_no_sites(self, n):
        with pytest.raises(ShieldlabError, match=f"^n_sites: must be positive, got {n}$") as err:
            HamiltonianTerms(n, ())
        assert err.value.key == "n_sites"

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coefficient(self, c):
        with pytest.raises(ShieldlabError, match="^non-finite coefficient"):
            HamiltonianTerms(2, ((1.0, PauliString("ZZ")), (c, PauliString("XI"))))


class TestSplit:
    def test_three_site_chain(self):
        lat = make_chain(3, [1.3, 0.7], [0.4, 0.0, 0.9])
        split = validate_split(lat, {0, 1}, {1, 2})
        parts = split_hamiltonian(build_hamiltonian(lat), split)
        x_texts = sorted(f"{c:+g} {p.to_text()}" for c, p in parts.h_x.terms)
        y_texts = sorted(f"{c:+g} {p.to_text()}" for c, p in parts.h_y.terms)
        assert x_texts == ["-0.4 + X0", "-1.3 + Z0 Z1"]
        assert y_texts == ["-0.7 + Z1 Z2", "-0.9 + X2"]
        # shielded form relabels Y to 0..1
        s_texts = sorted(f"{c:+g} {p.to_text()}" for c, p in parts.h_shielded.terms)
        assert s_texts == ["-0.7 + Z0 Z1", "-0.9 + X1"]
        assert parts.y_sites == (1, 2)

    def test_whole_lattice_as_y(self):
        # a side with no site is refused, so no shielded Hamiltonian has 0 sites
        lat = make_chain(3, [1.0, 1.0], [0.2, 0.3, 0.4])
        with pytest.raises(ShieldlabError, match="^X: holds no site$") as err:
            validate_split(lat, set(), {0, 1, 2})
        assert err.value.key == "X"

    def test_diamond_split_matches_series_operator_split(self):
        lat = make_diamond(0.8, 1.2)
        split = validate_split(lat, {0, 1, 2}, {1, 2, 3})
        parts = split_hamiltonian(build_hamiltonian(lat), split)
        x_texts = sorted(f"{c:+g} {p.to_text()}" for c, p in parts.h_x.terms)
        y_texts = sorted(f"{c:+g} {p.to_text()}" for c, p in parts.h_y.terms)
        assert x_texts == ["-0.8 + X0", "-1 + Z0 Z1", "-1 + Z0 Z2"]
        assert y_texts == ["-1 + Z1 Z3", "-1 + Z2 Z3", "-1.2 + X3"]

    def test_interface_internal_edge_goes_to_y(self):
        lat = validate_lattice(
            4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0)], [0.3, 0.0, 0.0, 0.4]
        )
        split = validate_split(lat, {0, 1, 2}, {1, 2, 3})
        parts = split_hamiltonian(build_hamiltonian(lat), split)
        shielded_words = {p.to_text() for _, p in parts.h_y.terms}
        assert "+ Z1 Z2" in shielded_words

    def test_term_by_term_partition(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            L = int(rng.integers(1, n - 1))
            h = rng.uniform(0, 1, size=n)
            h[L] = 0.0
            lat = make_chain(n, rng.uniform(-2, 2, size=n - 1), h)
            H = build_hamiltonian(lat)
            split = validate_split(lat, range(L + 1), range(L, n))
            parts = split_hamiltonian(H, split)
            assert sorted(parts.h_x.terms + parts.h_y.terms,
                          key=repr) == sorted(H.terms, key=repr)

    def test_term_outside_split_detected(self):
        lat = make_chain(3, [1.0, 1.0], [0, 0, 0])
        H = build_hamiltonian(lat)
        bogus = RegionSplit(3, frozenset({0}), frozenset({2}), frozenset())
        with pytest.raises(ShieldlabError, match="is not contained in either region"):
            split_hamiltonian(H, bogus)

    def test_split_of_other_size_refused(self):
        H = build_hamiltonian(make_chain(3, [1.0, 1.0], [0, 0, 0]))
        split = validate_split(make_chain(4, [1.0] * 3, [0] * 4), {0, 1}, {1, 2, 3})
        with pytest.raises(ShieldlabError, match="^Hamiltonian and split disagree on n_sites"):
            split_hamiltonian(H, split)


class TestCommutator:
    def test_chain_split_commutes_exactly(self):
        lat = make_chain(5, [1.0, -0.4, 2.0, 0.8], [0.9, 0.2, 0.0, 0.5, 0.1])
        split = validate_split(lat, {0, 1, 2}, {2, 3, 4})
        parts = split_hamiltonian(build_hamiltonian(lat), split)
        assert commutator_norm(parts.h_x, parts.h_y) == 0.0

    def test_single_site_fields(self):
        # [X, Y] = 2i Z
        x = HamiltonianTerms(1, ((1.0, PauliString("X")),))
        y = HamiltonianTerms(1, ((1.0, PauliString("Y")),))
        assert commutator_norm(x, y) == 2.0

    def test_diamond_split_commutes_but_does_not_shield(self):
        # the two-site interface still splits H into commuting halves;
        # commutation alone is the key negative control
        lat = make_diamond(1.0, 1.0)
        split = validate_split(lat, {0, 1, 2}, {1, 2, 3})
        parts = split_hamiltonian(build_hamiltonian(lat), split)
        assert commutator_norm(parts.h_x, parts.h_y) == 0.0

    def test_nonzero_interface_field_breaks_commutation(self):
        # the split is checked on the zero-field lattice; only H carries the field
        split = validate_split(make_chain(3, [1.0, 1.0], [0.4, 0.0, 0.9]), {0, 1}, {1, 2})
        lat = make_chain(3, [1.0, 1.0], [0.4, 0.3, 0.9])
        parts = split_hamiltonian(build_hamiltonian(lat), split)
        assert commutator_norm(parts.h_x, parts.h_y) > 0.1

    def test_matches_dense_commutator(self):
        rng = np.random.default_rng(15)
        a = build_hamiltonian(random_lattice(rng, 3, True))
        b = build_hamiltonian(random_lattice(rng, 3, True))
        dense = a.to_dense() @ b.to_dense() - b.to_dense() @ a.to_dense()
        assert commutator_norm(a, b) == pytest.approx(np.abs(dense).max(), abs=1e-12)

    def test_size_mismatch(self):
        two = build_hamiltonian(make_chain(2, [1.0], [0.3, 0.4]))
        three = build_hamiltonian(make_chain(3, [1.0, 1.0], [0.3, 0.0, 0.4]))
        with pytest.raises(ShieldlabError, match="operands live on different numbers of sites"):
            commutator_norm(two, three)


class TestDualChain:
    def test_two_site_operators(self):
        dc = dual_chain(make_chain(2, [1.0], [0.3, 0.4]))
        assert dc.mu_x(1) == PauliString("IX")
        assert dc.mu_x(2) == PauliString("II")
        # boundary: the first dual x operator is the full flip string, the
        # only choice that makes the rewritten Hamiltonian an exact identity
        assert dc.mu_x(0) == PauliString("XX")
        assert dc.mu_z(0) == PauliString("ZI")
        assert dc.mu_z(1) == PauliString("ZZ")
        assert dc.mu_z(2) == PauliString("IZ")

    def test_three_site_dense_identity(self):
        lat = make_chain(3, [2.0, 3.0], [0.1, 0.2, 0.3])
        direct = build_hamiltonian(lat).to_dense()
        dual = dual_chain(lat).to_dense()
        assert np.abs(direct - dual).max() == 0.0

    def test_random_chains_dense_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            lat = make_chain(n, rng.uniform(-2, 2, size=n - 1),
                             rng.uniform(-1, 1, size=n))
            residual = np.abs(
                build_hamiltonian(lat).to_dense() - dual_chain(lat).to_dense()
            ).max()
            assert residual < 1e-12

    def test_dense_matches_kron_reference(self):
        rng = np.random.default_rng(27)
        for n in range(1, 9):
            for _ in range(3):
                fields = rng.uniform(-2, 2, size=n + 1)
                couplings = rng.uniform(-1, 1, size=n)
                fields[rng.integers(n + 1)] = 0.0
                couplings[rng.integers(n)] = 0.0
                dc = DualChain(n, tuple(couplings), tuple(fields))
                assert np.array_equal(dc.to_dense(), dual_reference(dc))

    def test_algebra_residuals(self):
        rng = np.random.default_rng(25)
        for n in (2, 3, 4, 5, 6):
            lat = make_chain(n, rng.uniform(-2, 2, size=n - 1),
                             rng.uniform(-1, 1, size=n))
            assert dual_algebra_residual(dual_chain(lat)) == 0.0

    def test_algebra_against_dense(self):
        # spot-check the symbolic residuals against dense matrices
        dc = dual_chain(make_chain(4, [1.0, 0.5, 2.0], [0.1, 0.2, 0.3, 0.4]))
        for d in range(4):
            z = kron_word(dc.mu_z(d))
            x = kron_word(dc.mu_x(d))
            assert np.abs(z @ x + x @ z).max() < 1e-14
            assert np.allclose(z @ z, np.eye(16))
            assert np.allclose(x @ x, np.eye(16))
        for c in range(4):
            for d in range(5):
                if c == d:
                    continue
                z, x = kron_word(dc.mu_z(c)), kron_word(dc.mu_x(d))
                assert np.abs(z @ x - x @ z).max() < 1e-14

    def test_algebra_residual_catches_broken_operators(self):
        class DroppedX(DualChain):  # mu_x(2) commutes with mu_z(2)
            def mu_x(self, d):
                word = super().mu_x(d)
                if d != 2:
                    return word
                return PauliString(word.letters[:2] + "I" + word.letters[3:])

        class PhasedZ(DualChain):  # every mu_z squares to -1
            def mu_z(self, d):
                return PauliString(super().mu_z(d).letters, 1)

        dc = dual_chain(make_chain(5, [1.0, 0.5, 2.0, 0.8], [0.1, 0.2, 0.3, 0.4, 0.6]))
        dropped, phased = (cls(dc.n_sites, dc.dual_couplings, dc.dual_fields)
                           for cls in (DroppedX, PhasedZ))
        assert dropped.mu_x(2) == PauliString("IIIXX")
        assert dual_algebra_residual(dc) == 0.0
        assert dual_algebra_residual(dropped) == 2.0
        assert dual_algebra_residual(phased) == 2.0
        # the dense dual side follows whatever words mu_z and mu_x return
        for chain in (dc, dropped, phased):
            words = [(J, kron_word(chain.mu_z(d))) for d, J in enumerate(chain.dual_fields)]
            words += [(h, kron_word(chain.mu_x(d)) @ kron_word(chain.mu_x(d + 1)))
                      for d, h in enumerate(chain.dual_couplings)]
            assert np.array_equal(chain.to_dense(), -sum(c * m for c, m in words))

    def test_null_field_cuts_dual_graph(self):
        h = [0.5, 0.5, 0.0, 0.5, 0.5]
        dc = dual_chain(make_chain(5, [1.0] * 4, h))
        assert dc.dual_components() == ((0, 1, 2), (3, 4, 5))

    def test_parameters_swap_roles(self):
        lat = make_chain(3, [2.0, 3.0], [0.1, 0.2, 0.3])
        dc = dual_chain(lat)
        assert dc.dual_couplings == (0.1, 0.2, 0.3)
        assert dc.dual_fields == (0.0, 2.0, 3.0, 0.0)

    @pytest.mark.parametrize("lat", [
        validate_lattice(3, [(0, 2, 1.0)], [0, 0, 0]),
        make_triangular_patch([2, 3])[0],
    ], ids=["skipped_site", "triangular_patch"])
    def test_not_a_chain(self, lat):
        with pytest.raises(ShieldlabError, match="^lattice is not an open nearest-neighbor chain"):
            dual_chain(lat)

    @pytest.mark.parametrize("n, g", [(2, [0.1, 0.0]), (3, [0.0, 0.1, 0.0])])
    def test_y_field_refused(self, n, g):
        lat = validate_lattice(n, [(i, i + 1, 1.0) for i in range(n - 1)], [0.2] * n, g)
        with pytest.raises(ShieldlabError, match="^dual construction requires g ≡ 0"):
            dual_chain(lat)
