from itertools import product

import numpy as np
import pytest

from shieldlab import PauliString, ShieldlabError
from shieldlab.pauli import _product

from helpers import SX, SZ, kron_op, kron_word


def word(text, n):
    return PauliString.from_text(text, n)


def z_parity(xzk):
    """Number of sites carrying Z or Y, mod 2, read from the z mask."""
    return xzk[1].bit_count() % 2


def trace(p):
    """Tr P from the basis action P|j> = coefs[j] |j ^ mask>: only a word
    that flips no bit has a diagonal."""
    mask, coefs = p.basis_action()
    return complex(coefs.sum()) if mask == 0 else 0j


def mul(*words):
    """Masks of the product of ``words``, left to right, by ``_product``."""
    out = words[0].xzk
    for p in words[1:]:
        out = _product(out, p.xzk)
    return out


def masks_dense(n, xzk):
    """Dense i**k X**x Z**z of the masks (x, z, k) on ``n`` sites, site 0 on
    the top bit, built by kron_op (never through basis_action)."""
    x, z, k = xzk
    flips = kron_op(n, {i: SX for i in range(n) if x >> (n - 1 - i) & 1})
    signs = kron_op(n, {i: SZ for i in range(n) if z >> (n - 1 - i) & 1})
    return 1j ** k * flips @ signs


def random_word(rng, n):
    return PauliString("".join(rng.choice(list("IXYZ"), size=n)), int(rng.integers(4)))


class TestMultiplication:
    def test_single_site_identity(self):
        assert mul(word("+ X0", 1), word("+ Y0", 1)) == word("+i Z0", 1).xzk

    def test_zz_times_x_against_dense(self):
        prod = mul(word("+ Z0 Z1", 2), word("+ X1", 2))
        assert prod == word("+i Z0 Y1", 2).xzk
        expected = kron_op(2, {0: SZ, 1: SZ}) @ kron_op(2, {1: SX})
        assert np.array_equal(masks_dense(2, prod), expected)

    def test_involution(self):
        p = word("+ Y2", 3)
        assert mul(p, p) == PauliString("III").xzk

    def test_phases_stay_fourth_roots(self):
        rng = np.random.default_rng(3)
        acc, dense = PauliString("III").xzk, np.eye(8)
        for _ in range(60):
            p = random_word(rng, 3)
            acc, dense = _product(acc, p.xzk), dense @ kron_word(p)
            assert acc[2] in (0, 1, 2, 3)
            assert np.array_equal(masks_dense(3, acc), dense)

    def test_dense_homomorphism_exact(self):
        # entries are exact elements of {0, ±1, ±i}: equality must be exact
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            for _ in range(25):
                a, b = random_word(rng, n), random_word(rng, n)
                assert np.array_equal(masks_dense(n, mul(a, b)),
                                      kron_word(a) @ kron_word(b))

    def test_associativity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = (random_word(rng, 3) for _ in range(3))
            assert _product(mul(a, b), c.xzk) == _product(a.xzk, mul(b, c))


class TestLetters:
    @pytest.mark.parametrize("letters", ["XA", "xz", "X Z"])
    def test_invalid_letters_rejected(self, letters):
        with pytest.raises(ShieldlabError, match=f"^invalid Pauli letters {letters!r}"):
            PauliString(letters)


class TestPhaseExponent:
    @pytest.mark.parametrize("phase_k", [1.5, "1", 2.0, None])
    def test_non_integer_rejected_with_its_value(self, phase_k):
        with pytest.raises(ShieldlabError, match=f"phase_k must be an integer, got {phase_k!r}"):
            PauliString("XY", phase_k)

    def test_integer_types_reduced_mod_four(self):
        assert PauliString("XY", np.int64(5)) == PauliString("XY", 1)
        assert PauliString("XY", -1).phase_k == 3


class TestMasksAgainstKron:
    """The (x, z, k) algebra against matrices built only by helpers.kron_op
    from each word's letters and phase exponent (never through basis_action)."""

    @staticmethod
    def check_word(p):
        dense = kron_word(p)
        n, dim = p.n_sites, 2 ** p.n_sites
        # the convention: P = i**k X**x Z**z, site 0 on the top bit
        x, z, _ = p.xzk
        assert np.array_equal(dense, masks_dense(n, p.xzk)), p
        mask, coefs = p.basis_action()
        j = np.arange(dim)
        assert np.array_equal(dense[j ^ mask, j], coefs), p
        assert np.count_nonzero(dense) == dim
        # Z/Y parity 0 exactly when P commutes with the all-X string
        x_all = kron_op(n, {i: SX for i in range(n)})
        commutes = np.array_equal(dense @ x_all, x_all @ dense)
        assert z_parity(p.xzk) == (0 if commutes else 1), p
        assert (not (x | z)) == np.array_equal(dense, dense[0, 0] * np.eye(dim)), p
        assert trace(p) == np.trace(dense), p

    def test_every_single_site_pair_at_every_phase(self):
        for a, b in product("IXYZ", repeat=2):
            for ka, kb in product(range(4), repeat=2):
                p, q = PauliString(a, ka), PauliString(b, kb)
                assert np.array_equal(masks_dense(1, mul(p, q)),
                                      kron_word(p) @ kron_word(q)), (p, q)
                for word in (p, q):
                    self.check_word(word)

    def test_random_words_of_one_to_five_sites(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            p, q = random_word(rng, n), random_word(rng, n)
            assert np.array_equal(masks_dense(n, mul(p, q)),
                                  kron_word(p) @ kron_word(q)), (p, q)
            for word in (p, q):
                self.check_word(word)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_word_matches_kron_oracle(self, n):
        for letters in product("IXYZ", repeat=n):
            for phase_k in range(4):
                self.check_word(PauliString("".join(letters), phase_k))


class TestBasisAction:
    def test_site_zero_is_most_significant(self):
        # Z on site 0 of two sites: signs follow the high bit
        mask, coefs = word("+ Z0", 2).basis_action()
        assert mask == 0
        assert np.array_equal(coefs, [1, 1, -1, -1])

    def test_cap_enforced(self):
        with pytest.raises(ShieldlabError, match="^dense realization of 13 sites exceeds the cap"):
            PauliString("I" * 13).basis_action()

    def test_basis_action_matches_dense(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 4):
            for _ in range(15):
                p = PauliString("".join(rng.choice(list("IXYZ"), size=n)),
                                int(rng.integers(4)))
                psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
                # P|j> = coefs[j] |j ^ mask>, entry by entry and on a vector
                mask, coefs = p.basis_action()
                j = np.arange(2 ** n)
                dense = np.zeros((2 ** n, 2 ** n), dtype=complex)
                dense[j ^ mask, j] = coefs
                assert np.array_equal(dense, kron_word(p)), p
                moved = np.zeros_like(psi)
                moved[j ^ mask] = coefs * psi
                assert np.allclose(moved, kron_word(p) @ psi, atol=1e-14)
                assert np.allclose(p.apply(psi[:, None])[:, 0], kron_word(p) @ psi,
                                   atol=1e-14)


class TestTrace:
    def test_identity_trace(self):
        assert trace(PauliString("III")) == 8

    def test_single_pauli_traceless(self):
        assert trace(word("+ Z0", 2)) == 0

    def test_word_trace_matches_dense(self):
        p = word("+ Z0 X1 Z2", 3)
        assert trace(p) == 0
        assert trace(p) == np.trace(kron_word(p))

    def test_phase_carried(self):
        assert trace(PauliString("II", 1)) == 4j


class TestLeftParity:
    """The parity argument of the paper on the z mask: products of the
    generators {Z_i Z_j, X_i} flip the Z/Y character of zero or two sites."""

    @pytest.mark.parametrize("text, n, parity", [
        ("+ Z0 Z1", 2, 0),
        ("+ Z0 Y1 X2", 3, 0),
        ("+ Z0", 1, 1),
    ])
    def test_examples(self, text, n, parity):
        assert z_parity(word(text, n).xzk) == parity

    def test_generator_products_preserve_parity(self):
        # products of ZZ-pair and X generators: each step flips the Z/Y
        # character of zero or two sites, so the parity never changes
        rng = np.random.default_rng(23)
        for n in (3, 4, 5, 6):
            for _ in range(20):
                acc = PauliString("I" * n).xzk
                for _ in range(15):
                    if rng.random() < 0.5:
                        i, j = rng.choice(n, size=2, replace=False)
                        gen = PauliString.from_sites(
                            n, {int(i): "Z", int(j): "Z"})
                    else:
                        gen = PauliString.single(n, int(rng.integers(n)), "X")
                    before = z_parity(acc)
                    acc = _product(acc, gen.xzk)
                    assert z_parity(acc) == before == 0

    def test_interface_z_forces_vanishing_trace_elsewhere(self):
        # generator products with even parity: whenever the word carries Z
        # at a chosen site, some other site is non-identity, so the trace
        # over the remaining sites vanishes
        rng = np.random.default_rng(29)
        n, interface = 5, 2
        b = n - 1 - interface
        at = 1 << b

        def drop(m):  # the mask without the interface bit
            return (m >> (b + 1)) << b | m & (at - 1)

        for _ in range(200):
            acc = PauliString("I" * n).xzk
            for _ in range(int(rng.integers(1, 12))):
                if rng.random() < 0.5:
                    i, j = rng.choice(n, size=2, replace=False)
                    gen = PauliString.from_sites(n, {int(i): "Z", int(j): "Z"})
                else:
                    gen = PauliString.single(n, int(rng.integers(n)), "X")
                acc = _product(acc, gen.xzk)
            x, z, k = acc
            assert z_parity(acc) == 0
            if z & at and not x & at:  # Z on the interface
                assert (x | z) & ~at  # another site is not I
                assert np.trace(masks_dense(n - 1, (drop(x), drop(z), k))) == 0


class TestTextForm:
    def test_documented_example(self):
        p = PauliString.from_text("+i Z0 X3", 4)
        assert p.letters == "ZIIX"
        assert p.phase_k == 1
        assert p.to_text() == "+i Z0 X3"

    def test_round_trip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            p = PauliString("".join(rng.choice(list("IXYZ"), size=n)),
                            int(rng.integers(4)))
            assert PauliString.from_text(p.to_text(), n) == p

    def test_identity_prints_bare_phase(self):
        assert PauliString("II").to_text() == "+"
        assert PauliString.from_text("+", 2) == PauliString("II")

    def test_rejects_double_assignment(self):
        with pytest.raises(ShieldlabError, match="^site 0 assigned twice in '\\+ X0 Z0'"):
            PauliString.from_text("+ X0 Z0", 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ShieldlabError, match=r"^site 5 outside 0\.\.1"):
            PauliString.from_text("+ X5", 2)

    @pytest.mark.parametrize("site", [-1, 3])
    def test_constructors_refuse_a_site_out_of_range(self, site):
        with pytest.raises(ShieldlabError, match=rf"^site {site} outside 0\.\.2$"):
            PauliString.single(3, site, "X")
        with pytest.raises(ShieldlabError, match=rf"^site {site} outside 0\.\.2$"):
            PauliString.from_sites(3, {0: "Z", site: "X"})

    @pytest.mark.parametrize("token", ["X²", "X٣", "Z１"])
    def test_site_must_be_ascii_digits(self, token):
        # "²" is a digit to str.isdigit but not to int(); "٣" and "１" are
        # read by int() as 3 and 1
        with pytest.raises(ShieldlabError, match=f"^bad Pauli token {token!r}$"):
            PauliString.from_text(f"+ {token}", 4)

