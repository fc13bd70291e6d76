import math

import numpy as np
import pytest

from shieldlab import (
    PauliString,
    ShieldlabError,
    build_hamiltonian,
    classical_chain_reduced,
    expectation,
    fourspin_coefficients,
    fourspin_magnetization,
    fourspin_series_plateau,
    make_diamond,
    reduced_state,
)

from helpers import SX, SZ, classical_chain_gibbs_diag, kron_op, ptrace_reference


def diamond_magnetization_ed(beta, h1, h4):
    rho = reduced_state(build_hamiltonian(make_diamond(h1, h4)), beta, range(4))
    return expectation(rho, PauliString.single(4, 3, "X"))


class TestClassicalChain:
    def test_zero_field_is_maximally_mixed(self):
        for i in (1, 3, 6):
            rho = classical_chain_reduced(i, 1.2, 0.0)
            assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_first_site_magnetization(self):
        rho = classical_chain_reduced(1, 1.0, 1.0)
        assert expectation(rho, PauliString("Z")) == pytest.approx(
            math.tanh(1.0), abs=1e-12)

    def test_third_site_closed_form(self):
        rho = classical_chain_reduced(3, 0.7, 0.9)
        expected = math.tanh(0.7) ** 2 * math.tanh(0.7 * 0.9)
        assert expectation(rho, PauliString("Z")) == pytest.approx(
            expected, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        for n in (2, 4, 6):
            for beta in (0.3, 1.0, 2.0):
                for h1 in (0.0, 0.7, 1.5):
                    probs = classical_chain_gibbs_diag(n, beta, h1)
                    for i in range(1, n + 1):
                        got = classical_chain_reduced(i, beta, h1)
                        ref = ptrace_reference(np.diag(probs), n, [i - 1])
                        assert np.abs(got.matrix - ref).max() < 1e-10

    def test_every_site_depends_on_the_pinned_field(self):
        # the commuting-halves structure alone does not shield: each site's
        # reduced state moves when the field on site 1 changes
        for i in (2, 3, 5):
            a = classical_chain_reduced(i, 1.0, 0.2)
            b = classical_chain_reduced(i, 1.0, 1.5)
            assert np.abs(a.matrix - b.matrix).max() > 1e-3

    def test_rejects_bad_site(self):
        with pytest.raises(ShieldlabError, match="site index must be >= 1"):
            classical_chain_reduced(0, 1.0, 1.0)


def fourspin_coefficients_reference(beta, h1, h4, tol=1e-14):
    """The series summed with its explicit inner binomial loop, term by term."""
    a1, a4 = 2.0 + h1 * h1, 2.0 + h4 * h4
    A = B = C = D = G = H = 0.0
    even_fac = 1.0  # beta^(2n) / (2n)!
    n = 0
    while True:
        if n > 0:
            even_fac *= beta * beta / ((2 * n - 1) * (2 * n))
        odd_fac = even_fac * beta / (2 * n + 1)

        def split_sums(a):
            even = odd = 0.0
            for k in range(n + 1):
                term = math.comb(n, k) * a ** (n - k) * 2.0 ** k
                if k % 2 == 0:
                    even += term
                else:
                    odd += term
            return even, odd

        (e1, o1), (e4, o4) = split_sums(a1), split_sums(a4)
        terms = (2.0 * even_fac * e1, 2.0 * even_fac * o1, 2.0 * even_fac * e4,
                 2.0 * even_fac * o4, h4 * 2.0 * odd_fac * e4, h4 * 2.0 * odd_fac * o4)
        A, B, C, D, G, H = (s + t for s, t in zip((A, B, C, D, G, H), terms))
        n += 1
        if max(map(abs, terms)) < tol:
            return A, B, C, D, G, H


class TestFourSpinCoefficients:
    def test_beta_zero(self):
        c = fourspin_coefficients(0.0, 1.0, 1.0)
        assert (c.A, c.C) == (2.0, 2.0)
        assert (c.B, c.D, c.G, c.H) == (0.0, 0.0, 0.0, 0.0)
        assert c.residual == 0.0

    def test_partial_trace_identity(self):
        # Tr over the near site of exp(-beta H_X) equals A I + B Z(x)Z on
        # the interface pair; dense 8x8 exponential as the oracle
        for beta, h1 in ((0.5, 0.3), (1.0, 1.0), (2.0, 1.7)):
            c = fourspin_coefficients(beta, h1, 1.0)
            hx = -(kron_op(3, {0: SZ, 1: SZ}) + kron_op(3, {0: SZ, 2: SZ})
                   + h1 * kron_op(3, {0: SX}))
            w, v = np.linalg.eigh(hx)
            expm = (v * np.exp(-beta * w)) @ v.conj().T
            traced = expm.reshape(2, 4, 2, 4).trace(axis1=0, axis2=2)
            expected = c.A * np.eye(4) + c.B * kron_op(2, {0: SZ, 1: SZ})
            assert np.abs(traced - expected).max() < 1e-10

    def test_far_side_exponential_components(self):
        # exp(-beta H_Y) projected on the used operator basis matches
        # C, D, G, H up to their common redundant factor of 2
        beta, h4 = 1.3, 0.8
        c = fourspin_coefficients(beta, 1.0, h4)
        hy = -(kron_op(3, {0: SZ, 2: SZ}) + kron_op(3, {1: SZ, 2: SZ})
               + h4 * kron_op(3, {2: SX}))
        w, v = np.linalg.eigh(hy)
        expm = (v * np.exp(-beta * w)) @ v.conj().T
        for coeff, ops in (
            (c.C, {}),
            (c.D, {0: SZ, 1: SZ}),
            (c.G, {2: SX}),
            (c.H, {0: SZ, 1: SZ, 2: SX}),
        ):
            basis = kron_op(3, ops)
            component = np.trace(expm @ basis).real / 8.0
            assert component == pytest.approx(coeff / 2.0, abs=1e-10)

    def test_even_in_near_field(self):
        a = fourspin_coefficients(1.0, 0.8, 1.0)
        b = fourspin_coefficients(1.0, -0.8, 1.0)
        assert (a.A, a.B) == (b.A, b.B)

    def test_far_field_sign_flips_g_and_h(self):
        a = fourspin_coefficients(1.0, 1.0, 0.8)
        b = fourspin_coefficients(1.0, 1.0, -0.8)
        assert (a.C, a.D) == (b.C, b.D)
        assert (a.G, a.H) == (-b.G, -b.H)

    @pytest.mark.parametrize("beta", [1.0, 4.0, 7.0, 20.0, 50.0])
    def test_closed_form_sums_match_the_binomial_loop(self, beta):
        # the shipped betas (counterexample config and benchmark) over the
        # shipped h1 grid; h1 = 10 makes the odd part cancel the most, and
        # the loop's powers of 102 overflow there above beta 7
        h1s = list(np.arange(0.0, 2.0001, 0.05)) + ([10.0] if beta <= 7.0 else [])
        for h1 in h1s:
            c = fourspin_coefficients(beta, h1, 1.0)
            ref = fourspin_coefficients_reference(beta, h1, 1.0)
            for got, want in zip((c.A, c.B, c.C, c.D, c.G, c.H), ref):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_residual_below_tolerance(self):
        c = fourspin_coefficients(4.0, 1.0, 1.0, tol=1e-14)
        assert c.residual < 1e-14
        assert c.n_max < 400

    def test_overflow_raises(self):
        with pytest.raises(ShieldlabError, match="^series overflowed at n="):
            fourspin_coefficients(500.0, 2.0, 2.0)

    def test_negative_beta_raises(self):
        with pytest.raises(ShieldlabError, match="^beta must be non-negative, got -1.0$"):
            fourspin_coefficients(-1.0, 0.0, 1.0)

    def test_series_that_does_not_converge_within_the_cap_raises(self):
        # at beta = 150 the terms still grow at n = 400, short of overflowing
        with pytest.raises(ShieldlabError, match=r"^series did not converge within 400 "
                                                 r"terms \(beta=150.0, residual=2.13"):
            fourspin_coefficients(150.0, 0.0, 1.0)


class TestFourSpinMagnetization:
    def test_depends_on_near_field_at_finite_temperature(self):
        values = [fourspin_magnetization(1.0, h1, 1.0)
                  for h1 in np.arange(0.0, 2.0001, 0.25)]
        assert max(values) - min(values) > 1e-3

    def test_matches_exact_diagonalization(self):
        got = fourspin_magnetization(1.0, 1.0, 1.0)
        assert got == pytest.approx(diamond_magnetization_ed(1.0, 1.0, 1.0),
                                    abs=1e-8)

    def test_grid_against_exact_diagonalization(self):
        for beta in (0.25, 1.0, 4.0):
            for h1 in (0.0, 0.5, 1.0, 2.0):
                for h4 in (0.0, 0.5, 1.0, 2.0):
                    series = fourspin_magnetization(beta, h1, h4)
                    dense = diamond_magnetization_ed(beta, h1, h4)
                    assert abs(series - dense) < 1e-8

    def test_large_beta_plateau_is_independent_of_near_field(self):
        for h4 in (0.0, 1.0, 2.0):
            plateau = fourspin_series_plateau(h4)
            for h1 in (0.0, 0.5, 1.0, 2.0):
                assert abs(fourspin_magnetization(50.0, h1, h4) - plateau) < 1e-3


class TestZeroTemperatureLimit:
    def test_agrees_with_series_plateau_only_at_unit_field(self):
        # the claimed zero-temperature plateau 1/sqrt(4 + h4²) and the
        # series' actual large-beta value coincide exactly at h4 = 1 only
        assert 1.0 / math.sqrt(4.0 + 1.0) == fourspin_series_plateau(1.0)
        for h4 in (0.0, 0.5, 2.0):
            assert abs(1.0 / math.sqrt(4.0 + h4 * h4) - fourspin_series_plateau(h4)) > 0.1

    def test_series_plateau_matches_exact_diagonalization(self):
        for h4 in (0.0, 1.0, 2.0):
            ed = diamond_magnetization_ed(50.0, 0.7, h4)
            assert abs(ed - fourspin_series_plateau(h4)) < 1e-3
