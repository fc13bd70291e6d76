"""Analytic closed forms used as independent oracles.

Two families live here:

* the reduced single-site states of a classical chain whose only field is a
  longitudinal field on site 1 — a negative control showing that commuting
  split parts alone do not shield;
* the convergent double series for the four-site diamond with a two-site
  field-free interface, whose magnetization on the far outer site retains a
  genuine dependence on the near outer site's field at any positive
  temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShieldlabError
from .thermal import DensityMatrix

_SERIES_CAP = 400


def classical_chain_reduced(i: int, beta: float, h1: float) -> DensityMatrix:
    """Reduced state of site ``i`` (1-indexed) of the classical control chain.

    The chain Hamiltonian is -h1 Z_1 - sum Z_k Z_{k+1} with unit couplings;
    the reduced state is diagonal,

        rho_i = 1/2 I + 1/2 tanh^(i-1)(beta) tanh(h1 beta) Z,

    so every site's state depends on h1 even though the Hamiltonian splits
    into commuting halves around any site.
    """
    if i < 1:
        raise ShieldlabError(f"site index must be >= 1 (1-indexed), got {i}")
    m = math.tanh(beta) ** (i - 1) * math.tanh(h1 * beta)
    rho = np.array([[(1 + m) / 2, 0.0], [0.0, (1 - m) / 2]])
    return DensityMatrix(rho, (i - 1,))


@dataclass(frozen=True)
class FourSpinCoefficients:
    """Converged partial sums of the diamond's operator-valued exponentials.

    A and B expand the partial trace over the near outer site of
    exp(-beta H_X): that trace equals A·I + B·Z⊗Z on the two interface
    sites. C, D, G, H expand exp(-beta H_Y) in the interface/far-site
    operator basis (each carrying one redundant overall factor of 2 that
    cancels in every ratio). ``n_max`` is the number of outer terms summed
    and ``residual`` the magnitude of the last added term.
    """

    A: float
    B: float
    C: float
    D: float
    G: float
    H: float
    n_max: int
    residual: float


def fourspin_coefficients(beta: float, h1: float, h4: float,
                          tol: float = 1e-14) -> FourSpinCoefficients:
    """Sum the diamond's coefficient series until the added terms drop below ``tol``.

    Term n of each series carries the binomial sum Σ_k C(n, k) a^(n-k) 2^k
    over k = 0..n, split by the parity of k, with a = 2 + h² for the near
    (h1) or far (h4) field. By the binomial theorem with ±2 the even and odd
    parts are ((a+2)^n ± (a-2)^n)/2, so term n costs O(1). The outer index
    n advances until every coefficient's increment is below ``tol`` in
    magnitude. The products β^(2n)/(2n)! · (a±2)^n are carried
    incrementally, so no intermediate overflows for the beta values of
    interest (terms peak near n ≈ beta·√(a+2)/2).
    """
    if beta < 0:
        raise ShieldlabError(f"beta must be non-negative, got {beta}")
    a1 = 2.0 + h1 * h1
    a4 = 2.0 + h4 * h4
    A = B = C = D = G = H = 0.0
    # beta^(2n)/(2n)! · (a ± 2)^n for a = a1, a4 and sign +, -
    p1 = m1 = p4 = m4 = 1.0
    n = 0
    while True:
        if n > 0:
            step = beta * beta / ((2 * n - 1) * (2 * n))
            p1, m1 = p1 * step * (a1 + 2), m1 * step * (a1 - 2)
            p4, m4 = p4 * step * (a4 + 2), m4 * step * (a4 - 2)
        dA, dB = p1 + m1, p1 - m1
        dC, dD = p4 + m4, p4 - m4
        odd = h4 * beta / (2 * n + 1)  # beta^(2n+1)/(2n+1)! over beta^(2n)/(2n)!
        dG, dH = odd * dC, odd * dD
        A += dA
        B += dB
        C += dC
        D += dD
        G += dG
        H += dH
        residual = max(abs(dA), abs(dB), abs(dC), abs(dD), abs(dG), abs(dH))
        if not math.isfinite(residual) or not math.isfinite(A + C):
            raise ShieldlabError(f"series overflowed at n={n} (beta={beta}, h1={h1}, h4={h4})")
        n += 1
        if residual < tol:
            break
        if n >= _SERIES_CAP:
            raise ShieldlabError(f"series did not converge within {_SERIES_CAP} terms "
                                 f"(beta={beta}, residual={residual})")
    return FourSpinCoefficients(A=A, B=B, C=C, D=D, G=G, H=H,
                                n_max=n, residual=residual)


def fourspin_magnetization(beta: float, h1: float, h4: float,
                           tol: float = 1e-14) -> float:
    """X magnetization of the diamond's far outer site: (AG + BH) / (AC + BD)."""
    c = fourspin_coefficients(beta, h1, h4, tol=tol)
    return (c.A * c.G + c.B * c.H) / (c.A * c.C + c.B * c.D)


def fourspin_series_plateau(h4: float) -> float:
    """Large-beta limit of the series magnetization, h4/sqrt(4 + h4²).

    At h4 = 0 the far site's X magnetization vanishes identically for every
    beta (conjugating by Z on that site flips X and commutes with the
    Hamiltonian), and the plateau is approached exponentially fast in beta
    otherwise.
    """
    return h4 / math.sqrt(4.0 + h4 * h4)
