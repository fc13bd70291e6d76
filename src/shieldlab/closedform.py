"""Analytic closed forms used as independent oracles.

Two families live here:

* the reduced single-site states of a classical chain whose only field is a
  longitudinal field on site 1 — a negative control showing that commuting
  split parts alone do not shield;
* the double series for the four-site diamond with a two-site field-free
  interface, summed in closed form, whose magnetization on the far outer
  site retains a genuine dependence on the near outer site's field at any
  positive temperature and loses it at zero temperature.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ShieldlabError
from .thermal import DensityMatrix


def _check_beta(beta: float) -> None:
    if not beta >= 0:
        raise ShieldlabError(f"beta must be a number >= 0 (inf for the ground state), "
                             f"got {beta}")


def classical_chain_reduced(i: int, beta: float, h1: float) -> DensityMatrix:
    """Reduced state of site ``i`` (1-indexed) of the classical control chain.

    The chain Hamiltonian is -h1 Z_1 - sum Z_k Z_{k+1} with unit couplings;
    the reduced state is diagonal,

        rho_i = 1/2 I + 1/2 tanh^(i-1)(beta) tanh(h1 beta) Z,

    so every site's state depends on h1 even though the Hamiltonian splits
    into commuting halves around any site.
    """
    try:
        i = operator.index(i)
    except TypeError:
        raise ShieldlabError(f"must be an integer, got {i!r}", key="i") from None
    if i < 1:
        raise ShieldlabError(f"site index must be >= 1 (1-indexed), got {i}")
    _check_beta(beta)
    m = math.tanh(beta) ** (i - 1) * (math.tanh(h1 * beta) if h1 else 0.0)  # 0·inf
    rho = np.array([[(1 + m) / 2, 0.0], [0.0, (1 - m) / 2]])
    return DensityMatrix(rho, (i - 1,))


@dataclass(frozen=True)
class FourSpinCoefficients:
    """The diamond's operator-valued exponentials, each side scaled to stay finite.

    A and B expand the partial trace over the near outer site of
    exp(-beta H_X): that trace equals A·I + B·Z⊗Z on the two interface
    sites. C, D, G, H expand exp(-beta H_Y) in the interface/far-site
    operator basis (each carrying one redundant overall factor of 2 that
    cancels in every ratio). A and B are scaled by e^(-beta r1), and C, D,
    G and H by e^(-beta r4), with r = √(4 + h²) of that side's field; the
    scales cancel in every ratio too.
    """

    A: float
    B: float
    C: float
    D: float
    G: float
    H: float


def _side(beta: float, h: float, name: str) -> tuple[float, float, float, float]:
    """cosh(beta r) ± cosh(beta h) and h sinh(beta r)/r ± sinh(beta h), times e^(-beta r).

    With lo, hi = e^(-beta (r ∓ |h|)) the four are (1 + lo)(1 + hi)/2,
    (1 - lo)(1 - hi)/2 and (h (1 - lo hi)/r ± sign(h) (lo - hi))/2. Every
    rate is positive, so beta = inf gives lo = hi = 0, and expm1 keeps the
    differences accurate at small beta.
    """
    if not math.isfinite(h):
        raise ShieldlabError(f"must be a finite number, got {h}", key=name)
    r = math.hypot(2.0, h)
    mean = r / 2 + abs(h) / 2  # (r + |h|)/2 cannot overflow, and r - |h| = 2/mean
    near, far = -2 * beta / mean, -2 * (beta * mean)
    lo, hi = math.exp(near), math.exp(far)
    odd_r, odd_h = -h * math.expm1(near + far) / r, math.copysign(lo - hi, h)
    return ((1 + lo) * (1 + hi) / 2, math.expm1(near) * math.expm1(far) / 2,
            (odd_r + odd_h) / 2, (odd_r - odd_h) / 2)


def fourspin_coefficients(beta: float, h1: float, h4: float) -> FourSpinCoefficients:
    """The diamond's coefficient series, summed in closed form at any beta >= 0.

    Term n of each series carries Σ_k C(n, k) a^(n-k) 2^k over k = 0..n,
    split by the parity of k, with a = 2 + h² for the near (h1) or far (h4)
    field. By the binomial theorem the parts are ((a+2)^n ± (a-2)^n)/2, and
    (a+2, a-2) = (r², h²) with r = √(4 + h²), so the series sum to

        A, B = cosh(beta r1) ± cosh(beta h1),  C, D = the same with h4,
        G, H = h4 sinh(beta r4)/r4 ± sinh(beta h4).

    Each side is returned scaled by e^(-beta r) of its field (see
    :class:`FourSpinCoefficients`), so nothing overflows, and beta = inf
    gives the ground-state limit. A negative or NaN beta and a non-finite
    field are refused.
    """
    _check_beta(beta)
    A, B, _, _ = _side(beta, h1, "h1")
    return FourSpinCoefficients(A, B, *_side(beta, h4, "h4"))


def fourspin_magnetization(beta: float, h1: float, h4: float) -> float:
    """X magnetization of the diamond's far outer site: (AG + BH) / (AC + BD).

    At beta = inf it is h4/√(4 + h4²) for every h1: the zero-temperature
    heal of the two-site interface.
    """
    c = fourspin_coefficients(beta, h1, h4)
    return (c.A * c.G + c.B * c.H) / (c.A * c.C + c.B * c.D)
