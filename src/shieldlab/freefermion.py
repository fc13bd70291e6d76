"""Quenches of open transverse-field Ising chains, solved as free fermions.

Jordan–Wigner (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961); Pfeuty,
Ann. Phys. 57, 79 (1970)) maps an open chain with g ≡ 0 onto the Majorana
operators a_i = (∏_{k<i} X_k) Z_i and b_i = (∏_{k<i} X_k) Y_i, with
X_i = i a_i b_i and Z_i Z_{i+1} = i b_i a_{i+1}. So H = (i/2) aᵀ K b for the
real lower-bidiagonal K_ii = −2h_i, K_{i+1,i} = 2J_i, and with the SVD
K = Φ Σ Ψᵀ every level of H is the lowest plus a sum of mode energies σ_k:
the spectral span is Σ σ_k. Each lattice is solved once, by one n×n SVD.

Of a Gaussian state's correlations ⟨i c_j c_k⟩ only M_ij = ⟨i a_i b_j⟩ is
nonzero here. The uniform mixture over every filling of the modes at or
under the ground cut, the same :func:`shieldlab.thermal._ground_slack` of
the span that :func:`shieldlab.thermal._weights` takes, has M₀ = −Φ D Ψᵀ,
with D 0 on those modes and 1 on the rest. It is that function's ground
mixture unless those modes, filled together, pass the cut; the ground
mixture then holds only some of their fillings and is not Gaussian. Carried
once into the post's mode frame, G = Φᵀ M₀ Ψ, it evolves as
M(t) = Φ (C G C + S Gᵀ S) Ψᵀ with C = cos(Σt) and S = sin(Σt), and
⟨X_i⟩ = M_ii, ⟨Z_i Z_{i+1}⟩ = −M_{i+1,i}.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import _chain_fault
from .lattice import LatticeSpec
from .pauli import PauliString
from .thermal import _ground_slack

# entries of the correlations M(t) formed at once, a (times, n, n) array
_FLOW_ENTRIES = 1 << 20


def _entry(obs: PauliString) -> tuple[float, int, int] | None:
    """(s, i, j) with ⟨obs⟩ = s·M_ij, for ±X_i and ±Z_i Z_{i+1}; None for
    every other word."""
    sup = obs.support()
    letters = "".join(obs.letters[i] for i in sup)
    sign = 1.0 - obs.phase_k  # a Hermitian word has phase +1 or -1
    if letters == "X":
        return sign, sup[0], sup[0]
    if letters == "ZZ" and sup[1] == sup[0] + 1:
        return -sign, sup[1], sup[0]
    return None


def _modes(lat: LatticeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Φ, σ, Ψ) with Φ diag(σ) Ψᵀ = K, the a–b block of the chain ``lat``."""
    n = lat.n_sites
    k = np.diag(-2.0 * np.array(lat.h))
    k[np.arange(1, n), np.arange(n - 1)] = [2.0 * J for (_, _, J) in lat.edges]
    phi, sigma, psi_t = np.linalg.svd(k)
    return phi, sigma, psi_t.T


def _quench_values(pre: LatticeSpec, post: LatticeSpec, times: tuple[float, ...],
                   observables: tuple[PauliString, ...]) -> np.ndarray | None:
    """Values of ``observables`` (columns) at ``times`` (rows) in the pre's
    ground mixture evolved under the post, or None unless both are open
    chains with g ≡ 0, every observable is ±X_i or ±Z_i Z_{i+1}, and that
    mixture is Gaussian (see the module docstring).

    M(t) of a batch of times is formed in one product, as many times as fit
    ``_FLOW_ENTRIES`` entries.
    """
    entries = [_entry(obs) for obs in observables]
    if None in entries or _chain_fault(pre) or _chain_fault(post):
        return None
    phi0, sigma0, psi0 = _modes(pre)
    slack = _ground_slack(float(sigma0.sum()))
    under = sigma0 <= slack
    if sigma0[under].sum() > slack:
        return None
    phi, sigma, psi = _modes(post)
    g = -phi.T @ ((phi0 * ~under) @ psi0.T) @ psi
    sign = np.array([s for s, _, _ in entries])
    at = np.array([(i, j) for _, i, j in entries], dtype=int).reshape(-1, 2)
    times = np.array(times)
    batch = max(1, _FLOW_ENTRIES // sigma.size ** 2)
    out = np.empty((times.size, len(entries)))
    for start in range(0, times.size, batch):
        angles = np.outer(times[start:start + batch], sigma)
        c, s = np.cos(angles), np.sin(angles)
        m = phi @ (c[:, :, None] * g * c[:, None] + s[:, :, None] * g.T * s[:, None]) @ psi.T
        out[start:start + batch] = sign * m[:, at[:, 0], at[:, 1]]
    return out
