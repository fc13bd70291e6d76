"""Quenches of open transverse-field Ising chains, solved as free fermions.

Jordan–Wigner (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961); Pfeuty,
Ann. Phys. 57, 79 (1970)) maps an open chain with g ≡ 0 onto the Majorana
operators a_i = (∏_{k<i} X_k) Z_i and b_i = (∏_{k<i} X_k) Y_i, held as
c = (a_0, b_0, a_1, b_1, ...). Then X_i = i a_i b_i and Z_i Z_{i+1} =
i b_i a_{i+1}, so H = −Σ J_i Z_i Z_{i+1} − Σ h_i X_i = (i/4) cᵀ A c with the
real antisymmetric A_{a_i b_i} = −2h_i and A_{b_i a_{i+1}} = −2J_i. The
eigenvalues of iA are ±ε_k; every level of H is the lowest plus a sum of
mode energies ε_k, so the spectral span is Σ ε_k.

A Gaussian state is fixed by its correlations Γ_jk = ⟨i c_j c_k⟩ (j ≠ k).
The uniform mixture over every filling of the modes at or under the ground
cut has Γ₀ = i·sign(iA) with those modes set to 0. That is the ground
mixture that :func:`shieldlab.thermal._weights` picks when those modes,
all filled together, still stay under the cut, which is the same
:func:`shieldlab.thermal._ground_slack` of the span; otherwise that
mixture holds only some of their fillings and is not Gaussian. Under the
post's H the Majoranas flow as c(t) = e^{At} c, so Γ(t) = e^{At} Γ₀ e^{At}ᵀ,
and ⟨X_i⟩ = Γ_{a_i b_i}, ⟨Z_i Z_{i+1}⟩ = Γ_{b_i a_{i+1}}. Each lattice is
solved once, as one 2n×2n eigenproblem of the whole chain.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import _chain_fault
from .lattice import LatticeSpec
from .pauli import PauliString
from .thermal import _ground_slack

# entries of the flows e^{At} formed at once, a (times, 2n, 2n) array
_FLOW_ENTRIES = 1 << 20


def _entry(obs: PauliString) -> tuple[float, int, int] | None:
    """(s, j, k) with ``obs`` = s·i c_j c_k, for ±X_i and ±Z_i Z_{i+1};
    None for every other word."""
    sup = obs.support()
    letters = "".join(obs.letters[i] for i in sup)
    sign = 1.0 - obs.phase_k  # a Hermitian word has phase +1 or -1
    if letters == "X":
        return sign, 2 * sup[0], 2 * sup[0] + 1
    if letters == "ZZ" and sup[1] == sup[0] + 1:
        return sign, 2 * sup[0] + 1, 2 * sup[0] + 2
    return None


def _majorana_form(lat: LatticeSpec) -> np.ndarray:
    """The real antisymmetric A of H = (i/4) cᵀ A c for the chain ``lat``."""
    n = lat.n_sites
    a = np.zeros((2 * n, 2 * n))
    sites = np.arange(n)
    a[2 * sites, 2 * sites + 1] = -2.0 * np.array(lat.h)
    a[2 * sites[:-1] + 1, 2 * sites[:-1] + 2] = [-2.0 * J for (_, _, J) in lat.edges]
    return a - a.T


def _ground_correlations(lat: LatticeSpec) -> np.ndarray | None:
    """Γ₀ of the ground mixture of the chain ``lat``, or None when the modes
    at or under the ground cut, filled together, pass it."""
    w, u = np.linalg.eigh(1j * _majorana_form(lat))
    slack = _ground_slack(float(np.abs(w).sum()) / 2)
    under = np.abs(w) <= slack
    if np.abs(w[under]).sum() / 2 > slack:
        return None
    return -((u * np.where(under, 0.0, np.sign(w))) @ u.conj().T).imag


def _quench_values(pre: LatticeSpec, post: LatticeSpec, times: tuple[float, ...],
                   observables: tuple[PauliString, ...]) -> np.ndarray | None:
    """Values of ``observables`` (columns) at ``times`` (rows) in the pre's
    ground mixture evolved under the post, or None unless both are open
    chains with g ≡ 0, every observable is ±X_i or ±Z_i Z_{i+1}, and that
    mixture is Gaussian (see the module docstring).

    The flows of a batch of times are formed in one product, as many times
    as fit ``_FLOW_ENTRIES`` entries, and Γ(t) of every time in the next.
    """
    entries = [_entry(obs) for obs in observables]
    if None in entries or _chain_fault(pre) or _chain_fault(post):
        return None
    gamma = _ground_correlations(pre)
    if gamma is None:
        return None
    w, v = np.linalg.eigh(1j * _majorana_form(post))
    sign = np.array([s for s, _, _ in entries])
    at = np.array([(j, k) for _, j, k in entries], dtype=int).reshape(-1, 2)
    times = np.array(times)
    batch = max(1, _FLOW_ENTRIES // w.size ** 2)
    out = np.empty((times.size, len(entries)))
    for start in range(0, times.size, batch):
        ts = times[start:start + batch]
        flow = ((v * np.exp(-1j * np.outer(ts, w))[:, None, :]) @ v.conj().T).real
        gammas = flow @ gamma @ flow.transpose(0, 2, 1)
        out[start:start + batch] = sign * gammas[:, at[:, 0], at[:, 1]]
    return out
