"""Independent reference implementations used as oracles.

Everything here is built from first principles (explicit Kronecker products,
tensor reshapes, classical enumeration) and deliberately avoids the library's
own bit-arithmetic code paths, so the two sides of each comparison stay
independent.
"""

from itertools import product

import numpy as np

from shieldlab import DensityMatrix

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def kron_op(n, ops_by_site):
    """Explicit Kronecker product with site 0 leftmost (most significant)."""
    out = np.array([[1.0 + 0j]])
    for i in range(n):
        out = np.kron(out, ops_by_site.get(i, I2))
    return out


def kron_word(p):
    """Dense matrix of a Pauli word: its phase times the Kronecker product
    of its letters, read from the word's letters and phase exponent only."""
    return 1j ** p.phase_k * kron_op(
        p.n_sites, {i: PAULI[c] for i, c in enumerate(p.letters)})


def kron_terms(terms):
    """Dense sum of (coefficient, Pauli word) pairs, each word by kron_word."""
    return sum(c * kron_word(p) for c, p in terms)


def dual_reference(dc):
    """Dual-variable Hamiltonian of a DualChain, assembled with kron_op.

    Writes out the formulas of the DualChain docstring directly, with no
    Pauli-word algebra: mu_z(0) = Z_0, mu_z(d) = Z_{d-1} Z_d, mu_z(n) =
    Z_{n-1}, mu_x(d) = X_d ... X_{n-1}, and
    H = -sum_d J_d mu_z(d) - sum_d h_d mu_x(d) mu_x(d+1). Zero weights are
    added like any other, in the same field-then-coupling order.
    """
    n = dc.n_sites

    def mu_z(d):
        return kron_op(n, {i: SZ for i in (d - 1, d) if 0 <= i < n})

    def mu_x(d):
        return kron_op(n, {i: SX for i in range(d, n)})

    H = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for d, J in enumerate(dc.dual_fields):
        H -= J * mu_z(d)
    for d, h in enumerate(dc.dual_couplings):
        H -= h * (mu_x(d) @ mu_x(d + 1))
    return H


def dense_reference(lat):
    """Hamiltonian matrix assembled term by term with kron_op."""
    n = lat.n_sites
    H = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for (i, j, J) in lat.edges:
        H -= J * kron_op(n, {i: SZ, j: SZ})
    for i, hi in enumerate(lat.h):
        H -= hi * kron_op(n, {i: SX})
    for i, gi in enumerate(lat.g):
        H -= gi * kron_op(n, {i: SY})
    return H


def majorana_quench_reference(pre, post, times, observables):
    """Values (times × observables) of ±X_i and ±Z_i Z_{i+1} in the ground
    mixture of the open chain ``pre`` evolved under ``post``, from the
    complex 2n×2n Majorana form.

    With c = (a_0, b_0, a_1, b_1, ...), H = (i/4) cᵀ A c for the real
    antisymmetric A_{a_i b_i} = −2h_i, A_{b_i a_{i+1}} = −2J_i. From
    (w, U) = eigh(iA): Γ₀ = i·sign(iA), with the modes |w| within
    1e-9·max(Σ|w|/2, 1) of zero set to 0; the flow e^{At} = U e^{−iwt} U†;
    Γ(t) = e^{At} Γ₀ e^{At}ᵀ; ⟨X_i⟩ = Γ_{a_i b_i} and
    ⟨Z_i Z_{i+1}⟩ = Γ_{b_i a_{i+1}}. Every word must be one of those two.
    """
    def form(lat):
        a = np.zeros((2 * lat.n_sites, 2 * lat.n_sites))
        for i, h in enumerate(lat.h):
            a[2 * i, 2 * i + 1] = -2 * h
        for i, j, J in lat.edges:
            assert j == i + 1
            a[2 * i + 1, 2 * j] = -2 * J
        return a - a.T

    w, u = np.linalg.eigh(1j * form(pre))
    slack = 1e-9 * max(np.abs(w).sum() / 2, 1.0)
    gamma0 = -((u * np.where(np.abs(w) <= slack, 0.0, np.sign(w))) @ u.conj().T).imag
    wp, v = np.linalg.eigh(1j * form(post))
    at = []
    for obs in observables:
        sup = obs.support()
        letters = "".join(obs.letters[i] for i in sup)
        assert letters in ("X", "ZZ") and obs.phase_k in (0, 2)
        j, k = (2 * sup[0], 2 * sup[0] + 1) if letters == "X" else (2 * sup[0] + 1, 2 * sup[1])
        at.append((1 - obs.phase_k, j, k))
    out = []
    for t in times:
        flow = ((v * np.exp(-1j * wp * t)) @ v.conj().T).real
        gamma = flow @ gamma0 @ flow.T
        out.append([s * gamma[j, k] for s, j, k in at])
    return np.array(out)


def gibbs_reference(H, beta):
    """exp(-beta H)/Z via eigendecomposition of an explicit matrix."""
    w, v = np.linalg.eigh(H)
    e = np.exp(-beta * (w - w.min()))
    e /= e.sum()
    return (v * e) @ v.conj().T


def ptrace_reference(rho, n, keep):
    """Partial trace via tensor reshape and moveaxis (not bit bucketing)."""
    keep = sorted(keep)
    drop = [i for i in range(n) if i not in keep]
    m = len(drop)
    t = np.reshape(rho, (2,) * (2 * n))
    t = np.moveaxis(
        t,
        drop + [n + i for i in drop],
        list(range(n - m, n)) + list(range(2 * n - m, 2 * n)),
    )
    t = np.reshape(t, (2 ** (n - m), 2 ** m, 2 ** (n - m), 2 ** m))
    return np.trace(t, axis1=1, axis2=3)


def classical_chain_gibbs_diag(n, beta, h1):
    """Diagonal Gibbs weights of -h1 Z_1 - sum Z_k Z_{k+1} by enumeration.

    Returns the length-2^n probability vector (the state is diagonal in the
    computational basis, site 0 = most significant bit).
    """
    weights = np.zeros(2 ** n)
    for k in range(2 ** n):
        spins = [1 - 2 * ((k >> (n - 1 - i)) & 1) for i in range(n)]
        energy = -h1 * spins[0] - sum(
            spins[i] * spins[i + 1] for i in range(n - 1)
        )
        weights[k] = -beta * energy
    weights -= weights.max()
    weights = np.exp(weights)
    return weights / weights.sum()


def numpy_point_rng(seed, index):
    """numpy's Generator on the key of ``point_rng(seed, index)``: the same
    stream of doubles, with numpy's whole sampling API on top."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) + index))


def random_pure_state(rng, n):
    """Haar-ish random pure state as a density matrix."""
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_mixed_state(rng, n):
    """Full-rank random mixed state (Wishart normalized)."""
    dim = 2 ** n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_product_state(rng, n):
    """Random product of single-site pure states."""
    rho = np.array([[1.0 + 0j]])
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho = np.kron(rho, np.outer(v, v.conj()))
    return rho


def sector_states_reference(rho, interface_sites):
    """Decompose a full-lattice state by the conserved Z pattern on the
    interface sites, with full-size masks.

    Yields (label, weight, DensityMatrix) per occupied pattern, in the order
    of ``product((1, -1), ...)``; labels use '+'/'-' per interface site in
    ascending order, and patterns of weight below 1e-12 are skipped.
    """
    n = rho.n_sites
    pos = {site: k for k, site in enumerate(rho.site_labels)}
    idx = np.arange(rho.dim)
    for signs in product((1, -1), repeat=len(interface_sites)):
        mask = np.ones(rho.dim, dtype=bool)
        for site, sign in zip(interface_sites, signs):
            bit = (idx >> (n - 1 - pos[site])) & 1
            mask &= (1 - 2 * bit) == sign
        weight = float(np.sum(np.abs(np.diagonal(rho.matrix)[mask])))
        if weight < 1e-12:
            continue
        proj = np.where(mask, 1.0, 0.0)
        sector = rho.matrix * np.outer(proj, proj)
        sector = sector / np.trace(sector).real
        label = "".join("+" if s == 1 else "-" for s in signs)
        yield label, weight, DensityMatrix(sector, rho.site_labels)
