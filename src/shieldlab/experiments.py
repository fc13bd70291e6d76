"""Seeded experiment runners behind the command-line interface.

Each runner takes a plain-dict config (usually loaded from JSON), runs a
deterministic computation and returns a :class:`~shieldlab.tables.ResultTable`
whose metadata carries the reproducibility fingerprint (config hash, seed,
library version) and a ``verdict`` dict classifying the outcome against the
library-wide thresholds.

Randomness is counter-based and platform independent: every draw comes from
a Philox generator keyed by ``(seed << 64) + point_index``, so trials are
reproducible individually and in any order. The draw order inside a point is
documented per runner and never changes.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import product

import numpy as np

from . import __version__
from .closedform import (
    fourspin_magnetization,
    fourspin_zero_temperature_limit,
)
from .dynamics import QuenchProtocol, run_quench
from .errors import ShieldlabError
from .hamiltonian import build_hamiltonian, dual_algebra_residual, dual_chain
from .lattice import (
    LatticeSpec,
    make_chain,
    make_diamond,
    lattice_from_json,
    split_from_json,
    update_parameters,
)
from .pauli import PauliString
from .tables import ResultTable
from .thermal import (
    SHIELDING_FAIL_TOL,
    _compare_shielded,
    _shielded_states,
    classify_distance,
    expectation,
    thermal_state,
    trace_distance,
)

CONJECTURE_PASS_TOL = 1e-8
ORACLE_AGREEMENT_TOL = 1e-8
DUAL_RESIDUAL_TOL = 1e-12
QUENCH_SHIELDED_TOL = 1e-9


def point_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one experiment point."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(index)))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _metadata(cfg: dict, verdict: dict) -> dict:
    return {
        "config_sha256": config_hash(cfg),
        "seed": cfg.get("seed"),
        "version": __version__,
        "verdict": verdict,
    }


def _nonempty(key: str, values):
    """``values``, unless empty: a run without data must not pass."""
    if len(values) == 0:
        raise ShieldlabError(f"{key} is empty: the run would have no data")
    return values


def _count(cfg: dict, key: str, default: int) -> int:
    """A trial count of at least 1: a run without data must not pass."""
    value = int(cfg.get(key, default))
    if value < 1:
        raise ShieldlabError(f"{key} must be at least 1, got {value}")
    return value


def _grid(key: str, spec_value) -> list[float]:
    """A non-empty grid given either as a list or as {"start", "stop", "step"}."""
    if isinstance(spec_value, dict):
        start, stop = float(spec_value["start"]), float(spec_value["stop"])
        step = float(spec_value["step"])
        if not step > 0.0:
            raise ShieldlabError(f"{key}.step must be positive, got {step}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return _nonempty(key, [start + k * step for k in range(count)])
    return _nonempty(key, [float(x) for x in spec_value])


def _beta_value(raw) -> float:
    if raw in ("ground", "inf", "infinity"):
        return math.inf
    return float(raw)


def _load_lattice_and_split(cfg: dict, *, relaxed: bool = False):
    lat = lattice_from_json(cfg["lattice"])
    base = int(cfg["lattice"].get("index_base", 1))
    split = split_from_json(cfg["split"], lat, index_base=base,
                            require_zero_interface_fields=not relaxed)
    return lat, split


# ---------------------------------------------------------------------------
# verify-shielding
# ---------------------------------------------------------------------------

def run_verify_shielding(cfg: dict) -> ResultTable:
    """Randomized single-site-interface shielding trials.

    Per trial k (generator key index k+1), the X-side parameters of the
    configured lattice are redrawn — first couplings of X-side edges in
    canonical edge order from ``J_range``, then x-fields on the X bulk in
    ascending site order from ``h_range``, then y-fields likewise if
    ``g_range`` is given — while the Y side stays fixed. Columns report the
    trace distance between the reduced Gibbs state on Y and the shielded
    Gibbs state, plus the drift of the reduced state from trial 0.

    Setting ``interface_field`` to a nonzero value deliberately violates the
    zero-field precondition as a control; the verdict then flags the
    expected failure.
    """
    interface_field = float(cfg.get("interface_field", 0.0))
    lat, split = _load_lattice_and_split(cfg, relaxed=interface_field != 0.0)
    if len(split.S) != 1:
        raise ShieldlabError(
            f"verify-shielding requires a single-site interface, got |S|={len(split.S)}"
        )
    if interface_field != 0.0:
        h = list(lat.h)
        for l in split.S:
            h[l] = interface_field
        lat = update_parameters(lat, h=h)

    betas = _nonempty("betas", [float(b) for b in cfg.get("betas", [0.1, 1.0, 5.0])])
    trials = _count(cfg, "trials", 50)
    seed = int(cfg.get("seed", 0))
    j_lo, j_hi = cfg.get("J_range", [-2.0, 2.0])
    h_lo, h_hi = cfg.get("h_range", [0.0, 1.0])
    g_range = cfg.get("g_range")

    x_edges = [(i, j) for (i, j, _) in lat.edges
               if {i, j} <= split.X and not {i, j} <= split.S]
    x_bulk = sorted(split.A)
    # trials redraw only the X side, so the shielded states on Y are solved once
    rhs = _shielded_states(build_hamiltonian(lat), split, betas)

    table = ResultTable(columns=("trial", "beta", "distance", "rho_variation"))
    first_lhs: dict[float, object] = {}
    max_distance = 0.0
    max_variation = 0.0
    for k in range(trials):
        rng = point_rng(seed, k + 1)
        j_new = {pair: rng.uniform(j_lo, j_hi) for pair in x_edges}
        h_new = list(lat.h)
        for i in x_bulk:
            h_new[i] = rng.uniform(h_lo, h_hi)
        g_new = list(lat.g)
        if g_range is not None:
            for i in x_bulk:
                g_new[i] = rng.uniform(float(g_range[0]), float(g_range[1]))
        H = build_hamiltonian(update_parameters(lat, h=h_new, g=g_new, J_by_edge=j_new))
        for beta in betas:
            report = _compare_shielded(H, rhs[beta], beta)
            if beta not in first_lhs:
                first_lhs[beta] = report.lhs
            variation = trace_distance(report.lhs, first_lhs[beta])
            max_distance = max(max_distance, report.distance)
            max_variation = max(max_variation, variation)
            table.append(k, beta, report.distance, variation)

    status = classify_distance(max_distance)
    verdict = {
        "status": status,
        "max_distance": max_distance,
        "max_rho_variation": max_variation,
    }
    if interface_field != 0.0:
        verdict["note"] = "shielding violated (expected: precondition broken)" \
            if status == "fail" else "control did not violate shielding"
    table.metadata = _metadata(cfg, verdict)
    return table


# ---------------------------------------------------------------------------
# counterexample (two-site interface diamond)
# ---------------------------------------------------------------------------

def run_counterexample(cfg: dict) -> ResultTable:
    """Sweep the near-site field of the diamond and compare series vs. dense.

    For each beta and each h1 on the grid the far site's X magnetization is
    computed twice: from the convergent coefficient series and from exact
    diagonalization of the 16-dimensional Gibbs state. The verdict checks
    their agreement; per-beta sweep spreads (the finite-temperature
    shielding failure) and the distance of large-beta rows from the
    zero-temperature plateau expression go to the metadata.
    """
    h4 = float(cfg.get("h4", 1.0))
    betas = _nonempty("betas", [float(b) for b in cfg.get("betas", [1.0, 4.0, 7.0])])
    h1_grid = _grid("h1_grid",
                    cfg.get("h1_grid", {"start": 0.0, "stop": 2.0, "step": 0.05}))
    tol = float(cfg.get("series_tol", 1e-14))

    obs = PauliString.single(4, 3, "X")
    table = ResultTable(columns=(
        "beta", "h1", "magnetization_series", "magnetization_ED", "abs_delta"
    ))
    max_delta = 0.0
    spread: dict[str, float] = {}
    plateau_gap: dict[str, float] = {}
    for beta in betas:
        values = []
        for h1 in h1_grid:
            series = fourspin_magnetization(beta, h1, h4, tol=tol)
            rho = thermal_state(build_hamiltonian(make_diamond(h1, h4)), beta)
            dense = expectation(rho, obs)
            delta = abs(series - dense)
            max_delta = max(max_delta, delta)
            values.append(series)
            table.append(beta, h1, series, dense, delta)
        spread[repr(beta)] = max(values) - min(values)
        plateau_gap[repr(beta)] = max(
            abs(v - fourspin_zero_temperature_limit(h4)) for v in values
        )
    verdict = {
        "status": "pass" if max_delta < ORACLE_AGREEMENT_TOL else "fail",
        "max_abs_delta": max_delta,
        "oracle_tol": ORACLE_AGREEMENT_TOL,
        "spread_by_beta": spread,
        "plateau_gap_by_beta": plateau_gap,
    }
    table.metadata = _metadata(cfg, verdict)
    return table


# ---------------------------------------------------------------------------
# conjecture (ground-state shielding with wide interfaces)
# ---------------------------------------------------------------------------

def _sector_states(rho, interface_sites):
    """Decompose a state by the conserved Z pattern on the interface sites.

    Yields (label, weight, DensityMatrix) per occupied pattern; labels use
    '+'/'-' per interface site in ascending order.
    """
    from .thermal import DensityMatrix

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


def run_conjecture(cfg: dict) -> ResultTable:
    """Ground-state shielding trials across a zero-field interface of any size.

    The A-side fields (bulk of X) are drawn once from generator index 0 in
    ascending site order. Per trial k (index k+1) the B-side fields are
    redrawn — first the homogeneous offset from ``offset_range``, then one
    uniform draw from ``b_field_range`` per B site ascending, summed — and
    the thermal state at the configured ``beta`` ("ground" for the
    ground-space mixture) is formed. Rows record ⟨X⟩ and ⟨Z⟩ of every A
    site; ground runs add supplementary rows per conserved interface-Z
    sector. The verdict classifies the worst across-trial variation of the
    mixed-state rows.
    """
    lat, split = _load_lattice_and_split(cfg)
    beta = _beta_value(cfg.get("beta", "ground"))
    trials = _count(cfg, "trials", 20)
    seed = int(cfg.get("seed", 0))
    a_lo, a_hi = cfg.get("a_field_range", [0.0, 1.0])
    b_lo, b_hi = cfg.get("b_field_range", [0.0, 1.0])
    off_lo, off_hi = cfg.get("offset_range", [0.0, 3.0])

    a_sites = _nonempty("split: X outside the interface", sorted(split.A))
    b_sites = sorted(split.B)
    rng0 = point_rng(seed, 0)
    h_base = list(lat.h)
    for i in a_sites:
        h_base[i] = rng0.uniform(a_lo, a_hi)

    table = ResultTable(columns=("trial", "sector", "site", "observable", "value"))
    mix_values: dict[tuple[int, str], list[float]] = {}
    for k in range(trials):
        rng = point_rng(seed, k + 1)
        offset = rng.uniform(off_lo, off_hi)
        h = list(h_base)
        for i in b_sites:
            h[i] = rng.uniform(b_lo, b_hi) + offset
        trial_lat = update_parameters(lat, h=h)
        rho = thermal_state(build_hamiltonian(trial_lat), beta)
        n = trial_lat.n_sites
        for i in a_sites:
            for name, letter in (("x", "X"), ("z", "Z")):
                value = expectation(rho, PauliString.single(n, i, letter))
                table.append(k, "mix", i, name, value)
                mix_values.setdefault((i, name), []).append(value)
        if math.isinf(beta):
            for label, _, sector_rho in _sector_states(rho, sorted(split.S)):
                for i in a_sites:
                    for name, letter in (("x", "X"), ("z", "Z")):
                        table.append(
                            k, label, i, name,
                            expectation(sector_rho, PauliString.single(n, i, letter)),
                        )

    max_variation = max(
        (max(vals) - min(vals)) for vals in mix_values.values()
    ) if mix_values else 0.0
    if max_variation < CONJECTURE_PASS_TOL:
        status = "pass"
    elif max_variation > SHIELDING_FAIL_TOL:
        status = "fail"
    else:
        status = "indeterminate"
    table.metadata = _metadata(cfg, {
        "status": status,
        "max_variation": max_variation,
        "beta": "inf" if math.isinf(beta) else beta,
    })
    return table


# ---------------------------------------------------------------------------
# quench
# ---------------------------------------------------------------------------

def _observables_from_config(raw, n: int) -> tuple[PauliString, ...]:
    if raw in (None, "x"):
        return tuple(PauliString.single(n, i, "X") for i in range(n))
    if raw == "z":
        return tuple(PauliString.single(n, i, "Z") for i in range(n))
    return tuple(PauliString.from_text(text, n) for text in raw)


def run_quench_experiment(cfg: dict) -> ResultTable:
    """Ground state of the pre lattice, evolved under the post lattice.

    ``post`` may be given as a full lattice or via ``quench_site`` /
    ``quench_h`` patching the pre lattice (indices in the lattice's
    ``index_base``). If a ``split`` is configured, the verdict compares the
    time variation of observables on the shielded bulk (must stay below
    1e-9) against the driven side.
    """
    pre = lattice_from_json(cfg["pre"])
    base = int(cfg["pre"].get("index_base", 1))
    if "post" in cfg:
        post = lattice_from_json(cfg["post"])
    else:
        site = int(cfg["quench_site"]) - base
        h = list(pre.h)
        h[site] = float(cfg["quench_h"])
        post = update_parameters(pre, h=h)
    times = _grid("times", cfg.get("times", {"start": 0.0, "stop": 6.0, "step": 0.05}))
    observables = _observables_from_config(cfg.get("observables"), pre.n_sites)
    protocol = QuenchProtocol(pre=pre, post=post, times=tuple(times),
                              observables=_nonempty("observables", observables))
    table = run_quench(protocol)

    verdict: dict = {"status": "pass"}
    if "split" in cfg:
        split = split_from_json(cfg["split"], pre, index_base=base)
        per_position: dict[int, list[float]] = {}
        block = len(observables)
        order = [row[1] for row in table.rows[:block]]
        for r, row in enumerate(table.rows):
            per_position.setdefault(r % block, []).append(row[2])
        shielded = 0.0
        driven = 0.0
        for k, site in enumerate(order):
            variation = max(per_position[k]) - min(per_position[k])
            if site in split.B:
                shielded = max(shielded, variation)
            elif site in split.A:
                driven = max(driven, variation)
        verdict = {
            "status": "pass" if shielded < QUENCH_SHIELDED_TOL else "fail",
            "max_variation_shielded": shielded,
            "max_variation_driven": driven,
            "shielded_tol": QUENCH_SHIELDED_TOL,
        }
    table.metadata = _metadata(cfg, verdict)
    return table


# ---------------------------------------------------------------------------
# dual-check
# ---------------------------------------------------------------------------

def run_dual_check(cfg: dict) -> ResultTable:
    """Dual rewriting of random (or one configured) open chains.

    Per trial k (generator index k), couplings then fields are drawn in
    ascending order from ``J_range`` and ``h_range``; ``zero_field_site``
    (0-indexed) optionally pins one field to zero so the dual graph splits
    in two. Columns report the max-entry difference between the direct and
    the dual-variable dense Hamiltonians, the dual operator-algebra
    residual, and the number of dual components.
    """
    table = ResultTable(columns=(
        "trial", "n_sites", "hamiltonian_residual", "algebra_residual",
        "n_dual_components",
    ))
    chains: list[LatticeSpec] = []
    if "chain" in cfg:
        chains.append(lattice_from_json(cfg["chain"]))
    else:
        n = int(cfg.get("n_sites", 6))
        trials = _count(cfg, "trials", 50)
        seed = int(cfg.get("seed", 0))
        j_lo, j_hi = cfg.get("J_range", [-2.0, 2.0])
        h_lo, h_hi = cfg.get("h_range", [-1.0, 1.0])
        zero_site = cfg.get("zero_field_site")
        for k in range(trials):
            rng = point_rng(seed, k)
            J = rng.uniform(j_lo, j_hi, size=n - 1)
            h = rng.uniform(h_lo, h_hi, size=n)
            if zero_site is not None:
                h[int(zero_site)] = 0.0
            chains.append(make_chain(n, J, h))

    worst_h = 0.0
    worst_alg = 0.0
    for k, lat in enumerate(chains):
        dc = dual_chain(lat)
        direct = build_hamiltonian(lat).to_dense()
        residual = float(np.abs(direct - dc.to_dense()).max())
        algebra = dual_algebra_residual(dc)
        worst_h = max(worst_h, residual)
        worst_alg = max(worst_alg, algebra)
        table.append(k, lat.n_sites, residual, algebra, len(dc.dual_components()))
    table.metadata = _metadata(cfg, {
        "status": "pass" if max(worst_h, worst_alg) < DUAL_RESIDUAL_TOL else "fail",
        "max_hamiltonian_residual": worst_h,
        "max_algebra_residual": worst_alg,
        "tol": DUAL_RESIDUAL_TOL,
    })
    return table


RUNNERS = {
    "verify-shielding": run_verify_shielding,
    "counterexample": run_counterexample,
    "conjecture": run_conjecture,
    "quench": run_quench_experiment,
    "dual-check": run_dual_check,
}
