"""Release acceptance suite.

One test class per criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Tolerances are fixed
here and match the library's verdict thresholds.

Criterion 5 carries two strict xfails: the claimed zero-temperature plateau
expression 1/sqrt(4 + h4^2) disagrees with both the coefficient series and
exact diagonalization away from h4 = 1 (the series' actual plateau is
h4/sqrt(4 + h4^2); at h4 = 0 the magnetization vanishes identically by
symmetry). The assertion is kept as stated and expected to fail at
h4 in {0, 2}.
"""

import math
import time

import numpy as np
import pytest

from shieldlab import (
    DensityMatrix,
    PauliString,
    build_hamiltonian,
    classical_chain_reduced,
    dual_algebra_residual,
    dual_chain,
    emit,
    expectation,
    fourspin_magnetization,
    make_chain,
    make_diamond,
    make_triangular_patch,
    partial_trace,
    point_rng,
    run_conjecture,
    run_quench_experiment,
    run_verify_shielding,
    shielding_report,
    thermal_state,
    validate_lattice,
    validate_split,
)

from helpers import (
    classical_chain_gibbs_diag,
    random_mixed_state,
    random_product_state,
    random_pure_state,
)
from test_dynamics import identity_deviations


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def random_chain_instance(rng, n_lo=3, n_hi=10):
    n = int(rng.integers(n_lo, n_hi + 1))
    L = int(rng.integers(1, n - 1))
    h = rng.uniform(0.0, 1.0, size=n)
    h[L] = 0.0
    lat = make_chain(n, rng.uniform(-2.0, 2.0, size=n - 1), h)
    split = validate_split(lat, range(L + 1), range(L, n))
    return lat, split


class TestCriterion1ChainShielding:
    def test_200_random_chains(self):
        start = time.perf_counter()
        betas = (0.1, 1.0, 5.0)
        worst = 0.0
        for k in range(200):
            lat, split = random_chain_instance(point_rng(1001, k))
            beta = betas[k % 3]
            distance = shielding_report(lat, split, beta).distance
            worst = max(worst, distance)
            assert distance < 1e-9, (k, lat, beta, distance)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        report(1, f"200 chains, worst distance {worst:.3e}, {elapsed:.1f}s")


class TestCriterion2GeneralLattices:
    @staticmethod
    def random_lattice_instance(rng):
        n = int(rng.integers(4, 11))
        L = int(rng.integers(1, n - 1))
        left = list(range(L))
        right = list(range(L + 1, n))
        edges = []
        for half in (left + [L], right + [L]):
            for a in range(len(half)):
                for b in range(a + 1, len(half)):
                    if rng.random() < 0.55:
                        edges.append((half[a], half[b], rng.uniform(-2, 2)))
        h = rng.uniform(0.0, 1.0, size=n)
        g = rng.uniform(0.0, 1.0, size=n)
        h[L] = g[L] = 0.0
        lat = validate_lattice(n, edges, h, g)
        split = validate_split(lat, left + [L], [L] + right)
        return lat, split

    def test_100_random_lattices(self):
        worst = 0.0
        for k in range(100):
            rng = point_rng(2002, k)
            lat, split = self.random_lattice_instance(rng)
            beta = float(rng.choice([0.1, 1.0, 5.0]))
            distance = shielding_report(lat, split, beta).distance
            worst = max(worst, distance)
            assert distance < 1e-9, (k, beta, distance)
        report(2, f"100 single-site-interface lattices, worst {worst:.3e}")


class TestCriterion3Duality:
    def test_50_random_chains(self):
        worst_h = worst_alg = 0.0
        for k in range(50):
            rng = point_rng(3003, k)
            n = int(rng.integers(2, 9))
            lat = make_chain(n, rng.uniform(-2, 2, size=n - 1),
                             rng.uniform(-1, 1, size=n))
            dc = dual_chain(lat)
            residual = float(np.abs(
                build_hamiltonian(lat).to_dense() - dc.to_dense()).max())
            algebra = dual_algebra_residual(dc)
            worst_h = max(worst_h, residual)
            worst_alg = max(worst_alg, algebra)
            assert residual < 1e-12, (k, n, residual)
            assert algebra < 1e-12, (k, n, algebra)
        report(3, f"50 chains, Hamiltonian residual {worst_h:.3e}, "
                  f"algebra residual {worst_alg:.3e}")


class TestCriterion4ClassicalChainOracle:
    def test_closed_form_matches_enumeration(self):
        worst = 0.0
        for n in range(2, 9):
            for beta in (0.3, 1.0, 2.0):
                for h1 in (0.0, 0.7, 1.5):
                    probs = classical_chain_gibbs_diag(n, beta, h1)
                    full = DensityMatrix(np.diag(probs), tuple(range(n)))
                    for i in range(1, n + 1):
                        delta = np.abs(
                            classical_chain_reduced(i, beta, h1).matrix
                            - partial_trace(full, [i - 1]).matrix
                        ).max()
                        worst = max(worst, float(delta))
                        assert delta < 1e-10, (n, beta, h1, i, delta)
        report(4, f"chains n=2..8 closed form vs enumeration, worst {worst:.3e}")

    def test_far_sites_still_depend_on_the_pinned_field(self):
        # commutation alone does not shield: sites beyond the first retain
        # a genuine h1 dependence
        for n in (3, 6, 8):
            for i in range(2, n + 1):
                a = classical_chain_reduced(i, 1.0, 0.1)
                b = classical_chain_reduced(i, 1.0, 1.4)
                assert np.abs(a.matrix - b.matrix).max() > 1e-6, (n, i)
        report("4b", "h1-dependence at sites i>1 confirmed nonzero")


class TestCriterion5FourSpinSeries:
    def test_series_matches_exact_diagonalization(self):
        obs = PauliString.single(4, 3, "X")
        worst = 0.0
        for beta in (0.25, 1.0, 4.0):
            for h1 in (0.0, 0.5, 1.0, 2.0):
                for h4 in (0.0, 0.5, 1.0, 2.0):
                    series = fourspin_magnetization(beta, h1, h4)
                    rho = thermal_state(build_hamiltonian(make_diamond(h1, h4)), beta)
                    delta = abs(series - expectation(rho, obs))
                    worst = max(worst, delta)
                    assert delta < 1e-8, (beta, h1, h4, delta)
        report(5, f"series vs 16x16 diagonalization, worst {worst:.3e}")

    def test_finite_temperature_sweep_is_not_flat(self):
        values = [fourspin_magnetization(1.0, h1, 1.0)
                  for h1 in np.arange(0.0, 2.0001, 0.1)]
        spread = max(values) - min(values)
        assert spread > 1e-3
        report("5b", f"beta=1 sweep spread {spread:.3e} > 1e-3")

    @pytest.mark.parametrize("h4", [
        pytest.param(0.0, marks=pytest.mark.xfail(
            strict=True,
            reason="magnetization vanishes identically at h4=0 (Z-conjugation "
                   "symmetry); the claimed plateau expression gives 0.5")),
        1.0,
        pytest.param(2.0, marks=pytest.mark.xfail(
            strict=True,
            reason="series and diagonalization plateau at h4/sqrt(4+h4^2)="
                   "0.707, not the claimed 1/sqrt(4+h4^2)=0.354")),
    ])
    def test_cold_sweep_sits_on_claimed_plateau(self, h4):
        target = 1.0 / math.sqrt(4.0 + h4 * h4)  # the claimed plateau
        for h1 in np.arange(0.0, 2.0001, 0.25):
            value = fourspin_magnetization(50.0, h1, h4)
            assert abs(value - target) < 1e-3, (h4, h1, value, target)
        report("5c", f"beta=50 values within 1e-3 of plateau at h4={h4}")


class TestCriterion6GroundStateConjecture:
    @staticmethod
    def patch_config(row_sizes, a_rows, s_rows, b_rows, beta):
        lat, rows = make_triangular_patch(row_sizes)
        pick = lambda rr: [s for r in rr for s in rows[r]]
        return {
            "lattice": {
                "n_sites": lat.n_sites,
                "index_base": 0,
                "edges": [[int(i), int(j), float(J)] for (i, j, J) in lat.edges],
                "h": list(lat.h),
            },
            "split": {"X": pick(a_rows) + pick(s_rows),
                      "Y": pick(s_rows) + pick(b_rows)},
            "beta": beta,
            "trials": 20,
            "seed": 23,
            "offset_range": [0.0, 3.0],
        }

    PATCHES = {
        "nine-site": ([2, 3, 4], [0], [1], [2]),
        "ten-site": ([1, 2, 3, 4], [0, 1], [2], [3]),
    }

    @pytest.mark.parametrize("name", list(PATCHES))
    def test_ground_state_invariance(self, name):
        rows, a, s, b = self.PATCHES[name]
        table = run_conjecture(self.patch_config(rows, a, s, b, "ground"))
        variation = table.metadata["verdict"]["max_variation"]
        assert variation < 1e-8, (name, variation)
        report(6, f"{name} patch ground-state variation {variation:.3e}")

    @pytest.mark.parametrize("name", list(PATCHES))
    def test_finite_temperature_control_leaks(self, name):
        rows, a, s, b = self.PATCHES[name]
        table = run_conjecture(self.patch_config(rows, a, s, b, 1.0))
        variation = table.metadata["verdict"]["max_variation"]
        assert variation > 1e-3, (name, variation)
        report("6b", f"{name} patch beta=1 variation {variation:.3e} > 1e-3")


class TestCriterion7Dynamics:
    def test_50_commuting_split_instances(self):
        # run_quench from each instance's state under the full lattice, H_Y
        # alone and the X side redrawn (drawn after the instance)
        state_makers = (random_product_state, random_pure_state,
                        random_mixed_state)
        worst = [0.0, 0.0]
        for k in range(50):
            rng = point_rng(7007, k)
            n = int(rng.integers(4, 8))
            L = int(rng.integers(1, n - 1))
            h = rng.uniform(0.0, 1.0, size=n)
            h[L] = 0.0
            lat = make_chain(n, rng.uniform(-2, 2, size=n - 1), h)
            split = validate_split(lat, range(L + 1), range(L, n))
            rho0 = DensityMatrix(state_makers[k % 3](rng, n), tuple(range(n)))
            site = int(rng.integers(L + 1, n))
            letter = ("Z", "X")[k % 2]
            devs = identity_deviations(
                lat, split, rho0, [PauliString.single(n, site, letter)],
                [0.0, 0.9, 2.3, 4.1], rng,
            )
            worst = [max(w, d) for w, d in zip(worst, devs)]
            assert max(devs) < 1e-10, (k, n, L, devs)
        report(7, f"50 commuting-split instances, worst deviation {worst[0]:.3e} "
                  f"against H_Y alone, {worst[1]:.3e} with the X side redrawn")

    def test_twelve_site_quench(self):
        n, L = 12, 5
        h = [0.5] * n
        h[L] = 0.0
        lat = make_chain(n, [1.0] * (n - 1), h)
        cfg = {
            "pre": {
                "n_sites": n,
                "index_base": 0,
                "edges": [[i, i + 1, 1.0] for i in range(n - 1)],
                "h": h,
            },
            "quench_site": 0,
            "quench_h": -10.0,
            "times": {"start": 0.0, "stop": 6.0, "step": 0.05},
            "observables": "x",
            "split": {"X": list(range(L + 1)), "Y": list(range(L, n))},
        }
        table = run_quench_experiment(cfg)
        verdict = table.metadata["verdict"]
        assert verdict["max_variation_shielded"] < 1e-9
        assert verdict["max_variation_driven"] > 1e-2
        assert verdict["status"] == "pass"
        report("7b", f"12-site quench: shielded side varies by "
                     f"{verdict['max_variation_shielded']:.3e}, driven side by "
                     f"{verdict['max_variation_driven']:.3e}")


class TestCriterion8Determinism:
    def test_byte_identical_reruns(self, tmp_path):
        n, L = 5, 2
        h = [0.4] * n
        h[L] = 0.0
        cfg = {
            "lattice": {
                "n_sites": n,
                "index_base": 0,
                "edges": [[i, i + 1, 1.0] for i in range(n - 1)],
                "h": h,
            },
            "split": {"X": list(range(L + 1)), "Y": list(range(L, n))},
            "betas": [0.5, 2.0],
            "trials": 6,
            "seed": 42,
        }
        paths = []
        for run in ("first", "second"):
            out = emit(run_verify_shielding(dict(cfg)), tmp_path / run / "t.csv")
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].with_suffix(".csv.meta.json").read_bytes() == \
            paths[1].with_suffix(".csv.meta.json").read_bytes()
        report(8, "re-run with the same seed emitted byte-identical CSV")
