import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shieldlab.experiments as experiments
from shieldlab import (
    RUNNERS,
    DualChain,
    HamiltonianTerms,
    PauliString,
    ResultTable,
    ShieldlabError,
    build_hamiltonian,
    commutator_norm,
    dual_chain,
    emit,
    expectation,
    make_chain,
    make_diamond,
    make_triangular_patch,
    point_rng,
    run_conjecture,
    run_counterexample,
    run_dual_check,
    run_quench,
    run_quench_experiment,
    run_verify_shielding,
    thermal_state,
    update_parameters,
    validate_lattice,
)
from shieldlab.tables import format_cell

from helpers import dense_reference, kron_terms, kron_word, sector_states_reference


OVER_CAP = {"n_sites": 13, "index_base": 0, "edges": [], "h": [0.5] * 13}


def lattice_json(lat):
    return {
        "n_sites": lat.n_sites,
        "index_base": 0,
        "edges": [[int(i), int(j), float(J)] for (i, j, J) in lat.edges],
        "h": list(lat.h),
        "g": list(lat.g),
    }


def chain_config(n=4, L=1, trials=4, seed=7, **extra):
    h = [0.4] * n
    h[L] = 0.0
    lat = make_chain(n, [1.0] * (n - 1), h)
    cfg = {
        "lattice": lattice_json(lat),
        "split": {"X": list(range(L + 1)), "Y": list(range(L, n))},
        "betas": [0.5, 2.0],
        "trials": trials,
        "seed": seed,
    }
    cfg.update(extra)
    return cfg


def shipped_config(name, **overrides):
    path = Path(__file__).parent.parent / "configs" / f"{name}.json"
    return {**json.loads(path.read_text(encoding="utf-8")), **overrides}


def triangle_config(beta, seed=23, trials=6):
    lat, rows = make_triangular_patch([2, 3, 4])
    return {
        "lattice": lattice_json(lat),
        "split": {"X": rows[0] + rows[1], "Y": rows[1] + rows[2]},
        "beta": beta,
        "trials": trials,
        "seed": seed,
        "offset_range": [0.0, 3.0],
    }


class TestTables:
    def test_empty_table_is_header_only(self, tmp_path):
        path = emit(ResultTable(columns=("a", "b")), tmp_path / "x.csv")
        assert path.read_text() == "a,b\n"

    def test_seventeen_significant_digits(self):
        assert format_cell(1.0 / 3.0) == "0.33333333333333331"
        assert format_cell(7) == "7"
        assert format_cell("mix") == "mix"

    def test_sidecar_metadata(self, tmp_path):
        table = ResultTable(columns=("a",), rows=[(1.5,)],
                            metadata={"seed": 3})
        path = emit(table, tmp_path / "t.csv")
        sidecar = path.with_suffix(".csv.meta.json")
        assert json.loads(sidecar.read_text()) == {"seed": 3}

    def test_row_length_checked(self):
        table = ResultTable(columns=("a", "b"))
        with pytest.raises(ShieldlabError, match="^row has 1 values for 2 columns"):
            table.append(1)


class TestPointRng:
    def test_deterministic(self):
        a = point_rng(5, 3).uniform(size=4)
        b = point_rng(5, 3).uniform(size=4)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = point_rng(5, 3).uniform(size=4)
        b = point_rng(5, 4).uniform(size=4)
        assert not np.array_equal(a, b)


class TestVerifyShielding:
    def test_clean_run_passes(self):
        table = run_verify_shielding(chain_config())
        verdict = table.metadata["verdict"]
        assert verdict["status"] == "pass"
        assert verdict["max_distance"] < 1e-9
        assert verdict["max_rho_variation"] < 1e-9
        assert len(table.rows) == 4 * 2

    def test_control_run_reports_expected_violation(self):
        table = run_verify_shielding(chain_config(interface_field=0.3))
        verdict = table.metadata["verdict"]
        assert verdict["status"] == "fail"
        assert verdict["max_distance"] > 1e-3
        assert verdict["note"] == "shielding violated (expected: precondition broken)"

    def test_endpoint_interface_degenerates_to_exact_zero(self):
        # X = {interface}: nothing on the X side to randomize, identical states
        n = 2
        lat = make_chain(n, [1.3], [0.0, 0.8])
        cfg = {
            "lattice": lattice_json(lat),
            "split": {"X": [0], "Y": [0, 1]},
            "betas": [1.0],
            "trials": 3,
            "seed": 1,
        }
        table = run_verify_shielding(cfg)
        assert table.metadata["verdict"]["max_distance"] < 1e-14

    def test_requires_single_site_interface(self):
        lat = make_diamond(1.0, 1.0)
        cfg = {
            "lattice": lattice_json(lat),
            "split": {"X": [0, 1, 2], "Y": [1, 2, 3]},
            "trials": 2,
            "seed": 1,
        }
        with pytest.raises(ShieldlabError):
            run_verify_shielding(cfg)

    @pytest.mark.parametrize("extra, key", [
        ({"trials": 0}, "trials"),
        ({"betas": []}, "betas"),
    ])
    def test_run_without_data_is_an_error(self, extra, key):
        with pytest.raises(ShieldlabError, match=key):
            run_verify_shielding(chain_config(**extra))

    @pytest.mark.parametrize("extra, key", [
        ({"trails": 2}, "'trails'"),
        ({"trials": 2.7}, "trials"),
        ({"trials": True}, "trials"),
        ({"J_range": [1, 2, 3]}, "J_range"),
        ({"h_range": "wide"}, "h_range"),
        ({"g_range": [0.0, "1"]}, r"g_range\[1\]"),
        ({"betas": ["warm"]}, r"betas\[0\]"),
        ({"betas": [-1.0]}, r"betas\[0\]"),
        ({"seed": -1}, "seed"),
        ({"interface_field": "0.3"}, "interface_field"),
        ({"interface_field": 0.3, "split": {"X": [0, 1, 2], "Y": [1, 2, 3]}},
         r"^split: .*single-site interface, got \|S\|=2"),
        ({"lattice": OVER_CAP},
         r"^lattice\.n_sites: dense realization of 13 sites exceeds the cap of 12"),
    ])
    def test_bad_input_names_the_key(self, extra, key):
        with pytest.raises(ShieldlabError, match=key):
            run_verify_shielding(chain_config(**extra))

    @pytest.mark.parametrize("section, key", [("lattice", "gg"), ("split", "Z")])
    def test_unknown_nested_key_names_its_path(self, section, key):
        cfg = chain_config()
        cfg[section][key] = 1
        with pytest.raises(ShieldlabError, match=rf"'{section}\.{key}'"):
            run_verify_shielding(cfg)

    @pytest.mark.parametrize("edit, key", [
        (lambda cfg: cfg.pop("lattice"), "missing config key 'lattice'"),
        (lambda cfg: cfg["lattice"].pop("n_sites"), "'lattice.n_sites'"),
        (lambda cfg: cfg.update(lattice=[1]), "lattice must be a JSON object"),
        (lambda cfg: cfg["lattice"].update(index_base=2), "lattice.index_base"),
        (lambda cfg: cfg["lattice"]["edges"].append([0, 1]), r"lattice\.edges\[3\]"),
        (lambda cfg: cfg["lattice"]["h"].__setitem__(0, None), r"lattice\.h\[0\]"),
        (lambda cfg: cfg["split"]["X"].append(4), r"split\.X\[2\]"),
        (lambda cfg: cfg["lattice"]["edges"].append([1, 0, 2.0]),
         r"lattice\.edges\[3\]: duplicate edge"),
        (lambda cfg: cfg["lattice"]["edges"].append([2, 2, 1.0]),
         r"lattice\.edges\[3\]: edge \(2, 2\) joins"),
        (lambda cfg: cfg["lattice"]["h"].append(0.4), "lattice.h: has 5 entries"),
        (lambda cfg: cfg["split"].update(X=[0, 1], Y=[2, 3]), "split: edge"),
    ])
    def test_bad_lattice_or_split_names_the_key(self, edit, key):
        cfg = chain_config()
        edit(cfg)
        with pytest.raises(ShieldlabError, match=key):
            run_verify_shielding(cfg)

    def test_ground_betas_read_as_inf(self):
        ground = run_verify_shielding(chain_config(trials=2, betas=["ground", 1.0]))
        assert [row[1] for row in ground.rows[:2]] == [float("inf"), 1.0]
        with pytest.raises(ShieldlabError,
                           match=r"^betas\[0\] must be a number >= 0 or \"ground\", got 'inf'"):
            run_verify_shielding(chain_config(trials=2, betas=["inf"]))


class TestCounterexample:
    def test_series_and_dense_agree(self):
        cfg = {"h4": 1.0, "betas": [1.0, 7.0],
               "h1_grid": {"start": 0.0, "stop": 2.0, "step": 0.25}}
        table = run_counterexample(cfg)
        verdict = table.metadata["verdict"]
        assert verdict["status"] == "pass"
        assert verdict["max_abs_delta"] < 1e-8

    def test_colder_sweep_is_flatter(self):
        cfg = {"h4": 1.0, "betas": [1.0, 7.0],
               "h1_grid": {"start": 0.0, "stop": 2.0, "step": 0.25}}
        spread = run_counterexample(cfg).metadata["verdict"]["spread_by_beta"]
        assert spread["1.0"] > 1e-3
        assert spread["7.0"] < spread["1.0"]

    def test_near_ground_values_sit_on_plateau_at_unit_field(self):
        cfg = {"h4": 1.0, "betas": [50.0],
               "h1_grid": {"start": 0.0, "stop": 2.0, "step": 0.5}}
        verdict = run_counterexample(cfg).metadata["verdict"]
        assert verdict["plateau_gap_by_beta"]["50.0"] < 1e-3

    def test_plateau_gap_is_measured_against_the_series_plateau(self):
        # at h4 = 0.5 the rows sit on h4/sqrt(4 + h4²) = 0.2425, which the
        # claimed 1/sqrt(4 + h4²) = 0.4851 misses by as much
        cfg = {"h4": 0.5, "betas": [50.0],
               "h1_grid": {"start": 0.0, "stop": 2.0, "step": 0.5}}
        table = run_counterexample(cfg)
        assert all(abs(row[2] - 0.5 / math.sqrt(4.25)) < 1e-12 for row in table.rows)
        assert table.metadata["verdict"]["plateau_gap_by_beta"]["50.0"] < 1e-12

    @pytest.mark.parametrize("extra, key", [
        ({"betas": []}, "betas"),
        ({"h1_grid": []}, "h1_grid"),
        ({"h1_grid": {"start": 0.0, "stop": 1.0, "step": 0.0}}, "h1_grid.step"),
        ({"h1_grid": {"start": 1.0, "stop": 0.0, "step": 0.5}}, "h1_grid"),
    ])
    def test_run_without_data_is_an_error(self, extra, key):
        cfg = {"h4": 1.0, "betas": [1.0], "h1_grid": [0.5], **extra}
        with pytest.raises(ShieldlabError, match=key):
            run_counterexample(cfg)

    @pytest.mark.parametrize("extra, key", [
        ({"h1_grid": {"start": 0.0, "stop": 1.0, "step": 0.5, "num": 3}},
         r"'h1_grid\.num'"),
        ({"h1_grid": {"start": 0.0, "step": 0.5}}, r"'h1_grid\.stop'"),
        ({"h1_grid": [0.5, "1"]}, r"h1_grid\[1\]"),
        ({"h4": "1"}, "h4"),
        ({"betas": 1.0}, "betas"),
        ({"series_tol": None}, "series_tol"),
        ({"seed": 1.5}, "seed"),
        ({"trials": 3}, "'trials'"),
        ({"betas": [1.0, "ground"]}, r"betas\[1\] must be a finite number"),
        ({"betas": ["inf"]}, r"betas\[0\] must be a finite number"),
    ])
    def test_bad_input_names_the_key(self, extra, key):
        cfg = {"h4": 1.0, "betas": [1.0], "h1_grid": [0.5], **extra}
        with pytest.raises(ShieldlabError, match=key):
            run_counterexample(cfg)


class TestConjecture:
    def test_ground_state_invariance(self):
        table = run_conjecture(triangle_config("ground"))
        verdict = table.metadata["verdict"]
        assert verdict["status"] == "pass"
        assert verdict["max_variation"] < 1e-8
        sectors = {row[1] for row in table.rows}
        assert "mix" in sectors
        assert any(s != "mix" for s in sectors)

    def test_finite_temperature_leaks(self):
        table = run_conjecture(triangle_config(1.0))
        verdict = table.metadata["verdict"]
        assert verdict["max_variation"] > 1e-3
        assert verdict["status"] == "fail"
        assert all(row[1] == "mix" for row in table.rows)

    def test_single_site_interface_is_rigid_at_any_temperature(self):
        # with |S| = 1 the thermal result applies, so the conjecture runner
        # must see no A-side variation even at finite beta
        n, L = 5, 2
        h = [0.4] * n
        h[L] = 0.0
        lat = make_chain(n, [1.0] * (n - 1), h)
        cfg = {
            "lattice": lattice_json(lat),
            "split": {"X": list(range(L + 1)), "Y": list(range(L, n))},
            "beta": 1.0,
            "trials": 8,
            "seed": 3,
        }
        table = run_conjecture(cfg)
        assert table.metadata["verdict"]["max_variation"] < 1e-9

    @staticmethod
    def dense_rows(cfg, hamiltonians):
        """The rows of a conjecture run from the full-lattice state of each
        trial's H: expectations on A of the state and, at beta = inf, of each
        sector_states_reference piece on the interface."""
        base = cfg["lattice"].get("index_base", 0)
        X, Y = ({i - base for i in cfg["split"][key]} for key in "XY")
        beta = math.inf if isinstance(cfg["beta"], str) else cfg["beta"]
        rows = []
        for k, H in enumerate(hamiltonians):
            rho = thermal_state(H, beta)
            states = [("mix", rho)]
            if math.isinf(beta):
                states += [(label, sector) for label, _, sector
                           in sector_states_reference(rho, sorted(X & Y))]
            for label, state in states:
                for i in sorted(X - Y):
                    for name in "xz":
                        word = PauliString.single(H.n_sites, i, name.upper())
                        rows.append((k, label, i, name, expectation(state, word)))
        return rows

    @staticmethod
    def y_field_config():
        cfg = triangle_config("ground")
        lat, rows = make_triangular_patch([2, 3, 4])
        g = [0.0 if i in rows[1] else 0.2 + 0.1 * i for i in range(lat.n_sites)]
        cfg["lattice"] = lattice_json(update_parameters(lat, g=g))
        return cfg

    @pytest.mark.parametrize("name", [
        "patch9", "patch10", "zero_field_a_sites", "y_fields", "finite_beta",
    ])
    def test_rows_match_the_full_state_and_its_masked_sectors(self, monkeypatch, name):
        # zero_field_a_sites: every A site conserves its Z too, so each
        # interface pattern sums over the A patterns
        cfg = {
            "patch9": lambda: shipped_config("conjecture_patch9"),
            "patch10": lambda: shipped_config("conjecture_patch10", trials=8),
            "zero_field_a_sites": lambda: {**triangle_config("ground"),
                                           "a_field_range": [0.0, 0.0]},
            "y_fields": self.y_field_config,
            "finite_beta": lambda: triangle_config(1.0),
        }[name]()
        hamiltonians = []
        reduced_states = experiments._reduced_states

        def spy(H, *args):
            hamiltonians.append(H)
            return reduced_states(H, *args)

        monkeypatch.setattr(experiments, "_reduced_states", spy)
        table = run_conjecture(cfg)
        ref = self.dense_rows(cfg, hamiltonians)
        assert len(hamiltonians) == cfg["trials"]
        assert [row[:4] for row in table.rows] == [row[:4] for row in ref]
        assert max(abs(a[4] - b[4]) for a, b in zip(table.rows, ref)) <= 1e-12
        sectors = {row[1] for row in table.rows} - {"mix"}
        assert bool(sectors) == (cfg["beta"] == "ground")

    def test_run_without_data_is_an_error(self):
        with pytest.raises(ShieldlabError, match="trials"):
            run_conjecture(triangle_config("ground", trials=0))
        cfg = triangle_config("ground")
        cfg["split"] = {"X": [2, 3, 4], "Y": list(range(9))}  # X = interface row
        with pytest.raises(ShieldlabError, match="split"):
            run_conjecture(cfg)

    @pytest.mark.parametrize("extra, key", [
        ({"trials": 2.7}, "trials"),
        ({"trials": "6"}, "trials"),
        ({"offset_range": [0.0]}, "offset_range"),
        ({"a_field_range": [0.0, 1.0, 2.0]}, "a_field_range"),
        ({"b_field_range": {"low": 0.0}}, "b_field_range"),
        ({"beta": "warm"}, "beta"),
        ({"beta": -1.0}, "beta"),
        ({"betas": [1.0]}, "'betas'"),
        ({"lattice": OVER_CAP},
         r"^lattice\.n_sites: dense realization of 13 sites exceeds the cap of 12"),
    ])
    def test_bad_input_names_the_key(self, extra, key):
        with pytest.raises(ShieldlabError, match=key):
            run_conjecture({**triangle_config("ground"), **extra})


class TestQuenchRunner:
    def quench_config(self, observables="x"):
        n, L = 6, 2
        h = [0.5] * n
        h[L] = 0.0
        lat = make_chain(n, [1.0] * (n - 1), h)
        return {
            "pre": lattice_json(lat),
            "quench_site": 0,
            "quench_h": -10.0,
            "times": {"start": 0.0, "stop": 2.0, "step": 0.25},
            "observables": observables,
            "split": {"X": list(range(L + 1)), "Y": list(range(L, n))},
        }

    def test_shielded_side_is_static(self, quench_path):
        table = run_quench_experiment(self.quench_config())
        verdict = table.metadata["verdict"]
        assert verdict["status"] == "pass"
        assert verdict["max_variation_shielded"] < 1e-9
        assert verdict["max_variation_driven"] > 1e-2

    def test_z_observables_are_symmetry_pinned(self):
        # the global spin flip commutes with every such Hamiltonian, so Z
        # magnetizations of the ground mixture vanish identically
        table = run_quench_experiment(self.quench_config(observables="z"))
        assert max(abs(v) for (_, _, v) in table.rows) < 1e-10

    @staticmethod
    def verdict_and_variation(h, quench_site, X, Y, observables):
        """The verdict of a 6-site chain quench and each site column's variation."""
        cfg = {
            "pre": lattice_json(make_chain(6, [1.0] * 5, h)),
            "quench_site": quench_site,
            "quench_h": -10.0,
            "times": {"start": 0.0, "stop": 2.0, "step": 0.25},
            "observables": observables,
            "split": {"X": X, "Y": Y},
        }
        table = run_quench_experiment(cfg)
        per_site = {}
        for _, site, value in table.rows:
            per_site.setdefault(site, []).append(value)
        return table.metadata["verdict"], {s: max(v) - min(v) for s, v in per_site.items()}

    @pytest.mark.parametrize("observables", [["+ Z2 Z3"], ["+ Z2 Z3", "+ X4"]])
    def test_interface_word_reaching_b_is_shielded(self, observables, quench_path):
        # "+ Z2 Z3" is read from column 2, the interface site, but reaches B
        verdict, variation = self.verdict_and_variation(
            [0.5, 0.6, 0.0, 0.7, 0.8, 0.9], 0, [0, 1, 2], [2, 3, 4, 5], observables)
        assert verdict["status"] == "pass"
        assert verdict["max_variation_shielded"] == max(variation.values())
        assert verdict["max_variation_driven"] == 0.0

    def test_interface_word_reaching_a_is_driven(self, quench_path):
        # the mirror image: "+ Z3 Z4" is read from column 3 and reaches A
        verdict, variation = self.verdict_and_variation(
            [0.9, 0.8, 0.7, 0.0, 0.6, 0.5], 5, [3, 4, 5], [0, 1, 2, 3], ["+ X0", "+ Z3 Z4"])
        assert verdict["status"] == "pass"
        assert verdict["max_variation_shielded"] == variation[0] < 1e-9
        assert verdict["max_variation_driven"] == variation[3] > 1e-2

    def test_explicit_observable_list(self):
        cfg = self.quench_config(observables=["+ X5", "+ Z0 Z1"])
        table = run_quench_experiment(cfg)
        assert {s for (_, s, _) in table.rows} == {0, 5}

    @pytest.mark.parametrize("times, key", [
        ({"start": 0.0, "stop": 2.0, "step": -0.25}, "times.step"),
        ({"start": 0.0, "stop": 2.0, "step": 0.0}, "times.step"),
        ([], "times"),
    ])
    def test_run_without_data_is_an_error(self, times, key):
        cfg = self.quench_config()
        cfg["times"] = times
        with pytest.raises(ShieldlabError, match=key):
            run_quench_experiment(cfg)

    @pytest.mark.parametrize("extra, key", [
        ({"times": {"start": 0.0, "stop": 2.0, "step": 0.25, "num": 9}}, r"'times\.num'"),
        ({"quench_site": 6}, "quench_site"),
        ({"quench_site": -1}, "quench_site"),
        ({"quench_site": 1.0}, "quench_site"),
        ({"quench_h": "strong"}, "quench_h"),
        ({"observables": [5]}, r"observables\[0\]"),
        ({"observables": "y"}, "observables"),
        ({"split": {"X": [0, 1, 2], "Y": [2, 3, 4, 5], "Z": [2]}}, r"'split\.Z'"),
        ({"trials": 3}, "'trials'"),
        ({"observables": ["+ X5", "+ Q1"]}, r"observables\[1\]: bad Pauli token"),
        ({"observables": ["+ X1 X1"]}, r"observables\[0\]: site 1 assigned twice"),
        ({"observables": ["+ X6"]}, r"observables\[0\]: site 6 outside"),
        ({"observables": ["+ X4", "+ Z4 Z5"]}, r"observables\[1\]: shares its site"),
        ({"observables": ["+ X5", "+ X0 X5"]}, r"^observables\[1\]: touches both bulks"),
        ({"times": [1.0, 0.5]}, r"^times: must be non-negative and ascending"),
        ({"times": {"start": -0.5, "stop": 1.0, "step": 0.5}},
         r"^times: must be non-negative and ascending"),
        ({"post": lattice_json(validate_lattice(
            6, [(i, i + 1, 1.0) for i in range(5)] + [(0, 5, 1.0)], [0.5] * 6))},
         r"^post: pre and post lattices differ in edge set"),
        ({"pre": OVER_CAP},
         r"^pre\.n_sites: dense realization of 13 sites exceeds the cap of 12"),
        ({"observables": ["+ X0", "+ X1"]}, r"^observables: none lies on the shielded bulk"),
        ({"observables": ["+ X2"]}, r"^observables: none lies on the shielded bulk"),
        ({"times": [1.5]}, r"^times: holds a single time"),
        ({"times": {"start": 0.5, "stop": 0.5, "step": 0.25}}, r"^times: holds a single time"),
        ({"times": [0.5, 0.5]}, r"^times: holds a single time"),
    ])
    def test_bad_input_names_the_key(self, extra, key):
        with pytest.raises(ShieldlabError, match=key):
            run_quench_experiment({**self.quench_config(), **extra})

    def test_without_a_split_one_time_and_any_sites_still_run(self):
        cfg = {**self.quench_config(observables=["+ X0"]), "times": [1.5]}
        del cfg["split"]
        table = run_quench_experiment(cfg)
        assert len(table.rows) == 1 and table.metadata["verdict"] == {"status": "pass"}

    def test_without_a_split_observables_still_may_not_share_a_site(self):
        # their rows would share every (t, site) key
        cfg = self.quench_config(observables=["+ Z0", "+ X0 X1"])
        del cfg["split"]
        with pytest.raises(ShieldlabError,
                           match=r"^observables\[1\]: shares its site column \(0\)"):
            run_quench_experiment(cfg)

    def test_verdict_does_not_depend_on_row_order(self, monkeypatch):
        import random

        import shieldlab.experiments as experiments

        cfg = self.quench_config()
        verdict = run_quench_experiment(cfg).metadata["verdict"]

        def shuffled(*args, **kwargs):
            table = run_quench(*args, **kwargs)
            random.Random(5).shuffle(table.rows)
            return table

        monkeypatch.setattr(experiments, "run_quench", shuffled)
        assert run_quench_experiment(cfg).metadata["verdict"] == verdict

    def test_post_lattice_excludes_the_site_patch(self):
        cfg = self.quench_config()
        cfg["post"] = cfg["pre"]
        with pytest.raises(ShieldlabError, match="'quench_site'"):
            run_quench_experiment(cfg)
        del cfg["quench_site"]
        with pytest.raises(ShieldlabError, match="'quench_h'"):
            run_quench_experiment(cfg)
        del cfg["quench_h"]
        assert run_quench_experiment(cfg).metadata["verdict"]["max_variation_driven"] < 1e-9

    def test_post_may_change_only_the_x_side(self, quench_path):
        cfg = self.quench_config()
        del cfg["quench_site"], cfg["quench_h"]
        n = cfg["pre"]["n_sites"]

        def post(h, J):
            edges = [(i, i + 1, J.get(i, 1.0)) for i in range(n - 1)]
            return lattice_json(validate_lattice(n, edges, h))

        # fields on A = {0, 1} and couplings within X = {0, 1, 2} are X-side
        cfg["post"] = post([-3.0, 0.9, 0.0, 0.5, 0.5, 0.5], {0: -2.0, 1: 0.3})
        verdict = run_quench_experiment(cfg).metadata["verdict"]
        assert verdict["status"] == "pass" and verdict["max_variation_driven"] > 1e-2
        h = [0.5, 0.5, 0.0, 0.5, 0.5, 0.5]
        for h_4, J, what in ((0.2, {}, "the field on site 4"),
                             (0.5, {2: 0.4}, r"the coupling of edge \(2, 3\)"),
                             (0.5, {4: 0.4}, r"the coupling of edge \(4, 5\)")):
            cfg["post"] = post(h[:4] + [h_4, 0.5], J)
            with pytest.raises(ShieldlabError, match=rf"^post: changes {what},"):
                run_quench_experiment(cfg)

    def test_quench_site_counts_from_the_index_base(self):
        cfg = self.quench_config()
        cfg["pre"]["index_base"] = 1
        cfg["pre"]["edges"] = [[i + 1, j + 1, J] for (i, j, J) in cfg["pre"]["edges"]]
        cfg["split"] = {side: [s + 1 for s in sites] for side, sites in cfg["split"].items()}
        # site 0 does not exist under base 1; it used to wrap to the shielded end
        with pytest.raises(ShieldlabError, match="quench_site"):
            run_quench_experiment(cfg)
        cfg["quench_site"] = 1
        verdict = run_quench_experiment(cfg).metadata["verdict"]
        assert verdict["status"] == "pass"
        assert verdict["max_variation_driven"] > 1e-2


class TestDualCheckRunner:
    def test_random_chains(self):
        cfg = {"n_sites": 5, "trials": 6, "seed": 2}
        table = run_dual_check(cfg)
        verdict = table.metadata["verdict"]
        assert verdict["status"] == "pass"
        assert verdict["max_hamiltonian_residual"] < 1e-12
        assert verdict["max_algebra_residual"] < 1e-12

    def test_null_field_reports_two_components(self):
        cfg = {"n_sites": 5, "trials": 2, "seed": 2, "zero_field_site": 2}
        table = run_dual_check(cfg)
        assert all(row[4] == 2 for row in table.rows)

    def test_explicit_chain(self):
        lat = make_chain(3, [2.0, 3.0], [0.1, 0.2, 0.3])
        table = run_dual_check({"chain": lattice_json(lat)})
        assert table.rows[0][2] == 0.0

    def test_run_without_data_is_an_error(self):
        with pytest.raises(ShieldlabError, match="trials"):
            run_dual_check({"n_sites": 5, "trials": 0})

    @pytest.mark.parametrize("extra, key", [
        ({"zero_field_site": -1}, "zero_field_site"),
        ({"zero_field_site": 8}, "zero_field_site"),
        ({"zero_field_site": "3"}, "zero_field_site"),
        ({"trials": 2.7}, "trials"),
        ({"trials": True}, "trials"),
        ({"n_sites": 8.0}, "n_sites"),
        ({"J_range": [1, 2, 3]}, "J_range"),
        ({"h_range": [-1.0]}, "h_range"),
        ({"trails": 0}, "'trails'"),
        ({"chain": lattice_json(make_triangular_patch([2, 3])[0])},
         r"^chain: lattice is not an open nearest-neighbor chain"),
        ({"chain": lattice_json(validate_lattice(3, [(0, 1, 1.0), (1, 2, 1.0)], [0.2] * 3,
                                                 [0.0, 0.1, 0.0]))},
         r"^chain: dual construction requires g ≡ 0"),
        ({"n_sites": 13}, r"^n_sites: dense realization of 13 sites exceeds the cap of 12"),
        ({"chain": OVER_CAP},
         r"^chain\.n_sites: dense realization of 13 sites exceeds the cap of 12"),
    ])
    def test_bad_input_names_the_key(self, extra, key):
        with pytest.raises(ShieldlabError, match=key):
            run_dual_check({"n_sites": 8, "trials": 2, "seed": 2, **extra})

    @pytest.mark.parametrize("key", ["trials", "n_sites", "J_range", "zero_field_site"])
    def test_explicit_chain_excludes_random_chain_keys(self, key):
        lat = make_chain(3, [2.0, 3.0], [0.1, 0.2, 0.3])
        with pytest.raises(ShieldlabError, match=f"'{key}'"):
            run_dual_check({"chain": lattice_json(lat), key: 1})

    @staticmethod
    def run_with_dual(monkeypatch, cfg, cls):
        """The runner's rows with every dual chain rebuilt as ``cls``, and the
        (lattice, dual) pairs it compared."""
        chains = []

        def rebuilt(lat):
            dc = dual_chain(lat)
            chains.append((lat, cls(dc.n_sites, dc.dual_couplings, dc.dual_fields)))
            return chains[-1][1]

        monkeypatch.setattr(experiments, "dual_chain", rebuilt)
        rows = run_dual_check(cfg).rows
        assert len(chains) == len(rows) == cfg["trials"]
        return chains, rows

    @pytest.mark.parametrize("name", ["dual_check", "dual_check_cut"])
    def test_residual_read_per_flip_mask_is_the_dense_max(self, monkeypatch, name):
        # the runner reads |direct - dual| per flip mask, with no dense
        # matrix; a dual with one mu_x word altered reads the largest entry
        # of the dense difference, against the builders exactly and against
        # Kronecker references within 1e-12
        cfg = shipped_config(name)
        assert [row[2] for row in run_dual_check(cfg).rows] == [0.0] * cfg["trials"]

        class AlteredX(DualChain):  # mu_x(2) loses its X on site 2
            def mu_x(self, d):
                letters = super().mu_x(d).letters
                return PauliString(letters[:2] + "I" + letters[3:] if d == 2 else letters)

        chains, rows = self.run_with_dual(monkeypatch, {**cfg, "trials": 4}, AlteredX)
        for (lat, dc), row in zip(chains, rows):
            words = [(J, kron_word(dc.mu_z(d))) for d, J in enumerate(dc.dual_fields)]
            words += [(h, kron_word(dc.mu_x(d)) @ kron_word(dc.mu_x(d + 1)))
                      for d, h in enumerate(dc.dual_couplings)]
            reference = -sum(c * m for c, m in words)
            assert row[2] == np.abs(build_hamiltonian(lat).to_dense() - dc.to_dense()).max()
            assert row[2] == pytest.approx(np.abs(dense_reference(lat) - reference).max(),
                                           abs=1e-12)
            assert row[2] > 1e-3

    def test_residual_reads_the_masks_of_both_sides(self, monkeypatch):
        # a word on a flip mask that only the dual has, or a direct word the
        # dual lacks, is the whole residual
        cfg = shipped_config("dual_check", trials=3)

        class ExtraWord(DualChain):
            def _words(self):
                return [*super()._words(), (3.0, PauliString("XX" + "I" * 6).xzk)]

        class MissingWord(DualChain):
            def _words(self):
                return super()._words()[:-1]

        _, rows = self.run_with_dual(monkeypatch, cfg, ExtraWord)
        assert [row[2] for row in rows] == [3.0] * 3
        chains, rows = self.run_with_dual(monkeypatch, cfg, MissingWord)
        assert [row[2] for row in rows] == [abs(lat.h[-1]) for lat, _ in chains]

    def test_dense_builders_need_no_kron(self, monkeypatch):
        # every library reading of a word goes through its basis action;
        # np.kron is left to the tests' own oracles, built first
        cfg = shipped_config("dual_check")
        expected = run_dual_check(cfg)
        words = [PauliString(w, k) for w in ("XYZI", "YYIZ", "IIII") for k in range(4)]
        dense_words = [kron_word(p) for p in words]
        a = HamiltonianTerms(3, ((0.5, PauliString("XII")), (-1.25, PauliString("ZZI")),
                                 (2.0, PauliString("IYI"))))
        b = HamiltonianTerms(3, ((0.75, PauliString("IZZ")), (1.5, PauliString("IIY"))))
        A, B = kron_terms(a.terms), kron_terms(b.terms)

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", no_kron)
        table = run_dual_check(cfg)
        assert table.rows == expected.rows
        assert table.metadata["verdict"] == expected.metadata["verdict"]
        j = np.arange(16)
        for p, dense in zip(words, dense_words):
            mask, coefs = p.basis_action()
            assert np.array_equal(dense[j ^ mask, j], coefs)
        assert commutator_norm(a, b) == np.abs(A @ B - B @ A).max() > 0


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_every_runner_takes_a_config_object_of_its_own_kind(name):
    with pytest.raises(ShieldlabError, match="config must be a JSON object"):
        RUNNERS[name]([1, 2])
    with pytest.raises(ShieldlabError, match="config is for 'another'"):
        RUNNERS[name]({"kind": "another"})


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, tmp_path):
        for run in ("a", "b"):
            emit(run_verify_shielding(chain_config(seed=9)),
                 tmp_path / run / "out.csv")
        assert (tmp_path / "a" / "out.csv").read_bytes() == \
            (tmp_path / "b" / "out.csv").read_bytes()
        assert (tmp_path / "a" / "out.csv.meta.json").read_bytes() == \
            (tmp_path / "b" / "out.csv.meta.json").read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        emit(run_verify_shielding(chain_config(seed=9)), tmp_path / "a.csv")
        emit(run_verify_shielding(chain_config(seed=10)), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


class TestCli:
    def run_cli(self, tmp_path, experiment, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "shieldlab.cli", experiment,
             "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        return proc

    def test_passing_run_exits_zero(self, tmp_path):
        proc = self.run_cli(tmp_path, "verify-shielding", chain_config(trials=2))
        assert proc.returncode == 0, proc.stderr
        verdict_line = [l for l in proc.stdout.splitlines()
                        if l.startswith("VERDICT ")][0]
        verdict = json.loads(verdict_line[len("VERDICT "):])
        assert verdict["status"] == "pass"
        assert (tmp_path / "out" / "verify-shielding.csv").exists()
        assert (tmp_path / "out" / "verify-shielding.csv.meta.json").exists()

    def test_failing_verdict_exits_two(self, tmp_path):
        cfg = chain_config(trials=2, interface_field=0.3)
        proc = self.run_cli(tmp_path, "verify-shielding", cfg)
        assert proc.returncode == 2

    def test_config_error_exits_one(self, tmp_path):
        proc = self.run_cli(tmp_path, "verify-shielding", {"lattice": {}})
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_run_without_data_exits_one(self, tmp_path):
        proc = self.run_cli(tmp_path, "verify-shielding", chain_config(trials=0))
        assert proc.returncode == 1
        assert "trials" in proc.stderr

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg["lattice"]["edges"].append([2, 1, 1.0]),
         "lattice.edges[5]: duplicate edge (0, 1)"),
        (lambda cfg: cfg["lattice"]["edges"].append([2, 2, 1.0]),
         "lattice.edges[5]: edge (1, 1) joins a site to itself"),
        (lambda cfg: cfg["lattice"]["h"].pop(), "lattice.h: has 5 entries, expected 6"),
        (lambda cfg: cfg["lattice"].update(n_sites=13),
         "lattice.n_sites: dense realization of 13 sites exceeds the cap of 12"),
        (lambda cfg: cfg["split"]["Y"].pop(), "split: sites [5] belong to neither region"),
        (lambda cfg: cfg["lattice"].update(index_base=2),
         "lattice.index_base must be 0 or 1, got 2"),
        (lambda cfg: cfg["lattice"]["edges"].append([6, 7, 1.0]),
         "lattice.edges[5] must be a site in 1..6, got 7"),
        (lambda cfg: cfg["lattice"]["h"].__setitem__(2, 0.5),
         "split: interface site 2 carries field h=0.5, g=0.0"),
        (lambda cfg: cfg["lattice"]["edges"].append([1, 4, 1.0]),
         "split: edge (0, 3) crosses between the two bulks"),
    ], ids=["duplicate_edge", "self_edge", "short_h", "13_sites", "not_a_cover",
            "index_base_2", "out_of_range_site", "interface_field", "edge_between_bulks"])
    def test_malformed_lattice_or_split_exits_one(self, tmp_path, edit, message):
        # the refusal's key and message are the whole of stderr
        cfg = shipped_config("verify_shielding_chain")
        edit(cfg)
        proc = self.run_cli(tmp_path, "verify-shielding", cfg)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"observables": ["+ X0", "+ X1"]}, "error: observables: none lies on the shielded bulk"),
        ({"observables": ["+ X2"]}, "error: observables: none lies on the shielded bulk"),
        ({"times": [2.0]}, "error: times: holds a single time"),
    ])
    def test_quench_verdict_without_data_exits_one(self, tmp_path, edit, message):
        lat = make_chain(5, [1.0] * 4, [0.5, 0.6, 0.0, 0.7, 0.8])
        cfg = {"pre": lattice_json(lat), "quench_site": 0, "quench_h": -3.0,
               "times": [0.0, 1.0], "observables": "x",
               "split": {"X": [0, 1, 2], "Y": [2, 3, 4]}, **edit}
        proc = self.run_cli(tmp_path, "quench", cfg)
        assert proc.returncode == 1
        assert message in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"quench_site": 2}, "error: quench_site: changes the field on site 2,"),
        ({"quench_site": 4}, "error: quench_site: changes the field on site 4,"),
        ({"post": lattice_json(make_chain(6, [1.0] * 5, [0.5, 0.5, 0.3, 0.5, 0.5, 0.5]))},
         "error: post: changes the field on site 2,"),
    ], ids=["quench_on_S", "quench_in_B", "post_field_on_S"])
    def test_quench_off_the_x_side_exits_one(self, tmp_path, edit, message):
        # none of these changes only the X side, so a shielded side that
        # moves would be blamed on shielding
        lat = make_chain(6, [1.0] * 5, [0.5, 0.5, 0.0, 0.5, 0.5, 0.5])
        cfg = {"pre": lattice_json(lat), "quench_site": 0, "quench_h": -3.0,
               "times": [0.0, 1.0], "observables": "x",
               "split": {"X": [0, 1, 2], "Y": [2, 3, 4, 5]}, **edit}
        if "post" in edit:
            del cfg["quench_site"], cfg["quench_h"]
        proc = self.run_cli(tmp_path, "quench", cfg)
        assert proc.returncode == 1
        assert message in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, edit, message", [
        ("verify-shielding", lambda cfg: cfg.update(trails=2), "'trails'"),
        ("verify-shielding", lambda cfg: cfg["lattice"].update(gg=1), "'lattice.gg'"),
        ("verify-shielding", lambda cfg: cfg["split"].update(Z=[1]), "'split.Z'"),
        ("verify-shielding", lambda cfg: cfg.pop("lattice"),
         "missing config key 'lattice'"),
        ("counterexample", lambda cfg: cfg.update(
            h1_grid={"start": 0.0, "stop": 1.0, "step": 0.5, "num": 3}), "'h1_grid.num'"),
        ("quench", lambda cfg: cfg.update(post=cfg["pre"]), "'quench_site'"),
        ("dual-check", lambda cfg: cfg.update(trials=2), "'trials'"),
    ])
    def test_unread_key_exits_one_with_its_path(self, tmp_path, experiment, edit,
                                                 message):
        lat = make_chain(3, [1.0, 1.0], [0.4, 0.0, 0.4])
        cfg = {
            "verify-shielding": chain_config(trials=2),
            "counterexample": {"betas": [1.0]},
            "quench": {"pre": lattice_json(lat), "quench_site": 0, "quench_h": -1.0},
            "dual-check": {"chain": lattice_json(lat)},
        }[experiment]
        edit(cfg)
        proc = self.run_cli(tmp_path, experiment, cfg)
        assert proc.returncode == 1
        assert message in proc.stderr

    @pytest.mark.parametrize("experiment, edit, message", [
        ("quench", lambda cfg: cfg.update(observables=["+ Q1"]),
         "error: observables[0]: bad Pauli token 'Q1'"),
        ("quench", lambda cfg: cfg.update(observables=["+ X1 X1"]),
         "error: observables[0]: site 1 assigned twice"),
        ("quench", lambda cfg: cfg.update(observables=["+ Z0", "+i X0"]),
         "error: observables[1]: '+i X0' has phase +i or -i"),
        ("quench", lambda cfg: cfg.update(observables=["+ Z0", "+ X0 X1"]),
         "error: observables[1]: shares its site column (0) with observables[0]"),
        ("quench", lambda cfg: cfg["pre"]["edges"].append([1, 0, 2.0]),
         "error: pre.edges[2]: duplicate edge (0, 1)"),
        ("quench", lambda cfg: cfg.update(split={"X": [0, 1], "Y": [2]}),
         "error: split: edge (1, 2) crosses"),
        ("quench", lambda cfg: cfg.update(split={"X": [0, 1], "Y": [1, 2]},
                                          observables=["+ X0 X2"]),
         "error: observables[0]: touches both bulks"),
        ("counterexample", lambda cfg: cfg.update(betas=["ground"]),
         "error: betas[0] must be a finite number"),
    ])
    def test_error_below_the_reader_exits_one_with_its_path(self, tmp_path, experiment,
                                                            edit, message):
        lat = make_chain(3, [1.0, 1.0], [0.4, 0.0, 0.4])
        cfg = {
            "counterexample": {"betas": [1.0], "h1_grid": [0.5]},
            "quench": {"pre": lattice_json(lat), "quench_site": 0, "quench_h": -1.0},
        }[experiment]
        edit(cfg)
        proc = self.run_cli(tmp_path, experiment, cfg)
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("experiment, cfg, message", [
        ("verify-shielding", {"lattice": OVER_CAP, "split": {"X": [0], "Y": [0]}},
         "error: lattice.n_sites: dense realization of 13 sites exceeds the cap of 12"),
        ("conjecture", {"lattice": OVER_CAP, "split": {"X": [0], "Y": [0]}},
         "error: lattice.n_sites: dense realization of 13 sites exceeds the cap of 12"),
        ("quench", {"pre": OVER_CAP, "quench_site": 0, "quench_h": 1.0},
         "error: pre.n_sites: dense realization of 13 sites exceeds the cap of 12"),
        ("dual-check", {"n_sites": 13},
         "error: n_sites: dense realization of 13 sites exceeds the cap of 12"),
    ])
    def test_over_cap_lattice_exits_one_with_its_key(self, tmp_path, experiment, cfg,
                                                     message):
        proc = self.run_cli(tmp_path, experiment, cfg)
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = chain_config(trials=2)
        cfg["kind"] = "quench"
        proc = self.run_cli(tmp_path, "verify-shielding", cfg)
        assert proc.returncode == 1
