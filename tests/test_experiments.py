import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shieldlab.experiments as experiments
import shieldlab.thermal as thermal
from shieldlab import (
    RUNNERS,
    DensityMatrix,
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
    trace_distance,
    update_parameters,
    validate_lattice,
)
from shieldlab.cli import main
from shieldlab.tables import format_cell

from helpers import (
    dense_reference,
    kron_terms,
    kron_word,
    numpy_point_rng,
    sector_states_reference,
)
from test_thermal import dense_states


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
    KEYS = [(0, 0), (0, 1), (1, 0), (5, 3), (137, 42), (2 ** 64 - 1, 0),
            (2 ** 64 - 1, 2 ** 64 - 1)]
    # 12 draws read three blocks of four words; the bounds change per draw
    BOUNDS = [(-2.0, 2.0), (0.0, 1.0), (0.5, 0.5), (-1e300, 1e300), (3, 7),
              (-1.0, -0.25)] * 2

    @staticmethod
    def draws(seed, index, bounds):
        rng = point_rng(seed, index)
        return [rng.uniform(lo, hi) for lo, hi in bounds]

    def test_deterministic(self):
        assert self.draws(5, 3, [(0.0, 1.0)] * 4) == self.draws(5, 3, [(0.0, 1.0)] * 4)

    def test_streams_independent(self):
        assert self.draws(5, 3, [(0.0, 1.0)] * 4) != self.draws(5, 4, [(0.0, 1.0)] * 4)
        assert self.draws(5, 3, [(0.0, 1.0)] * 4) != self.draws(6, 3, [(0.0, 1.0)] * 4)

    @pytest.mark.parametrize("seed, index", KEYS)
    def test_draws_equal_numpy_philox(self, seed, index):
        ref = numpy_point_rng(seed, index)
        expected = [ref.uniform(lo, hi) for lo, hi in self.BOUNDS]
        drawn = self.draws(seed, index, self.BOUNDS)
        assert drawn == expected
        assert all(type(x) is float for x in drawn)
        # a whole array of numpy draws reads the same words in the same order
        assert self.draws(seed, index, [(-1.0, 3.0)] * 9) == \
            list(numpy_point_rng(seed, index).uniform(-1.0, 3.0, size=9))

    @pytest.mark.parametrize("seed, index", KEYS)
    def test_low_above_high_scales_the_same_double(self, seed, index):
        # numpy's uniform refuses high < low; the reader draws lo + (hi - lo) * u
        # with u numpy's next double of the stream
        ref = numpy_point_rng(seed, index)
        assert self.draws(seed, index, [(2.5, -1.0)] * 9) == \
            [2.5 + (-1.0 - 2.5) * ref.random() for _ in range(9)]

    def test_runs_load_neither_numpy_random_nor_openssl(self, tmp_path):
        # trial draws (point_rng) and the sidecar's config hash are pure Python,
        # so no run imports numpy.random, or hashlib and the OpenSSL it maps
        lat = make_chain(3, [1.0, 1.0], [0.4, 0.0, 0.4])
        runs = {"verify-shielding": chain_config(trials=2),
                "counterexample": {"betas": [1.0], "h1_grid": [0.5]},
                "conjecture": triangle_config("ground", trials=2),
                "quench": {"pre": lattice_json(lat), "quench_site": 0, "quench_h": -1.0,
                           "times": [0.0, 1.0]},
                "dual-check": {"n_sites": 5, "trials": 2, "seed": 3}}
        assert set(runs) == set(RUNNERS)
        calls = []
        for name, cfg in runs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            calls.append(f"assert main([{name!r}, '--config', {str(path)!r}, "
                         f"'--out', {str(tmp_path / name)!r}]) == 0")
        script = "\n".join(["import sys", "from shieldlab.cli import main", *calls,
                            "print(sorted({'numpy.random', 'hashlib', '_hashlib'}"
                            " & set(sys.modules)))"])
        src = str(Path(experiments.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestConfigHash:
    FIPS_VECTORS = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",  # 448 bits
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    ]

    @pytest.mark.parametrize("data, digest", FIPS_VECTORS, ids=["empty", "abc", "448_bits"])
    def test_fips_vectors(self, data, digest):
        assert experiments._digest(data) == digest == hashlib.sha256(data).hexdigest()

    def test_every_length_across_the_padding_edges(self):
        # 55/56 and 119/120 bytes are where the length field moves to a new block
        pattern = bytes((37 * k + 11) % 256 for k in range(200))
        for n in range(201):
            assert experiments._digest(pattern[:n]) == hashlib.sha256(pattern[:n]).hexdigest(), n

    @pytest.mark.parametrize("path", sorted(Path(__file__).parents[1].glob("configs/*.json")),
                             ids=lambda p: p.stem)
    def test_shipped_configs_hash_as_hashlib(self, path):
        cfg = experiments.load_config(path)
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
        assert experiments.config_hash(cfg) == hashlib.sha256(canonical).hexdigest()


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

    def test_control_that_barely_breaks_the_precondition_is_indeterminate(
            self, tmp_path, capsys):
        # an interface field of 1e-4 moves the state by 5.6e-5: between the
        # pass and fail floors, so neither verdict is given; the CLI exits 2
        cfg = shipped_config("verify_shielding_control", interface_field=1e-4)
        verdict = run_verify_shielding(cfg).metadata["verdict"]
        assert verdict["status"] == "indeterminate"
        assert 1e-9 < verdict["max_distance"] < 1e-3
        assert verdict["max_distance"] == pytest.approx(5.6e-5, rel=0.01)
        assert verdict["note"] == "control did not violate shielding"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify-shielding", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        line = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(line.removeprefix("VERDICT ")) == verdict

    def test_repeated_beta_is_read_against_trial_zero(self, monkeypatch):
        # both beta = 1 entries give the same row, and each row's variation is
        # measured against trial 0's state at its beta. The control's state on
        # Y moves with the X side, so the variations are not all 0
        betas = [1.0, 1.0, 5.0]
        states = []
        read = experiments._states

        def spy(*args):
            states.append(read(*args))
            return states[-1]

        monkeypatch.setattr(experiments, "_states", spy)
        table = run_verify_shielding(chain_config(interface_field=0.3, betas=betas))
        first = states[1]  # states[0] is the shielded side
        assert len(states) == 1 + 4 and len(table.rows) == 4 * 3
        for k, trial in enumerate(states[1:]):
            rows = table.rows[3 * k:3 * k + 3]
            assert rows[0] == rows[1]
            for row, beta, lhs in zip(rows, betas, trial):
                assert row[:2] == (k, beta)
                assert row[3] == trace_distance(lhs, first[betas.index(beta)])
        assert max(row[3] for row in table.rows) > 1e-3

    def test_x_all_interface_is_refused(self):
        # X = {interface}: nothing on the X side to redraw, so every trial
        # compared identical states, and the run passed at max_distance 0
        lat = make_chain(2, [1.3], [0.0, 0.8])
        cfg = {"lattice": lattice_json(lat), "split": {"X": [0], "Y": [0, 1]},
               "betas": [1.0], "trials": 3, "seed": 1}
        with pytest.raises(ShieldlabError, match="^split: X is all interface, so no trial "
                                                 "redraws anything") as err:
            run_verify_shielding(cfg)
        assert err.value.key == "split"
        # the control's interface field is the one thing such a split can test
        assert len(run_verify_shielding({**cfg, "interface_field": 0.3}).rows) == 3

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

    @pytest.mark.parametrize("extra, message", [
        ({"split": {"X": [0, 1, 2, 3], "Y": [1]}},
         "split: Y is all interface: the run would have no data"),
        ({"betas": [0.0]}, "betas: holds no beta above 0, where every state is "
                           "maximally mixed: the run would have no data"),
        ({"betas": [0, 0.0]}, "betas: holds no beta above 0"),
    ], ids=["y_all_interface", "beta_zero", "betas_zero"])
    def test_run_that_cannot_fail_is_refused(self, extra, message):
        # each passed at max_distance ~1e-16: with B empty, Tr_X of any state
        # with the spin flip is I/2 on the zero-field site, and at beta = 0
        # both states are maximally mixed
        with pytest.raises(ShieldlabError, match="^" + re.escape(message)) as err:
            run_verify_shielding(chain_config(**extra))
        assert err.value.key == message.split(":")[0]

    @pytest.mark.parametrize("edit, key, message", [
        (lambda cfg: cfg.update(trials=0), "trials", "must be an integer >= 1, got 0"),
        (lambda cfg: cfg.pop("lattice"), "lattice", "is missing"),
        (lambda cfg: cfg.update(trails=2), "trails", "is unknown or does not apply"),
        (lambda cfg: cfg["lattice"].update(gg=1), "lattice.gg", "is unknown or does not apply"),
        (lambda cfg: cfg.update(split=[1]), "split", "must be a JSON object, got list"),
        (lambda cfg: cfg.update(kind="quench"), "kind",
         "config is for 'quench', not 'verify-shielding'"),
    ], ids=["value", "missing", "unknown", "nested_unknown", "not_an_object", "kind"])
    def test_parser_refusal_is_keyed(self, edit, key, message):
        # the key path is the error's key, and the message no longer repeats it
        cfg = chain_config()
        edit(cfg)
        with pytest.raises(ShieldlabError) as err:
            run_verify_shielding(cfg)
        assert (err.value.key, err.value.message) == (key, message)

    def test_control_lattice_must_be_zero_on_the_interface(self):
        # the control sets h on S itself; a field already there is refused
        # like any split's, whatever interface_field says
        cfg = shipped_config("verify_shielding_control")
        cfg["lattice"]["h"][2] = 0.3
        with pytest.raises(ShieldlabError,
                           match=r"^split: interface site 2 carries field h=0\.3, g=0\.0"):
            run_verify_shielding(cfg)

    @pytest.mark.parametrize("extra, key", [
        ({"trails": 2}, "^trails: is unknown or does not apply"),
        ({"trials": 2.7}, "trials"),
        ({"trials": True}, "trials"),
        ({"J_range": [1, 2, 3]}, "J_range"),
        ({"h_range": "wide"}, "h_range"),
        ({"g_range": [0.0, "1"]}, r"g_range\[1\]"),
        ({"betas": ["warm"]}, r"betas\[0\]"),
        ({"betas": [-1.0]}, r"betas\[0\]"),
        ({"betas": [10 ** 400]},
         r'^betas\[0\]: must be a number >= 0 or "ground", got an integer too large for a '
         r"float$"),
        ({"interface_field": -10 ** 400}, r"^interface_field: must be a finite number, got an "
                                          r"integer too large"),
        ({"seed": -1}, "seed"),
        ({"seed": 2 ** 64},
         r"^seed: must be an integer in 0\.\.2\*\*64 - 1, got 18446744073709551616$"),
        ({"h_range": [1.0, 0.0]}, r"^h_range: has low 1\.0 above high 0\.0$"),
        ({"J_range": [-1e308, 1e308]}, r"^J_range: has a width high - low that overflows"),
        ({"interface_field": "0.3"}, "interface_field"),
        ({"interface_field": 0.3, "split": {"X": [0, 1, 2], "Y": [1, 2, 3]},
          "lattice": lattice_json(make_chain(4, [1.0] * 3, [0.4, 0.0, 0.0, 0.4]))},
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
        with pytest.raises(ShieldlabError, match=rf"^{section}\.{key}: is unknown"):
            run_verify_shielding(cfg)

    @pytest.mark.parametrize("edit, key", [
        (lambda cfg: cfg.pop("lattice"), "^lattice: is missing"),
        (lambda cfg: cfg["lattice"].pop("n_sites"), r"^lattice\.n_sites: is missing"),
        (lambda cfg: cfg.update(lattice=[1]), "^lattice: must be a JSON object, got list"),
        (lambda cfg: cfg["lattice"].update(index_base=2), "lattice.index_base"),
        (lambda cfg: cfg["lattice"]["edges"].append([0, 1]), r"lattice\.edges\[3\]"),
        (lambda cfg: cfg["lattice"]["h"].__setitem__(0, None), r"lattice\.h\[0\]"),
        (lambda cfg: cfg["lattice"]["h"].__setitem__(0, 10 ** 400),
         r"^lattice\.h\[0\]: must be a finite number, got an integer too large for a float$"),
        (lambda cfg: cfg["lattice"]["edges"].append([0, 2, 10 ** 400]),
         r"^lattice\.edges\[3\]: must be a finite number, got an integer too large"),
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
                           match=r"^betas\[0\]: must be a number >= 0 or \"ground\", got 'inf'"):
            run_verify_shielding(chain_config(trials=2, betas=["inf"]))


# betas the diamond series cannot sum, and the whole refusal each gives
SERIES_REFUSALS = [
    ([1.0, 150.0], "betas[1]: series did not converge within 400 terms "
                   "(beta=150.0, residual=2.130144107790899e+44)"),
    ([400.0], "betas[0]: series overflowed at n=195 (beta=400.0, h1=0.0, h4=1.0)"),
]


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
         r"^h1_grid\.num: is unknown"),
        ({"h1_grid": {"start": 0.0, "step": 0.5}}, r"^h1_grid\.stop: is missing"),
        ({"h1_grid": [0.5, "1"]}, r"h1_grid\[1\]"),
        ({"h4": "1"}, "h4"),
        ({"betas": 1.0}, "betas"),
        ({"series_tol": None}, "series_tol"),
        ({"seed": 1.5}, "seed"),
        ({"trials": 3}, "^trials: is unknown"),
        ({"betas": [1.0, "ground"]}, r"^betas\[1\]: must be a finite number"),
        ({"betas": ["inf"]}, r"^betas\[0\]: must be a finite number"),
        ({"h4": 10 ** 400}, r"^h4: must be a finite number, got an integer too large for a "
                            r"float$"),
        ({"betas": [1.0, 10 ** 400]},
         r"^betas\[1\]: must be a finite number >= 0 \(the series takes no beta = inf\), "
         r"got an integer too large for a float$"),
        ({"h1_grid": {"start": 0.0, "stop": 1.0, "step": 10 ** 400}},
         r"^h1_grid\.step: must be a finite number > 0, got an integer too large for a "
         r"float$"),
        ({"h1_grid": [0.5, -10 ** 400]}, r"^h1_grid\[1\]: must be a finite number, got an "
                                         r"integer too large"),
        ({"h1_grid": {"start": 0, "stop": 1e300, "step": 1e-300}},
         "^h1_grid: spans inf steps: the grid has no finite point count"),
        ({"h1_grid": {"start": -1e308, "stop": 1e308, "step": 1.0}},
         "^h1_grid: spans inf steps"),
    ])
    def test_bad_input_names_the_key(self, extra, key):
        cfg = {"h4": 1.0, "betas": [1.0], "h1_grid": [0.5], **extra}
        with pytest.raises(ShieldlabError, match=key):
            run_counterexample(cfg)

    @pytest.mark.parametrize("betas, message", SERIES_REFUSALS)
    def test_beta_the_series_cannot_sum_is_refused_before_any_solve(self, monkeypatch,
                                                                     betas, message):
        def solve(H):
            raise AssertionError("H was solved")

        monkeypatch.setattr(thermal, "_decompose", solve)
        with pytest.raises(ShieldlabError) as info:
            run_counterexample({"betas": betas})
        assert str(info.value) == message


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

    def test_small_variation_at_finite_temperature_is_indeterminate(self):
        # beta = 3 on the 9-site patch varies the A side by 4.3e-8: above the
        # conjecture's pass floor, below the fail floor
        verdict = run_conjecture(shipped_config("conjecture_patch9", beta=3.0, trials=3)
                                 ).metadata["verdict"]
        assert verdict["status"] == "indeterminate"
        assert 1e-8 < verdict["max_variation"] < 1e-3
        assert verdict["max_variation"] == pytest.approx(4.3e-8, rel=0.01)

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
        """The rows of a conjecture run from the dense full-lattice state of
        each trial's H: expectations on A of the state and, at beta = inf, of
        each sector_states_reference piece on the interface."""
        base = cfg["lattice"].get("index_base", 0)
        X, Y = ({i - base for i in cfg["split"][key]} for key in "XY")
        beta = math.inf if isinstance(cfg["beta"], str) else cfg["beta"]
        rows = []
        for k, H in enumerate(hamiltonians):
            ((rho, _),) = dense_states(H, [beta])
            rho = DensityMatrix(rho, range(H.n_sites))
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
        with pytest.raises(ShieldlabError, match="^split: X is all interface"):
            run_conjecture(cfg)

    @pytest.mark.parametrize("extra, message", [
        ({"trials": 1}, "trials: is 1, and one trial cannot vary: the run would have no data"),
        ({"split": {"X": list(range(9)), "Y": [2, 3, 4]}},
         "split: Y is all interface: the run would have no data"),
        ({"b_field_range": [0.5, 0.5], "offset_range": [1.0, 1.0]},
         "b_field_range: and offset_range are single points, so every trial draws "
         "the same B fields: the run would have no data"),
        ({"beta": 0}, "beta: is 0, where the state is maximally mixed whatever the B "
                      "fields: the run would have no data"),
        ({"beta": 0.0}, "beta: is 0"),
    ], ids=["one_trial", "y_all_interface", "single_point_ranges", "beta_zero",
            "beta_zero_float"])
    def test_run_that_cannot_fail_is_refused(self, extra, message):
        # each passed with max_variation <= 1.2e-16
        with pytest.raises(ShieldlabError, match="^" + re.escape(message)) as err:
            run_conjecture({**triangle_config("ground"), **extra})
        assert err.value.key == message.split(":")[0]

    @pytest.mark.parametrize("extra", [{"b_field_range": [0.5, 0.5]},
                                       {"offset_range": [1.0, 1.0]}])
    def test_one_single_point_range_still_runs(self, extra):
        verdict = run_conjecture({**triangle_config("ground", trials=2), **extra})
        assert verdict.metadata["verdict"]["status"] == "pass"

    @pytest.mark.parametrize("extra, key", [
        ({"trials": 2.7}, "trials"),
        ({"trials": "6"}, "trials"),
        ({"offset_range": [0.0]}, "offset_range"),
        ({"a_field_range": [0.0, 1.0, 2.0]}, "a_field_range"),
        ({"b_field_range": {"low": 0.0}}, "b_field_range"),
        ({"offset_range": [3.0, 0.0]}, r"^offset_range: has low 3\.0 above high 0\.0$"),
        ({"a_field_range": [-1e308, 1e308]}, r"^a_field_range: has a width high - low"),
        ({"seed": 2 ** 64}, r"^seed: must be an integer in 0\.\.2\*\*64 - 1"),
        ({"beta": "warm"}, "beta"),
        ({"beta": -1.0}, "beta"),
        ({"beta": 10 ** 400}, r"^beta: must be a number >= 0 or \"ground\", got an integer "
                              r"too large for a float$"),
        ({"a_field_range": [0.0, 10 ** 400]}, r"^a_field_range\[1\]: must be a finite number, "
                                              r"got an integer too large"),
        ({"betas": [1.0]}, "^betas: is unknown"),
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
        ({"times": {"start": 0.0, "stop": 2.0, "step": 0.25, "num": 9}}, r"^times\.num: is unknown"),
        ({"quench_site": 6}, "quench_site"),
        ({"quench_site": -1}, "quench_site"),
        ({"quench_site": 1.0}, "quench_site"),
        ({"quench_h": "strong"}, "quench_h"),
        ({"observables": [5]}, r"observables\[0\]"),
        ({"observables": "y"}, "observables"),
        ({"split": {"X": [0, 1, 2], "Y": [2, 3, 4, 5], "Z": [2]}}, r"^split\.Z: is unknown"),
        ({"trials": 3}, "^trials: is unknown"),
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
        ({"times": {"start": 0, "stop": 1e300, "step": 1e-300}},
         r"^times: spans inf steps: the grid has no finite point count"),
        ({"observables": ["+ X²"]}, r"^observables\[0\]: bad Pauli token 'X²'$"),
        ({"observables": ["+ X5", "+ X٣"]}, r"^observables\[1\]: bad Pauli token 'X٣'$"),
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
        with pytest.raises(ShieldlabError, match="^quench_site: is unknown or does not apply"):
            run_quench_experiment(cfg)
        del cfg["quench_site"]
        with pytest.raises(ShieldlabError, match="^quench_h: is unknown or does not apply"):
            run_quench_experiment(cfg)
        del cfg["quench_h"]
        with pytest.raises(ShieldlabError, match="^post: leaves the pre lattice unchanged"):
            run_quench_experiment(cfg)

    @pytest.mark.parametrize("edit, message", [
        ({"quench_h": 0.5}, "quench_site: leaves the pre lattice unchanged, so nothing is "
                            "driven: the run would have no data"),
        ({"quench_site": 2, "quench_h": 0.0}, "quench_site: leaves the pre lattice unchanged"),
    ], ids=["same_field_in_A", "same_field_on_S"])
    def test_quench_that_drives_nothing_is_refused(self, edit, message):
        # with post = pre the run passed at max_variation_shielded 1.1e-16
        with pytest.raises(ShieldlabError, match="^" + re.escape(message)):
            run_quench_experiment({**self.quench_config(), **edit})

    def test_without_a_split_an_unchanged_post_still_runs(self):
        cfg = {**self.quench_config(), "quench_h": 0.5}
        del cfg["split"]
        assert run_quench_experiment(cfg).metadata["verdict"] == {"status": "pass"}

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

    def test_largest_seed_runs(self):
        table = run_dual_check({"n_sites": 4, "trials": 2, "seed": 2 ** 64 - 1})
        assert table.metadata["seed"] == 2 ** 64 - 1
        assert table.metadata["verdict"]["status"] == "pass"

    def test_null_field_reports_two_components(self):
        cfg = {"n_sites": 5, "trials": 2, "seed": 2, "zero_field_site": 2}
        table = run_dual_check(cfg)
        assert all(row[4] == 2 for row in table.rows)

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
        ({"J_range": [-1e308, 1e308]},
         r"^J_range: has a width high - low that overflows, from -1e\+308 to 1e\+308$"),
        ({"h_range": [1.0, -1.0]}, r"^h_range: has low 1\.0 above high -1\.0$"),
        ({"seed": 2 ** 64}, r"^seed: must be an integer in 0\.\.2\*\*64 - 1"),
        ({"trails": 0}, "^trails: is unknown"),
        ({"chain": lattice_json(make_chain(3, [2.0, 3.0], [0.1, 0.2, 0.3]))},
         r"^chain: is unknown or does not apply"),
        ({"n_sites": 13}, r"^n_sites: dense realization of 13 sites exceeds the cap of 12"),
    ])
    def test_bad_input_names_the_key(self, extra, key):
        with pytest.raises(ShieldlabError, match=key):
            run_dual_check({"n_sites": 8, "trials": 2, "seed": 2, **extra})

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
        cfg_path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
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
         "lattice.index_base: must be 0 or 1, got 2"),
        (lambda cfg: cfg["lattice"]["edges"].append([6, 7, 1.0]),
         "lattice.edges[5]: must be a site in 1..6, got 7"),
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

    @pytest.mark.parametrize("experiment, cfg, message", [
        ("conjecture", {"trials": 1},
         "trials: is 1, and one trial cannot vary: the run would have no data"),
        ("quench", {"post": lattice_json(make_chain(6, [1.0] * 5,
                                                    [0.5, 0.5, 0.0, 0.5, 0.5, 0.5]))},
         "post: leaves the pre lattice unchanged, so nothing is driven: "
         "the run would have no data"),
        ("verify-shielding", {"betas": [0]},
         "betas: holds no beta above 0, where every state is maximally mixed: "
         "the run would have no data"),
    ], ids=["conjecture_one_trial", "quench_post_is_pre", "control_at_beta_zero"])
    def test_run_that_cannot_fail_exits_one(self, tmp_path, experiment, cfg, message):
        # each passed before it was refused, on no data; the shipped control
        # at betas [0] reported "control did not violate shielding"
        base = {
            "conjecture": lambda: triangle_config("ground"),
            "quench": lambda: {"pre": cfg["post"], "times": [0.0, 1.0],
                               "split": {"X": [0, 1, 2], "Y": [2, 3, 4, 5]}},
            "verify-shielding": lambda: shipped_config("verify_shielding_control"),
        }[experiment]()
        proc = self.run_cli(tmp_path, experiment, {**base, **cfg})
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, edit, message", [
        ("verify-shielding", lambda cfg: cfg.update(trails=2),
         "error: trails: is unknown or does not apply"),
        ("verify-shielding", lambda cfg: cfg["lattice"].update(gg=1),
         "error: lattice.gg: is unknown or does not apply"),
        ("verify-shielding", lambda cfg: cfg["split"].update(Z=[1]),
         "error: split.Z: is unknown or does not apply"),
        ("verify-shielding", lambda cfg: cfg.pop("lattice"), "error: lattice: is missing"),
        ("counterexample", lambda cfg: cfg.update(
            h1_grid={"start": 0.0, "stop": 1.0, "step": 0.5, "num": 3}),
         "error: h1_grid.num: is unknown or does not apply"),
        ("quench", lambda cfg: cfg.update(post=cfg["pre"]),
         "error: quench_site: is unknown or does not apply"),
        ("dual-check", lambda cfg: cfg.update(chain={"n_sites": 3}),
         "error: chain: is unknown or does not apply"),
    ])
    def test_unread_key_exits_one_with_its_path(self, tmp_path, experiment, edit,
                                                 message):
        lat = make_chain(3, [1.0, 1.0], [0.4, 0.0, 0.4])
        cfg = {
            "verify-shielding": chain_config(trials=2),
            "counterexample": {"betas": [1.0]},
            "quench": {"pre": lattice_json(lat), "quench_site": 0, "quench_h": -1.0},
            "dual-check": {"n_sites": 3, "trials": 1},
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
         "error: betas[0]: must be a finite number"),
        ("counterexample", lambda cfg: cfg.update(h4=10 ** 400),
         "error: h4: must be a finite number, got an integer too large for a float\n"),
        ("quench", lambda cfg: cfg.update(quench_h=10 ** 400),
         "error: quench_h: must be a finite number, got an integer too large for a float\n"),
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

    LONG = "1" + "0" * 5000  # past the interpreter's 4300-digit int parsing limit

    @pytest.mark.parametrize("experiment, text, message", [
        ("counterexample", '{"h4": %s}' % LONG,
         "h4: must be a finite number, got an integer of 5001 digits"),
        ("counterexample", '{"betas": [1, -%s]}' % LONG,
         "betas[1]: must be a finite number >= 0 (the series takes no beta = inf), "
         "got an integer of 5001 digits"),
        ("dual-check", '{"seed": %s}' % LONG,
         "seed: must be an integer in 0..2**64 - 1, got an integer of 5001 digits"),
        ("verify-shielding", '{"lattice": %s}' % LONG,
         "lattice: must be a JSON object, got an integer of 5001 digits"),
        ("verify-shielding", LONG, "config must be a JSON object, got an integer of 5001 digits"),
    ], ids=["h4", "beta", "seed", "lattice", "config"])
    def test_over_long_integer_literal_exits_one_with_its_path(self, tmp_path, experiment,
                                                               text, message):
        # json would refuse it with the interpreter's advice to raise its limit
        proc = self.run_cli(tmp_path, experiment, text)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("betas, message", SERIES_REFUSALS)
    def test_beta_the_series_cannot_sum_exits_one_with_its_key(self, tmp_path, betas,
                                                               message):
        proc = self.run_cli(tmp_path, "counterexample", {"betas": betas})
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = chain_config(trials=2)
        cfg["kind"] = "quench"
        proc = self.run_cli(tmp_path, "verify-shielding", cfg)
        assert proc.returncode == 1
