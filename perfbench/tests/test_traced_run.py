"""Traced children count the eigensolves the library's code implies.

Calls reach ``eig_hermitian`` through ``from .thermal import ...`` copies in
``dynamics`` and ``experiments`` as well as through ``thermal`` itself; a
tracer that patched only ``thermal.eig_hermitian`` would miss the quench's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from workloads import GENERATORS

HERE = Path(__file__).resolve().parents[1]
SRC = HERE.parent / "src"


def run_traced(tmp_path, calls):
    spans = tmp_path / "spans.json"
    argv = [sys.executable, "-s", str(HERE / "child.py"), "--src", str(SRC),
            "--trace", str(spans)]
    for k, (experiment, cfg) in enumerate(calls):
        config = tmp_path / f"config{k}.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        argv += [experiment, str(config), str(tmp_path / f"out{k}")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tracing.layer_metrics(json.loads(spans.read_text(encoding="utf-8")))


def chain(n, h):
    return {"n_sites": n, "index_base": 1,
            "edges": [[i, i + 1, 1.0] for i in range(1, n)], "h": h}


def test_quench_solves_pre_and_post_once_each(tmp_path):
    m = run_traced(tmp_path, [("quench", {
        "pre": chain(4, [0.5, 0.0, 0.5, 0.5]),
        "quench_site": 1, "quench_h": -2.0,
        "times": [0.0, 0.5, 1.0], "observables": "x",
    })])
    assert m["thermal.eig.calls"] == 2          # through dynamics' own binding
    assert m["thermal.eig.unique_frac"] == 1
    assert m["pauli.apply.calls"] == 3 * 4      # times x observables
    assert m["dynamics.evolve.calls"] == 1
    assert m["tables.emit.calls"] == 1 and m["tables.emit.bytes"] > 0


def test_shielding_solves_full_and_shielded_h_per_beta(tmp_path):
    trials, betas = 2, [1.0, 2.0]
    m = run_traced(tmp_path, [("verify-shielding", {
        "lattice": chain(4, [0.5, 0.0, 0.5, 0.5]),
        "split": {"X": [1, 2], "Y": [2, 3, 4]},
        "betas": betas, "trials": trials, "seed": 5,
    })])
    calls = 2 * trials * len(betas)
    assert m["thermal.eig.calls"] == calls      # through experiments' binding
    assert m["thermal.eig.unique_frac"] == pytest.approx((trials + 1) / calls)
    assert m["thermal.partial_trace.calls"] == trials * len(betas)
    assert m["hamiltonian.to_dense.builds"] == calls


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_workload_counts(tmp_path, name):
    job = GENERATORS[name](0, 0)
    m = run_traced(tmp_path, [(inv.experiment, inv.config) for inv in job.invocations])
    if name == "quench_chain":
        assert m["thermal.eig.calls"] == 2
        assert m["thermal.eig.max_dim"] == 2 ** workloads.QUENCH_SITES
    elif name == "shield_thermal_y":
        trials = workloads.SHIELD_TRIALS
        assert m["thermal.eig.calls"] == m["thermal.eig.calls_complex"] == 6 * trials
        assert m["thermal.eig.unique_frac"] == pytest.approx((trials + 1) / (6 * trials))
    elif name == "conjecture_ground":
        assert m["thermal.eig.calls"] == workloads.CONJECTURE_TRIALS
        assert m["thermal.eig.unique_frac"] == 1
    else:
        betas = len(workloads.DIAMOND_BETAS)
        assert m["thermal.eig.calls"] == betas * workloads.DIAMOND_N_H1
        assert m["thermal.eig.unique_frac"] == pytest.approx(1 / betas)
        assert m["hamiltonian.dual.calls"] == workloads.DUAL_TRIALS
    for layer in tracing.LAYERS:
        assert m[f"{layer}.errors"] == 0
