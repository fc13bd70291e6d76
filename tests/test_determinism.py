"""CLI runs in separate processes: BLAS thread counts move values only in the
last bits, and a rerun at the same thread count repeats byte for byte.

``quench_chain12`` takes the free-fermion path; ``quench_chain10_y``, a chain
with y fields, takes the blocked path. ``verify_shielding_control``, whose
lattice has no zero field once its control field is set, is solved in the
sectors of a spin flip; its verdict fails by design, so it exits with 2."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# config name -> (experiment, its value columns)
CONFIGS = {
    "conjecture_patch9": ("conjecture", {"value"}),
    "verify_shielding_chain": ("verify-shielding", {"distance", "rho_variation"}),
    "verify_shielding_control": ("verify-shielding", {"distance", "rho_variation"}),
    "counterexample": ("counterexample",
                       {"magnetization_series", "magnetization_ED", "abs_delta"}),
    "dual_check": ("dual-check", {"hamiltonian_residual", "algebra_residual"}),
    "quench_chain12": ("quench", {"value"}),
    "quench_chain10_y": ("quench", {"value"}),
}
# configs whose verdict fails by design: the CLI exits with 2, not 0
FAILING = {"verify_shielding_control"}


def run_cli(out: Path, name: str, threads: int) -> tuple[bytes, bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    experiment = CONFIGS[name][0]
    proc = subprocess.run(
        [sys.executable, "-m", "shieldlab.cli", experiment,
         "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == (2 if name in FAILING else 0), proc.stderr
    table = out / f"{experiment}.csv"
    return table.read_bytes(), table.with_suffix(".csv.meta.json").read_bytes()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    return {(name, run): run_cli(root / name / run, name, threads)
            for name in CONFIGS
            for run, threads in (("one", 1), ("two", 2), ("two_again", 2))}


def rows(table: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(table.decode())))


def test_thread_count_moves_values_below_1e_12(runs):
    for name, (_, values) in CONFIGS.items():
        one, two = rows(runs[name, "one"][0]), rows(runs[name, "two"][0])
        assert len(one) == len(two) > 0
        for a, b in zip(one, two):
            assert {k: v for k, v in a.items() if k not in values} == \
                {k: v for k, v in b.items() if k not in values}
            assert all(abs(float(a[k]) - float(b[k])) <= 1e-12 for k in values)


def test_rerun_in_a_new_process_is_byte_identical(runs):
    for name in CONFIGS:
        assert runs[name, "two"] == runs[name, "two_again"]


def test_each_quench_path_is_covered(runs):
    for name, solver in (("quench_chain12", "free-fermion"), ("quench_chain10_y", "blocked")):
        for run in ("one", "two"):
            assert json.loads(runs[name, run][1])["solver"] == solver
