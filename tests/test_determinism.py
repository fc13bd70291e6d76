"""CLI runs in separate processes: BLAS thread counts move values only in the
last bits, and a rerun at the same thread count repeats byte for byte."""

import csv
import io
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
    "counterexample": ("counterexample",
                       {"magnetization_series", "magnetization_ED", "abs_delta"}),
    "dual_check": ("dual-check", {"hamiltonian_residual", "algebra_residual"}),
    "quench_chain12": ("quench", {"value"}),
}


def run_cli(out: Path, name: str, threads: int) -> tuple[bytes, bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "shieldlab.cli", CONFIGS[name][0],
         "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    table = out / f"{CONFIGS[name][0]}.csv"
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
