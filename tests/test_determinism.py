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
CONFIG = ROOT / "configs" / "conjecture_patch9.json"


def run_cli(out: Path, threads: int) -> tuple[bytes, bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "shieldlab.cli", "conjecture",
         "--config", str(CONFIG), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    table = out / "conjecture.csv"
    return table.read_bytes(), table.with_suffix(".csv.meta.json").read_bytes()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    return {name: run_cli(root / name, threads)
            for name, threads in (("one", 1), ("two", 2), ("two_again", 2))}


def rows(table: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(table.decode())))


def test_thread_count_moves_values_below_1e_12(runs):
    one, two = rows(runs["one"][0]), rows(runs["two"][0])
    assert len(one) == len(two) > 0
    for a, b in zip(one, two):
        assert {k: v for k, v in a.items() if k != "value"} == \
            {k: v for k, v in b.items() if k != "value"}
        assert abs(float(a["value"]) - float(b["value"])) <= 1e-12


def test_rerun_in_a_new_process_is_byte_identical(runs):
    assert runs["two"] == runs["two_again"]
