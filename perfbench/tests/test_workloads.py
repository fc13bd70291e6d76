"""Workload generators are pure functions of (seed, index)."""

import json
from pathlib import Path

import pytest

import run
from workloads import GENERATORS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def dump(job):
    return json.dumps([(inv.experiment, inv.config) for inv in job.invocations],
                      sort_keys=True)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_configs(name):
    gen = GENERATORS[name]
    assert dump(gen(7, 3)) == dump(gen(7, 3))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_seed_and_index_change_configs(name):
    gen = GENERATORS[name]
    assert dump(gen(7, 3)) != dump(gen(8, 3))
    assert dump(gen(7, 3)) != dump(gen(7, 4))


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(GENERATORS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER_METRICS
