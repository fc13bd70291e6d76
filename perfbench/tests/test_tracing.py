"""Self-time and per-layer arithmetic on synthetic span trees."""

import pytest

import tracing


def span(name, start, end, parent=-1, error=False, attrs=None, cpu=None):
    return {"name": name, "start": start, "end": end,
            "cpu_start": 0.0, "cpu_end": cpu if cpu is not None else end - start,
            "parent": parent, "error": error, "attrs": attrs, "run_id": 0}


def tree():
    return [
        span("cli", 0.0, 10.0),                                   # 0
        span("experiments", 1.0, 9.0, parent=0),                  # 1
        span("thermal.state", 2.0, 6.0, parent=1),                # 2
        span("thermal.state", 2.5, 5.5, parent=2),                # 3 gibbs inside thermal_state
        span("trace.probe", 2.6, 2.8, parent=3),                  # 4 hashing before eig
        span("thermal.eig", 3.0, 5.0, parent=3, cpu=3.5,
             attrs={"dim": 8, "complex": True, "hash": "a"}),     # 5
        span("thermal.eig", 6.5, 7.0, parent=1, cpu=0.5,
             attrs={"dim": 4, "complex": False, "hash": "a"}),    # 6
        span("tables.emit", 9.2, 9.6, parent=0, attrs={"bytes": 123}),  # 7
    ]


def test_self_time_is_span_minus_direct_children():
    selfs = tracing.self_times(tree())
    assert selfs == pytest.approx([
        10.0 - 8.0 - 0.4,        # cli: experiments and emit
        8.0 - 4.0 - 0.5,         # experiments: thermal_state and the second eig
        4.0 - 3.0,               # thermal_state: gibbs
        3.0 - 0.2 - 2.0,         # gibbs: the probe and the eig
        0.2, 2.0, 0.5, 0.4,
    ])


def test_self_times_sum_to_root_duration():
    assert sum(tracing.self_times(tree())) == pytest.approx(10.0)


def test_layer_metrics_counts_entries_not_nested_calls():
    m = tracing.layer_metrics(tree())
    assert m["thermal.state.calls"] == 1
    assert m["thermal.state.self_s"] == pytest.approx(1.0 + 0.8)
    assert m["thermal.eig.calls"] == 2
    assert m["thermal.eig.unique_frac"] == pytest.approx(0.5)
    assert m["thermal.eig.calls_complex"] == 1
    assert m["thermal.eig.max_dim"] == 8
    assert m["thermal.eig.cpu_s"] == pytest.approx(4.0)
    assert m["thermal.eig.gflop_computed"] == pytest.approx(
        (9 * 8**3 * 4 + 9 * 4**3) / 1e9)
    assert m["trace.probe_s"] == pytest.approx(0.2)
    assert m["tables.emit.bytes"] == 123
    assert m["cli.calls"] == 1 and m["experiments.calls"] == 1
    # untouched groups still report, as zero
    assert m["pauli.apply.calls"] == 0
    assert m["hamiltonian.to_dense.unique_frac"] == 0


def test_errors_count_exceptions_leaving_a_layer_once():
    spans = [
        span("cli", 0.0, 4.0, error=False),
        span("experiments", 0.5, 3.5, parent=0, error=True),
        span("thermal.state", 1.0, 3.0, parent=1, error=True),
        span("thermal.eig", 1.5, 2.5, parent=2, error=True,
             attrs={"dim": 2, "complex": False, "hash": "x"}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["thermal.errors"] == 1      # left thermal once, through thermal_state
    assert m["experiments.errors"] == 1  # then left the runner, caught in cli.main
    assert m["cli.errors"] == 0
