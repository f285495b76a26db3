"""The traced run reaches every layer a workload works in, and its counts repeat."""

import pytest

import layers
import worker
from tracing import Tracer
from workloads import WORKLOADS


def traced_run(name, tmp_path, seed=5):
    record, tracer = worker.run(name, seed, 0.0, True, tmp_path, tiny=True)
    return record, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layers_record_spans_and_counts_repeat(name, tmp_path):
    first, tracer = traced_run(name, tmp_path / "a")
    second, _ = traced_run(name, tmp_path / "b")
    assert first["failed"] == 0, first["ops"]
    for op, active in first["active_layers"].items():
        missing = set(WORKLOADS[name].layers) - set(active)
        assert not missing, f"op {op}: no spans from {sorted(missing)}"
    for count in layers.EXACT:
        assert first["per_layer"][count] == second["per_layer"][count], count
    # the spans are well formed: every span ends, parents precede children
    for index, (span, start, end, parent, op) in enumerate(tracer.spans):
        assert end >= start and parent < index


def test_names_are_wrapped_where_they_are_looked_up():
    from openkpz import cli, harness, kernels, shesolver

    originals = (shesolver.simulate_she, harness.simulate_she, cli.COMMANDS["kernel"],
                 kernels.splu, kernels.CrankNicolson.step)
    assert harness.simulate_she is shesolver.simulate_she
    installed = layers.install_layers(Tracer())
    try:
        assert harness.simulate_she is shesolver.simulate_she
        assert harness.simulate_she.__wrapped__ is originals[0]
        assert cli.COMMANDS["kernel"].__wrapped__ is originals[2]
        assert kernels.splu.__wrapped__ is originals[3]
        assert kernels.CrankNicolson.step.__wrapped__ is originals[4]
    finally:
        installed.remove()
    assert (shesolver.simulate_she, harness.simulate_she, cli.COMMANDS["kernel"],
            kernels.splu, kernels.CrankNicolson.step) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("a.inner", lambda: sum(range(10000)))

    def outer():
        return inner() + inner()

    outer = tracer.wrap("a.outer", outer)
    tracer.enabled = True
    outer()
    totals = layers.span_totals(tracer.spans)[0]
    assert totals["a.inner"]["calls"] == 2
    assert totals["a.outer"]["self_s"] == pytest.approx(
        totals["a.outer"]["s"] - totals["a.inner"]["s"])
