"""One workload run in a fresh process: warm up, then operate for the measured phase.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT_JSON SPANS_JSON

``run.py`` starts this with the openkpz sources first on ``PYTHONPATH`` and
reads RESULT_JSON when it exits.  Operation 0 warms caches and lazy imports
and is gated but not timed.  Later operations run until SECONDS have passed
(at least ``MIN_OPS``), each right after a timed ``speed_probe``.  With
TRACE 1 the layers are wrapped, odd operations are traced and even ones are
not, so one run measures its own tracing overhead; the spans go to
SPANS_JSON.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

from layers import active_layers, install_layers, run_metrics
from tracing import Tracer, span_totals
from workloads import WORKLOADS, Gate

MIN_OPS = 3
_PROBE_BANDS = np.array([[0.0] + [-0.25] * 64, [1.5] * 65, [-0.25] * 64 + [0.0]])


def speed_probe() -> float:
    """Seconds taken by a fixed kernel that uses numpy and scipy but not openkpz.

    It mimics the solver's inner loop (Gaussian draws, a banded solve over
    512 right-hand sides, transposes) so that it slows down with the machine
    the way the workloads do; ``run.py`` divides operation times by it.
    """
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    z = np.ones((512, 65))
    for _ in range(80):
        eta = rng.standard_normal(z.shape)
        z = np.abs(solve_banded((1, 1), _PROBE_BANDS, (z + 0.01 * z * eta).T).T) + 0.5
    return time.perf_counter() - start


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False) -> tuple[dict, Tracer]:
    """Run one workload; returns the result record and the tracer."""
    workload = WORKLOADS[name](seed, tiny=tiny, workdir=workdir)
    tracer = Tracer()
    installed = install_layers(tracer) if trace else None
    ops = []

    def operate(index: int, traced: bool) -> None:
        gc.collect()  # so that one operation's garbage does not raise the next one's peak
        probe = speed_probe()
        tracer.op, tracer.enabled = index, traced
        start = time.perf_counter()
        try:
            res = workload.run_op(index)
        except Exception:  # a crashed operation is a failed gate, not a crashed run
            detail = traceback.format_exc()
            ops.append({"index": index, "traced": traced, "gates": [Gate("exception", False, detail)]})
            return
        finally:
            tracer.enabled = False
        wall = time.perf_counter() - start
        if traced:
            for key, value in res.counts.items():
                tracer.counts[index][key] += value
        ops.append({"index": index, "traced": traced, "wall_s": wall, "probe_s": probe,
                    "gates": res.gates})

    try:
        operate(0, False)
        start = time.perf_counter()
        index = 1
        while index <= MIN_OPS or time.perf_counter() - start < seconds:
            operate(index, trace and index % 2 == 1)
            index += 1
    finally:
        if installed is not None:
            installed.remove()

    gates = [g for op in ops for g in op["gates"]]
    record = {
        "attempted": len(gates),
        "failed": sum(not g.ok for g in gates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [dict(op, gates=[vars(g) for g in op["gates"]]) for op in ops],
    }
    timed = [op for op in ops if op["index"] > 0 and "wall_s" in op]
    traced_ops = [op["index"] for op in timed if op["traced"]]
    if trace and traced_ops:
        per_layer = run_metrics(tracer, traced_ops)
        plain = [op["wall_s"] for op in timed if not op["traced"]]
        per_layer["trace.overhead"] = (
            statistics.median(op["wall_s"] for op in timed if op["traced"])
            / statistics.median(plain) - 1.0 if plain else 0.0
        )
        totals = span_totals(tracer.spans)
        record["per_layer"] = per_layer
        record["active_layers"] = {op: active_layers(totals.get(op, {})) for op in traced_ops}
    return record, tracer


def main(argv) -> int:
    name, seed, seconds, trace, workdir, result_path, spans_path = argv
    import openkpz

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(openkpz.__file__).resolve().parent.parent != src:
        print(f"openkpz imported from {openkpz.__file__}, not from {src}", file=sys.stderr)
        return 2
    record, tracer = run(name, int(seed), float(seconds), trace == "1", Path(workdir))
    Path(result_path).write_text(json.dumps(record))
    if trace == "1":
        Path(spans_path).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
