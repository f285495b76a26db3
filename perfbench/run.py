"""Run one workload of the openkpz benchmark and print its metrics.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 10 --trace 0

Run from anywhere; the program measured is the ``src/`` tree beside this
directory.  Set-up time is measured in fresh interpreters, then one worker
process runs the workload (see ``worker.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A full record, with the run
environment and every gate's verdict, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Seconds the worker's speed probe takes on the 2-vCPU machine the benchmark
# was tuned on, when that machine runs at its faster speed.
PROBE_REFERENCE_S = 0.09
WORKER_TIMEOUT_S = 170
# One BLAS/OpenMP thread per process.  With one per core (2 on the 2-vCPU
# machine the benchmark was tuned on), idle OpenBLAS threads spin on the
# sibling vCPU: the ensemble step got slower (2.3-3.2 s against 2.0-2.4 s
# per operation) and the pCN loop switched between 0.5 and 1.1 s per chain.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_seconds(modules, env) -> list[float]:
    """Wall time of fresh interpreters that import the workload's modules."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)],
                       env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "openkpz" / "__init__.py").is_file():
        print(f"perfbench: no openkpz sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    caps = {var: str(THREAD_CAP) for var in THREAD_VARS}
    env = dict(os.environ, **caps)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = setup_seconds(workload.modules, env)
        result_path = workdir / "result.json"
        spans_path = OUT / f"{stem}.spans.json"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(workdir), str(result_path), str(spans_path)],
            env=env, check=True, timeout=WORKER_TIMEOUT_S, stdout=sys.stderr,
        )
        record = json.loads(result_path.read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [op for op in record["ops"] if op["index"] > 0 and "wall_s" in op]
    plain = [op for op in timed if not op["traced"]]
    walls = [op["wall_s"] for op in plain]
    q1, wall, q3 = quartiles(walls)
    probe = statistics.median(op["probe_s"] for op in plain)
    measured = {
        "wall_norm_s": wall * PROBE_REFERENCE_S / probe,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    if args.trace:
        measured = record["per_layer"]
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    environment = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
        "nproc": nproc,
        "thread_caps": caps,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "git_commit": git_commit(),
    }
    failed_ratio = record["failed"] / record["attempted"]
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"environment": environment, "metrics": metrics, "setup_s": setup,
         "failed_ratio": failed_ratio, **record}, indent=1))

    print(f"{args.workload} seed {args.seed}: {record['attempted']} gated calls, "
          f"{record['failed']} failed (failed_ratio {failed_ratio:g})")
    print(f"wall_s median {wall:.4f} s, quartiles {q1:.4f}-{q3:.4f} s over {len(walls)} "
          f"untraced operations; speed probe median {probe:.4f} s; "
          f"setup_s runs {', '.join(f'{s:.3f}' for s in setup)}")
    for op in record["ops"]:
        for gate in op["gates"]:
            if not gate["ok"]:
                print(f"FAILED op {op['index']} {gate['label']}: {gate['detail']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print("environment " + json.dumps(environment))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
