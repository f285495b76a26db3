"""Which program functions are traced, the counts taken at them, and the
per-layer metrics derived from the spans.

Layers are the package's modules.  Every public module-level function of a
layer is wrapped, plus the propagator methods of ``kernels`` that do the
solver's numeric work, plus ``splu`` as ``kernels`` binds it, so that matrix
factorisations are counted.  Span names are ``<layer>.<function>``; the
command-line entry point is named per subcommand (``cli.main.kernel-robin``).
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from typing import Dict, List

from tracing import Installation, Tracer, install, span_totals
from workloads import effective_samples

LAYERS = ("shesolver", "kernels", "stationary", "harness", "treealg", "cli")
SUBCOMMANDS = ("verify-algebra", "kernel", "constant-a", "simulate",
               "sample-stationary", "experiment")
CN_STEP = ("kernels.CrankNicolson.step", "kernels.CrankNicolson.step_with_forcing")
# Counts fixed by a workload's sizes; they must repeat exactly at one seed.
EXACT = ("path_steps", "snapshot_bytes", "cn_step.calls", "cn_step.bytes_computed",
         "splu.calls", "pcn.steps", "brownian_half.calls", "rn_log_weight.calls",
         "artifact_bytes")


def _she_probe(count, arguments, result) -> None:
    for res in result if isinstance(result, tuple) else (result,):
        cfg = res.config
        count("paths", cfg.n_paths)
        count("path_steps", cfg.n_paths * cfg.n_steps)
        count("valid_paths", int((~res.positivity_lost).sum()))
        count("snapshot_bytes", sum(a.nbytes for a in res.snapshots.values()))


def _cn_probe(count, arguments, result) -> None:
    # bytes read (state, forcing) plus bytes written (new state)
    moved = arguments["z"].nbytes + result.nbytes
    if "forcing" in arguments:
        moved += arguments["forcing"].nbytes
    count("cn_step.bytes_computed", moved)


def _mcmc_probe(count, arguments, result) -> None:
    cfg = result.config
    count("pcn.steps", cfg.chain_length)
    count("pcn.accepted", round(result.acceptance_rate * cfg.chain_length))
    count("pcn.ess", effective_samples(result))


def _is_probe(count, arguments, result) -> None:
    count("is.ess", result["ess"])
    count("is.paths", arguments["n_samples"])


def _cli_namer(args, kwargs) -> str:
    argv = [str(a) for a in (args[0] if args else kwargs.get("argv") or ())]
    command = next((a for a in argv if a in SUBCOMMANDS), "unknown")
    if command == "kernel" and "--kind" in argv:
        command += "-" + argv[argv.index("--kind") + 1]
    return f"cli.main.{command}"


PROBES = {
    "shesolver.simulate_she": _she_probe,
    "stationary.sample_stationary_mcmc": _mcmc_probe,
    "stationary.importance_sampling_moments": _is_probe,
}


def layer_targets():
    """(functions, methods) to wrap, keyed by span name."""
    functions = {}
    for layer in LAYERS:
        module = importlib.import_module(f"openkpz.{layer}")
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith(module.__name__)):
                continue
            name = f"{layer}.{attr}"
            namer = _cli_namer if name == "cli.main" else None
            functions[name] = (obj, PROBES.get(name), namer)
    kernels = importlib.import_module("openkpz.kernels")
    functions["kernels.splu"] = (kernels.splu, None, None)
    methods = {
        "kernels.CrankNicolson.step": (kernels.CrankNicolson, "step", _cn_probe),
        "kernels.CrankNicolson.step_with_forcing": (
            kernels.CrankNicolson, "step_with_forcing", _cn_probe),
        "kernels.CrankNicolson.advance": (kernels.CrankNicolson, "advance", None),
        "kernels.RannacherPropagator.advance": (kernels.RannacherPropagator, "advance", None),
    }
    return functions, methods


def install_layers(tracer: Tracer) -> Installation:
    functions, methods = layer_targets()
    return install(tracer, functions, methods)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no such work in the operation."""
    return num / den if den else 0.0


def op_metrics(totals: Dict[str, Dict[str, float]], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced operation."""

    def s(name):
        return totals.get(name, {}).get("s", 0.0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    she_s = s("shesolver.simulate_she")
    mcmc_s = s("stationary.sample_stationary_mcmc")
    cn_calls = sum(calls(n) for n in CN_STEP)
    cn_s = sum(s(n) for n in CN_STEP)
    out = {
        "simulate_she.s": she_s,
        "simulate_she.self_s": self_s("shesolver.simulate_she"),
        "path_steps": counts.get("path_steps", 0),
        "path_steps_per_s": _ratio(counts.get("path_steps", 0), she_s),
        "valid_path_ratio": _ratio(counts.get("valid_paths", 0), counts.get("paths", 0)),
        "snapshot_bytes": counts.get("snapshot_bytes", 0),
        "cn_step.calls": cn_calls,
        "cn_step.s": cn_s,
        "cn_step.us_per_call": 1e6 * _ratio(cn_s, cn_calls),
        "cn_step.bytes_computed": counts.get("cn_step.bytes_computed", 0),
        "splu.calls": calls("kernels.splu"),
        "robin_kernel.s": s("kernels.robin_kernel"),
        "constant_a.s": s("kernels.constant_a"),
        "neumann_kernel.s": s("kernels.neumann_kernel"),
        "sample_stationary_mcmc.s": mcmc_s,
        "pcn.steps": counts.get("pcn.steps", 0),
        "pcn.us_per_step": 1e6 * _ratio(mcmc_s, counts.get("pcn.steps", 0)),
        "pcn.acceptance": _ratio(counts.get("pcn.accepted", 0), counts.get("pcn.steps", 0)),
        "ess_per_s": _ratio(counts.get("pcn.ess", 0), mcmc_s),
        "brownian_half.calls": calls("stationary.brownian_half"),
        "rn_log_weight.calls": calls("stationary.rn_log_weight"),
        "importance_sampling_moments.s": s("stationary.importance_sampling_moments"),
        "is.ess_ratio": _ratio(counts.get("is.ess", 0), counts.get("is.paths", 0)),
        "sample_bm_drift.s": s("stationary.sample_bm_drift"),
        "ergodic_average.self_s": self_s("harness.ergodic_average"),
        "coupling_experiment.self_s": self_s("harness.coupling_experiment"),
        "verify_golden_tables.s": s("treealg.verify_golden_tables"),
        "renorm_constants.s": s("treealg.renorm_constants"),
        "check_structure_group.s": s("treealg.check_structure_group"),
        "main.verify-algebra.s": s("cli.main.verify-algebra"),
        "main.constant-a.s": s("cli.main.constant-a"),
        "main.kernel-neumann.s": s("cli.main.kernel-neumann"),
        "main.kernel-robin.s": s("cli.main.kernel-robin"),
        "artifact_bytes": counts.get("artifact_bytes", 0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in totals.items() if name.split(".")[0] == layer
        )
    return out


def active_layers(totals: Dict[str, Dict[str, float]]) -> List[str]:
    """Layers with at least one span in an operation."""
    return sorted({name.split(".")[0] for name, entry in totals.items() if entry["calls"]})


def run_metrics(tracer: Tracer, traced_ops: List[int]) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    Times and ratios are medians over the traced operations.  The ``EXACT``
    counts come from the first traced operation, so that they repeat exactly
    for a given seed however many operations the run fits in.
    """
    totals = span_totals(tracer.spans)
    per_op = [op_metrics(totals.get(op, {}), tracer.counts.get(op, {})) for op in traced_ops]
    return {
        name: (per_op[0][name] if name in EXACT
               else statistics.median(m[name] for m in per_op))
        for name in per_op[0]
    }
