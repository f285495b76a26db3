"""Unified command line: verify-algebra | kernel | constant-a | simulate |
sample-stationary | experiment {stationarity, ergodic, coupling}.

Options come from an INI file section ([experiment.<name>] per experiment)
overridden by flags, and one reader parses both, so a bad value is the same
configuration error from either; a flag or key that no run of the command
reads is rejected.  Every --flag but --help takes the next token as its value
("--u -2e-1").  Every command, verify-algebra included, checks the shared
flags: a negative seed, or a config file that cannot be read or parsed or
whose section names no command, is a configuration error.  Every artifact
embeds the options its run read and the seed, and no timestamps, so a rerun
with the same seed is byte-identical.  Exit codes: 0 success, 1 verification
mismatch, 2 configuration error, 3 numerical failure (such as a path that
lost positivity).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from itertools import repeat
from pathlib import Path
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from openkpz.grid import default_dt, grid_size, snap_time
from openkpz.stationary import McmcConfig

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Per INI section (section experiment.<name> is command "experiment <name>"):
# option -> default.  Each option is an INI key of that name and a flag
# --the-name, both read as the default's type.  The master seed is shared.  The harness
# experiments have no defaults of their own: their only defaults are here.
OPTIONS: Dict[str, Dict] = {
    "verify-algebra": {},
    "kernel": {"kind": "neumann", "t": 0.1, "grid": 32, "u": 0.5, "v": 0.5},
    "constant-a": {"time_radius": 1.0, "space_radius": 1.0, "cells": 256},
    "simulate": {
        "u": 0.0,
        "v": 0.0,
        "dx": 1.0 / 64,
        "t_final": 1.0,
        "paths": 100,
        "save_times": "",
    },
    "sample-stationary": {
        "u": 1.0,
        "v": 1.0,
        "dx": 1.0 / 64,
        "n_samples": 1000,
        "rho": McmcConfig.rho,
        "burn_in": McmcConfig.burn_in,
        "thinning": McmcConfig.thinning,
        "normalization_samples": 20000,
    },
    "experiment.stationarity": {"u": 0.5, "v": -0.5, "n_samples": 1000, "t_final": 1.0,
                                "dx": 1.0 / 64},
    "experiment.ergodic": {"u": 0.5, "v": -0.5, "functional": "endpoint", "t_final": 20.0,
                           "dx": 1.0 / 32},
    "experiment.coupling": {"u": 0.5, "v": -0.5, "t_final": 1.0, "dx": 1.0 / 64},
}
# Per kernel kind and sampler: the options it reads, which with the seed are
# all that its artifacts record; an option set for another variant is rejected.
READS = {
    "neumann": ("kind", "t", "grid"),
    "robin": ("kind", "t", "grid", "u", "v"),
    "gauss": ("kind", "t", "grid"),
    "brownian-with-drift": ("u", "v", "dx", "n_samples"),
    "pcn-mcmc": tuple(OPTIONS["sample-stationary"]),
}
CHOICES = {"kind": ("neumann", "robin", "gauss")}


class ConfigError(Exception):
    pass


def _parse(kind: type, raw: str, where: str):
    """``kind(raw)``; a value that does not parse is a ConfigError naming ``where``."""
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} {raw!r} is not {expected}") from None


def _resolve(args: argparse.Namespace, section: str) -> Tuple[Dict, Dict[str, str]]:
    """Options (defaults < config-file section < flags), and where each key set was set;
    unknown keys, and a key that a section spells both ways, are rejected.  Each INI
    value and flag set is text, read once by ``_parse`` and the ``CHOICES`` check."""
    defaults = {**OPTIONS[section], "seed": 0}
    given = []  # (key, text, where it was set); a later entry wins
    if path := getattr(args, "config", None):
        # "" names the defaults section, and no header can: [DEFAULT] names no command
        ini = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            if not ini.read(path):
                raise ConfigError(f"cannot read config file {path!r}")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None
        for name in ini.sections():
            if name not in OPTIONS:
                raise ConfigError(f"section [{name}] of config file {path!r} names no command")
        spelled: Dict[str, str] = {}  # key -> its spelling in the section
        for spelling, raw in ini.items(section) if ini.has_section(section) else ():
            key = spelling.replace("-", "_")
            if key not in defaults:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            if key in spelled:
                raise ConfigError(f"section [{section}] sets {key!r} twice, as "
                                  f"{spelled[key]!r} and as {spelling!r}")
            spelled[key] = spelling
            given.append((key, raw, f"[{section}] {key} ="))
    given += [(key, getattr(args, key), "--" + key.replace("_", "-"))
              for key in defaults if getattr(args, key, None) is not None]
    resolved = dict(defaults)
    for key, raw, where in given:
        resolved[key] = _parse(type(defaults[key]), raw, where)
        if key in CHOICES and resolved[key] not in CHOICES[key]:
            raise ConfigError(f"{where} {raw!r}; choose from {CHOICES[key]}")
    if resolved["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer (seed={resolved['seed']})")
    return resolved, {key: where for key, _, where in given}


def _read_by(variant: str, resolved: Dict, explicit: Dict[str, str]) -> Dict:
    """The options ``variant`` reads and the seed; setting any other option is an error."""
    unread = sorted(explicit.keys() - {*READS[variant], "seed"})
    if unread:
        raise ConfigError(f"the {variant} variant does not read {', '.join(map(repr, unread))}")
    return {key: resolved[key] for key in (*READS[variant], "seed")}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(getattr(args, "out_dir", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: Dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_line(fields: Iterable) -> str:
    """A row as the csv module's default dialect writes it: floats by repr, "\\r\\n" after.
    No field the commands write holds a comma, quote or line break, so none is quoted."""
    cells = (float.__repr__(f) if isinstance(f, float) else str(f) for f in fields)
    return ",".join(cells) + "\r\n"


def _write_csv(path: Path, resolved: Dict, columns: Sequence[str], body: Iterable[str]) -> None:
    """A ``# config:`` line, then the header and ``body``: text in whole rows."""
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(resolved, sort_keys=True) + "\n")
        fh.write(_csv_line(columns))
        fh.writelines(body)


# --- subcommands -------------------------------------------------------------


def cmd_verify_algebra(args) -> int:
    from openkpz.treealg import verify_golden_tables

    _resolve(args, "verify-algebra")
    report = verify_golden_tables()
    print(report)
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def cmd_kernel(args) -> int:
    from openkpz import kernels

    resolved, explicit = _resolve(args, "kernel")
    kind = resolved["kind"]
    resolved = _read_by(kind, resolved, explicit)
    t = resolved["t"]
    n = resolved["grid"]
    if n < 1:
        raise ConfigError(f"--grid must be at least 1 (n={n})")
    xs = np.linspace(0.0, 1.0, n + 1)
    if kind == "gauss":
        values, ys, bound = kernels.gauss_kernel(t, xs)[:, None], [0.0], 0.0
    elif kind == "neumann":
        values, bound = kernels.neumann_kernel(t, xs[:, None], xs[None, :])
        ys = xs.tolist()
    else:
        values = kernels.robin_kernel(t, resolved["u"], resolved["v"], n=n)
        ys, bound = xs.tolist(), ""
    # A row is (t, x, y, value, bound) and only the value is new: the rest is
    # formatted once, and the body is made one grid row of lines at a time.
    cells, tail = [f"{y!r}," for y in ys], "," + _csv_line([bound])
    body = ("".join(f"{head}{y}{value!r}{tail}" for y, value in zip(cells, row.tolist()))
            for head, row in zip((f"{t!r},{x!r}," for x in xs.tolist()), values))
    path = _out_dir(args) / f"kernel_{kind}.csv"
    _write_csv(path, resolved, ("t", "x", "y", "value", "error_bound"), body)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_constant_a(args) -> int:
    from openkpz import kernels

    resolved, _ = _resolve(args, "constant-a")
    rho = kernels.Mollifier(resolved["time_radius"], resolved["space_radius"])
    value, error = kernels.constant_a(rho, n=resolved["cells"])
    payload = {
        "value": value,
        "error_estimate": error,
        "mollifier": {
            "time_radius": rho.time_radius,
            "space_radius": rho.space_radius,
            "profile": "(35/32)(1-z^2)^3 per dimension",
        },
        "config": resolved,
    }
    path = _out_dir(args) / "constant_a.json"
    _write_json(path, payload)
    print(f"a = {value:.12f} (error estimate {error:.2e}); wrote {path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from openkpz import shesolver

    resolved, explicit = _resolve(args, "simulate")
    dx = resolved["dx"]
    dt = default_dt(dx)
    t_final = snap_time(resolved["t_final"], dt)
    # a bad entry is "--save-times entry 'x'" from the flag, "[simulate] save_times = 'x'" from INI
    where = explicit.get("save_times", "")
    where += " entry" if where.startswith("--") else ""
    saves = tuple(snap_time(_parse(float, s, where), dt)
                  for s in map(str.strip, resolved["save_times"].split(",")) if s)
    n_paths = resolved["paths"]
    if n_paths < 2:
        raise ConfigError(f"--paths must be at least 2 for a variance (paths={n_paths})")
    cfg = shesolver.SimConfig(dx=dx, t_final=t_final, n_paths=n_paths,
                              seed=resolved["seed"], save_times=saves)
    params = shesolver.BoundaryParams(resolved["u"], resolved["v"])
    result = shesolver.simulate_she(np.ones(cfg.n + 1), params, cfg)
    result.kept(2)  # fewer than the 2 paths a variance needs is a numerical failure
    xs = np.linspace(0.0, 1.0, cfg.n + 1).tolist()
    rows = []
    for t in sorted(result.snapshots):
        z = result.valid(t)
        rows.extend(zip(repeat(t), xs, z.mean(axis=0).tolist(),
                        z.var(axis=0, ddof=1).tolist(), repeat(len(z))))
    path = _out_dir(args) / "simulate.csv"
    _write_csv(path, resolved, ("t", "x", "mean", "variance", "n_effective"),
               map(_csv_line, rows))
    print(f"wrote {path} (positivity exclusion rate {result.exclusion_rate:.4f})")
    return EXIT_OK


def cmd_sample_stationary(args) -> int:
    from openkpz import stationary

    resolved, explicit = _resolve(args, "sample-stationary")
    u, v, dx, seed = resolved["u"], resolved["v"], resolved["dx"], resolved["seed"]
    sampler = "brownian-with-drift" if stationary.exact_sampler(u, v) else "pcn-mcmc"
    resolved = _read_by(sampler, resolved, explicit)
    if sampler == "brownian-with-drift":
        samples = stationary.sample_bm_drift(u, dx, resolved["n_samples"], seed)
        sidecar = {"sampler": sampler, "config": resolved}
    else:
        chain = ("rho", "burn_in", "thinning", "n_samples")
        cfg = McmcConfig(seed=seed, **{key: resolved[key] for key in chain})
        z_est, z_se = stationary.estimate_normalization(
            u, v, dx, resolved["normalization_samples"], seed)
        result = stationary.sample_stationary_mcmc(u, v, cfg, dx)
        samples = result.samples
        sidecar = {
            "sampler": sampler,
            "acceptance_rate": result.acceptance_rate,
            "autocorr_time": result.autocorr_time,
            "normalization": {"estimate": z_est, "se": z_se},
            "warnings": list(result.warnings()),
            "config": resolved,
        }
    out = _out_dir(args)
    xs = np.linspace(0.0, 1.0, samples.shape[1])
    _write_csv(out / "stationary_samples.csv", resolved, [f"x={x:.6g}" for x in xs],
               map(_csv_line, samples.tolist()))
    _write_json(out / "stationary_meta.json", sidecar)
    print(f"wrote {out / 'stationary_samples.csv'} and sidecar")
    return EXIT_OK


def cmd_experiment(args) -> int:
    from openkpz import harness

    resolved, _ = _resolve(args, f"experiment.{args.name}")
    if args.name == "stationarity":
        report, = harness.stationarity_experiment(**resolved)
    elif args.name == "ergodic":
        report = harness.ergodic_average(**resolved)
    else:  # coupling
        x = np.linspace(0.0, 1.0, grid_size(resolved["dx"]) + 1)
        report = harness.coupling_experiment(h0_a=np.zeros_like(x), h0_b=np.sin(np.pi * x),
                                             **resolved)
    out = _out_dir(args)
    payload = dataclasses.asdict(report)
    payload["config"] = resolved
    _write_json(out / f"experiment_{args.name}.json", payload)
    stats = payload["statistics"]
    flat = []
    for key, value in sorted(stats.items()):
        if isinstance(value, dict):
            flat.extend((f"{key}.{k}", v) for k, v in sorted(value.items()))
        else:
            flat.append((key, value))
    _write_csv(out / f"experiment_{args.name}.csv", resolved, ("statistic", "value"),
               map(_csv_line, flat))
    verdict = {None: "exploratory", True: "pass", False: "fail"}[report.passed]
    print(f"experiment {args.name}: {verdict}; wrote {out / f'experiment_{args.name}.json'}")
    return EXIT_OK if report.passed in (True, None) else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    # Shared flags are accepted both before and after the subcommand.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="INI config file (section per subcommand)")
    common.add_argument("--seed", help="master seed (overrides config)")
    common.add_argument("--out-dir", help="artifact output directory")

    parser = argparse.ArgumentParser(
        prog="openkpz",
        description="Desk-scale laboratory for the open KPZ equation on [0,1].",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiment", parents=[common], help="statistical experiment with JSON report"
    ).add_subparsers(dest="name", required=True)
    helps = {
        "verify-algebra": "check the golden tables, structure-group laws and constants",
        "kernel": "emit kernel values as CSV",
        "constant-a": "quadrature of the boundary constant a",
        "simulate": "Monte Carlo SHE ensemble statistics",
        "sample-stationary": "stationary-measure samples",
    }
    for section, options in OPTIONS.items():
        command, _, name = section.partition(".")
        p = (experiments if name else sub).add_parser(
            name or command, parents=[common], help=helps.get(section)
        )
        for key in options:  # values are text here, read by _resolve
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           metavar="{%s}" % ",".join(CHOICES[key]) if key in CHOICES else None)
    return parser


COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "kernel": cmd_kernel,
    "constant-a": cmd_constant_a,
    "simulate": cmd_simulate,
    "sample-stationary": cmd_sample_stationary,
    "experiment": cmd_experiment,
}


def main(argv: Sequence[str] | None = None) -> int:
    # Every --flag but --help takes the next token as its value: "--u -2e-1" is "--u=-2e-1".
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        flag = tokens[-1] if tokens else ""
        if flag.startswith("--") and "=" not in flag and not "--help".startswith(flag):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
