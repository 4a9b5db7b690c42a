"""Command-line experiment runner with CSV/JSON reports.

Configuration is INI-style text with one section per concern::

    [experiment]
    name = compare_decay

    [scenario]
    family = cluster_infinity
    alpha = 1.0
    n_modes = 10000
    orbit = ainv

    [bound]
    variant = infinity_smooth
    c = 0.45

    [grid]
    min = 10
    max = 10000
    points = 61
    spacing = log

Every run writes a CSV table with the exact header
``abscissa,measured,reference,ratio`` (12 significant digits, fixed row
order, byte-identical across repeated runs) and a JSON sidecar carrying
the full effective configuration, fitted slopes, and the pass/fail state
of the experiment's invariants.  Exit status: 0 when all invariants pass,
1 when an invariant fails or quadrature does not converge
(:class:`NonConvergenceError`), 2 on configuration or other runtime errors
(no files are written; runtime errors are reported with the package module
that raised them and their class name).

Precedence: command-line flags override config-file fields, which
override the ``INGHAM_RATES_TOL`` environment variable, which overrides
built-in defaults.  ``--seed`` is accepted but reserved: all computations
are deterministic.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .kernels import Kernel, bump_kernel, fudge_kernel, numeric_fourier, tent_kernel
from .quadrature import NonConvergenceError, QuadratureSpec
from .rate_functions import (
    MonotoneFunction,
    RateBound,
    VARIANTS,
    _VARIANTS,
    _admissible_c,
    make_bound,
    raw_bound_ck,
    raw_bound_smooth,
)
from .semigroup_lab import (
    ORBIT_KINDS,
    Scenario,
    cluster_infinity,
    cluster_zero,
    mixed_cluster,
    single_mode,
)
from .verify import (
    ExperimentReport,
    bound_table_report,
    check_asymptotic_regularity,
    check_mollifier_rate,
    check_parseval,
    compare_decay,
    kernel_check_report,
    parseval_report,
    raw_oracle_report,
)
# bound by name for bench/tracing.py, which wraps it in cli
from .verify import fit_loglog  # noqa: F401

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

_KERNELS = {"tent": tent_kernel, "fudge": fudge_kernel, "bump": bump_kernel}

# section -> key -> converter name; unknown sections and keys are rejected
_SCHEMA = {
    "experiment": {"name": "str"},
    "growth": {"family": "str", "alpha": "float", "value": "float"},
    "decay": {"family": "str", "alpha": "float", "value": "float"},
    "scenario": {
        "family": "str",
        "lambda_re": "float",
        "lambda_im": "float",
        "alpha": "float",
        "beta": "float",
        "n_modes": "int",
        "n_infinity": "int",
        "n_zero": "int",
        "omega": "float",
        "orbit": "str",
    },
    "kernel": {"name": "str"},
    "bound": {"variant": "str", "c": "float", "k": "int"},
    "grid": {"min": "float", "max": "float", "points": "int", "spacing": "str"},
    "r_sweep": {"values": "str", "t_max": "float"},
    "output": {"path": "str", "format": "str"},
    "tolerances": {"abs_tol": "float", "rel_tol": "float"},
}


class ConfigError(ValueError):
    """Raised with the complete list of configuration problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    """Validated experiment configuration with all defaults applied."""

    experiment: str
    sections: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]


@dataclass(frozen=True)
class Experiment:
    """One experiment of :data:`EXPERIMENTS`: all the CLI knows of it.

    ``grid`` holds the ``[grid]`` defaults (min, max, points, spacing), or
    None where ``[r_sweep]`` radii replace the grid; the section it does
    not read is refused.  With ``plateau`` a kernel whose transform is not
    1 near 0 is refused.  Variants outside ``variants`` are refused with
    ``variants_reason``.  With ``rate_sections`` the ``[growth]`` and
    ``[decay]`` sections the variant composes are required.
    """

    command: str
    sections: tuple
    grid: Optional[tuple]
    runner: Callable[[RunConfig], ExperimentReport]
    plateau: bool = False
    variants: tuple = VARIANTS
    variants_reason: str = ""
    rate_sections: bool = False


def _default_tolerances() -> dict:
    try:
        base = float(os.environ.get("INGHAM_RATES_TOL", "nan"))
    except ValueError:
        base = math.nan
    if 0.0 < base < math.inf:
        return {"abs_tol": base, "rel_tol": 10.0 * base}
    return {"abs_tol": 1e-10, "rel_tol": 1e-9}


def _convert(section: str, key: str, raw: str, errors: list):
    kind = _SCHEMA[section][key]
    if kind == "str":
        return raw.strip()
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (kind == "int" and value != int(value)):
        errors.append(f"[{section}] {key}={raw!r} is not a valid {kind}")
        return None
    return int(value) if kind == "int" else value


def _check_enum(cfg: dict, section: str, key: str, allowed, errors: list) -> None:
    val = cfg.get(section, {}).get(key)
    if val is not None and val not in allowed:
        errors.append(
            f"[{section}] {key}={val!r} must be one of {', '.join(allowed)}"
        )


def _validate_scenario(sc: dict, errors: list) -> None:
    family = sc.get("family")
    if family is None:
        errors.append("[scenario] family is required")
        return
    if family == "single_mode":
        if sc.get("lambda_re", -1.0) >= 0.0:
            errors.append("[scenario] lambda_re must be negative"
                          " (eigenvalues lie in the open left half-plane)")
    elif family in ("cluster_infinity", "cluster_zero", "mixed_cluster"):
        # alpha for the clusters at infinity, beta for those at zero
        if family != "cluster_zero" and sc.get("alpha", 1.0) <= 0.0:
            errors.append("[scenario] alpha must be positive")
        if family != "cluster_infinity" and sc.get("beta", 2.0) <= 1.0:
            errors.append("[scenario] beta must exceed 1")
        if family != "mixed_cluster" and sc.get("n_modes", 1) < 1:
            errors.append("[scenario] n_modes must be at least 1")
        if family == "mixed_cluster" and min(sc.get("n_infinity", 1), sc.get("n_zero", 1)) < 1:
            errors.append("[scenario] n_infinity and n_zero must be at least 1")
    else:
        errors.append(
            "[scenario] family must be one of single_mode, cluster_infinity,"
            " cluster_zero, mixed_cluster"
        )
    if sc.get("omega", 1.0) <= 0.0:
        errors.append("[scenario] omega must be positive")
    if sc.get("orbit", "vector") not in ORBIT_KINDS:
        errors.append(f"[scenario] orbit must be one of {', '.join(ORBIT_KINDS)}")


def _validate_rate_family(cfg: dict, section: str, errors: list) -> None:
    fam = cfg.get(section, {}).get("family")
    if fam is None:
        errors.append(f"[{section}] family is required")
        return
    if fam not in ("power", "exponential", "constant"):
        errors.append(f"[{section}] family must be one of power, exponential, constant")
        return
    if fam in ("power", "exponential") and cfg[section].get("alpha", 1.0) <= 0.0:
        errors.append(f"[{section}] alpha must be positive")
    if fam == "constant" and cfg[section].get("value", 1.0) < 1.0:
        errors.append(f"[{section}] value must be at least 1")


def parse_config(text: str, experiment: Optional[str] = None,
                 overrides: Optional[dict] = None) -> RunConfig:
    """Parse and fully validate INI configuration text.

    ``experiment`` (from the subcommand) and ``overrides`` (from flags)
    take precedence over the corresponding config fields.  All validation
    problems are collected and raised together in a :class:`ConfigError`;
    unknown sections and keys are rejected rather than ignored.
    """
    parser = configparser.ConfigParser(interpolation=None)
    errors: list = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc

    cfg: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        cfg[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                errors.append(f"unknown key {key!r} in section [{section}]")
                continue
            val = _convert(section, key, raw, errors)
            if val is not None:
                cfg[section][key] = val

    name = experiment or cfg.get("experiment", {}).get("name")
    exp = EXPERIMENTS.get(name)
    if exp is not None:
        cfg.setdefault("experiment", {})["name"] = name
        for section in exp.sections:
            if section not in cfg:
                errors.append(f"experiment {name} requires section [{section}]")
        unread = "grid" if exp.grid is None else "r_sweep"
        if unread in cfg:
            errors.append(f"experiment {name} does not read section [{unread}]")
    elif name is None:
        errors.append("[experiment] name is required"
                      " (or choose a subcommand)")
    else:
        errors.append(
            f"[experiment] name={name!r} must be one of {', '.join(EXPERIMENTS)}"
        )

    # defaults
    tols = _default_tolerances()
    tols.update(cfg.get("tolerances", {}))
    cfg["tolerances"] = tols
    if cfg["tolerances"]["abs_tol"] <= 0.0 or cfg["tolerances"]["rel_tol"] <= 0.0:
        errors.append("[tolerances] abs_tol and rel_tol must be positive")

    out = {"path": name if exp is not None else "report", "format": "both"}
    out.update(cfg.get("output", {}))
    cfg["output"] = out
    if overrides:
        if overrides.get("out") is not None:
            cfg["output"]["path"] = overrides["out"]
        if overrides.get("format") is not None:
            cfg["output"]["format"] = overrides["format"]
    _check_enum(cfg, "output", "format", ("csv", "json", "both"), errors)

    if exp is not None and exp.grid is not None:
        grid = dict(zip(("min", "max", "points", "spacing"), exp.grid))
        grid.update(cfg.get("grid", {}))
        cfg["grid"] = grid
        _check_enum(cfg, "grid", "spacing", ("log", "linear"), errors)
        if grid["points"] < 1:
            errors.append("[grid] points must be at least 1")
        if not grid["min"] < grid["max"]:
            errors.append("[grid] min must be below max")
        elif grid["spacing"] == "log" and grid["min"] <= 0.0:
            errors.append("[grid] log spacing requires min > 0")
    elif exp is not None:
        sweep = {"values": "4,8,16,32", "t_max": 20.0}
        sweep.update(cfg.get("r_sweep", {}))
        cfg["r_sweep"] = sweep
        try:
            values = [float(v) for v in sweep["values"].split(",")]
            if not all(map(math.isfinite, values)):
                raise ValueError
        except ValueError:
            values = None
            errors.append("[r_sweep] values must be a comma-separated float list")
        if values is not None:
            if len(values) < 2 or any(b <= a for a, b in zip(values, values[1:])) \
                    or values[0] <= 0.0:
                errors.append("[r_sweep] values must be positive and increasing")
            else:
                cfg["r_sweep"]["values"] = values
        if sweep["t_max"] <= 1.0:
            errors.append("[r_sweep] t_max must exceed 1")

    if "scenario" in cfg:
        _validate_scenario(cfg["scenario"], errors)
        base = {"omega": 1.0, "orbit": "vector"}
        base.update(cfg["scenario"])
        cfg["scenario"] = base

    if "kernel" in cfg:
        kern = {"name": "tent"}
        kern.update(cfg["kernel"])
        cfg["kernel"] = kern
        _check_enum(cfg, "kernel", "name", tuple(_KERNELS), errors)
        if (exp is not None and exp.plateau and kern["name"] in _KERNELS
                and not _KERNELS[kern["name"]]().flat_near_zero):
            errors.append(
                f"[kernel] {kern['name']} is inadmissible for {name}:"
                " its transform is not identically 1 near 0"
            )

    if "bound" in cfg:
        variant = cfg["bound"].get("variant")
        if variant is None:
            errors.append("[bound] variant is required")
        elif variant not in VARIANTS:
            errors.append(
                f"[bound] variant={variant!r} must be one of {', '.join(VARIANTS)}"
            )
        else:
            spec = _VARIANTS[variant]
            if "k" in cfg["bound"]:
                if not spec.ck:
                    errors.append("[bound] k applies only to finite-smoothness"
                                  " (ck) variants")
                elif cfg["bound"]["k"] < 1:
                    errors.append("[bound] k must be a positive integer")
            if "c" in cfg["bound"]:
                try:
                    _admissible_c(variant, cfg["bound"]["c"])
                except ValueError as exc:
                    errors.append(f"[bound] {exc}")
            if exp is not None and variant not in exp.variants:
                errors.append(f"[bound] {name} {exp.variants_reason} and requires"
                              f" variant {' or '.join(exp.variants)}")
            if exp is not None and exp.rate_sections:
                for section in ("growth", "decay"):
                    if getattr(spec, section) and section not in cfg:
                        errors.append(f"variant {variant} requires section [{section}]")

    for section in ("growth", "decay"):
        if section in cfg:
            base = {"alpha": 1.0, "value": 1.0}
            base.update(cfg[section])
            cfg[section] = base
            _validate_rate_family(cfg, section, errors)

    if errors:
        raise ConfigError(errors)
    return RunConfig(experiment=name, sections=cfg)


# -- experiment execution ------------------------------------------------------


def _grid_values(cfg: RunConfig) -> np.ndarray:
    g = cfg["grid"]
    if g["points"] == 1:
        return np.array([g["min"]])
    if g["spacing"] == "log":
        return np.geomspace(g["min"], g["max"], g["points"])
    return np.linspace(g["min"], g["max"], g["points"])


def _make_kernel(cfg: RunConfig) -> Kernel:
    return _KERNELS[cfg["kernel"]["name"]]()


def _make_scenario(cfg: RunConfig) -> Scenario:
    sc = cfg["scenario"]
    family = sc["family"]
    if family == "single_mode":
        op = single_mode(complex(sc.get("lambda_re", -1.0), sc.get("lambda_im", 0.0)))
    elif family == "cluster_infinity":
        op = cluster_infinity(sc.get("alpha", 1.0), sc.get("n_modes", 100))
    elif family == "cluster_zero":
        op = cluster_zero(sc.get("beta", 2.0), sc.get("n_modes", 100))
    else:
        op = mixed_cluster(sc.get("alpha", 1.0), sc.get("beta", 2.0),
                           sc.get("n_infinity", 100), sc.get("n_zero", 100))
    return Scenario(op, sc["orbit"], omega=sc["omega"])


def _rate_function(cfg: RunConfig, section: str) -> MonotoneFunction:
    """The ``[growth]`` or ``[decay]`` rate: ``MonotoneFunction.<family>_<section>``."""
    spec = cfg[section]
    make = getattr(MonotoneFunction, f"{spec['family']}_{section}")
    return make(spec["value"] if spec["family"] == "constant" else spec["alpha"])


def _expected_power_slope(cfg: RunConfig, bound: RateBound) -> Optional[float]:
    """Closed-form decay exponent for single-sided power-law ck bounds."""
    spec = _VARIANTS[bound.variant]
    if not spec.ck or spec.growth == spec.decay:
        return None
    section = "growth" if spec.growth else "decay"
    if cfg[section]["family"] != "power":
        return None
    alpha, k = cfg[section]["alpha"], bound.k
    offset = 2.0 if spec.growth else 1.0
    return -k / (alpha * (k + 1) + offset)


def _bound_on_grid(cfg: RunConfig):
    """The configured bound and the grid of t, which must start at its t_min or above."""
    rates = {section: _rate_function(cfg, section)
             for section in ("growth", "decay") if section in cfg.sections}
    bound = make_bound(cfg["bound"]["variant"], c=cfg["bound"].get("c"),
                       k=cfg["bound"].get("k"), **rates)
    ts = _grid_values(cfg)
    if ts[0] < bound.t_min:
        raise ValueError(
            f"[grid] min={ts[0]:g} is below the bound's validity threshold"
            f" t_min={bound.t_min:.6g}"
        )
    return bound, ts


def _run_bound_table(cfg: RunConfig) -> ExperimentReport:
    bound, ts = _bound_on_grid(cfg)
    meta = {"variant": bound.variant, "c": bound.c, "k": bound.k, "t_min": bound.t_min}
    return bound_table_report(ts, bound(ts), _expected_power_slope(cfg, bound), meta)


def _run_kernel_check(cfg: RunConfig) -> ExperimentReport:
    kernel = _make_kernel(cfg)
    svals = _grid_values(cfg)
    return kernel_check_report(
        kernel, svals, numeric_fourier(kernel, svals, QuadratureSpec(**cfg["tolerances"])))


def _run_parseval(cfg: RunConfig) -> ExperimentReport:
    scenario = _make_scenario(cfg)
    kernel = _make_kernel(cfg)
    spec = QuadratureSpec(**cfg["tolerances"])
    ts = _grid_values(cfg)
    residuals = [check_parseval(scenario, kernel, float(t), spec=spec) for t in ts]
    return parseval_report(ts, residuals,
                           {"kernel": kernel.name, "scenario": scenario.operator.label})


def _run_mollifier(cfg: RunConfig) -> ExperimentReport:
    return check_mollifier_rate(
        _make_scenario(cfg), _make_kernel(cfg),
        r_list=cfg["r_sweep"]["values"], t_max=cfg["r_sweep"]["t_max"])


def _run_regularity(cfg: RunConfig) -> ExperimentReport:
    return check_asymptotic_regularity(
        _make_scenario(cfg), _make_kernel(cfg), t_grid=_grid_values(cfg))


def _run_compare_decay(cfg: RunConfig) -> ExperimentReport:
    return compare_decay(
        _make_scenario(cfg), cfg["bound"]["variant"],
        c=cfg["bound"].get("c"), k=cfg["bound"].get("k"),
        t_grid=_grid_values(cfg))


def _run_raw_oracle(cfg: RunConfig) -> ExperimentReport:
    bound, ts = _bound_on_grid(cfg)
    closed, inverse = bound.evaluate(ts)
    if bound.k is not None:
        raws, _ = raw_bound_ck(bound.growth, bound.k, bound.c, ts, inverse=inverse)
    else:
        raws, _ = raw_bound_smooth(bound.growth, bound.c, ts, inverse=inverse)
    return raw_oracle_report(ts, raws, closed,
                             {"variant": bound.variant, "c": bound.c, "k": bound.k})


# One record per experiment, in the order the CLI lists them.
EXPERIMENTS = {
    "bound_table": Experiment("bound", ("bound",), (10.0, 1e4, 61, "log"), _run_bound_table,
                              rate_sections=True),
    "kernel_check": Experiment("kernel", ("kernel",), (0.0, 2.0, 9, "linear"),
                               _run_kernel_check),
    "parseval": Experiment("parseval", ("scenario", "kernel"), (0.0, 5.0, 3, "linear"),
                           _run_parseval),
    "mollifier_rate": Experiment("mollifier", ("scenario", "kernel"), None, _run_mollifier),
    "asymptotic_regularity": Experiment("regularity", ("scenario", "kernel"),
                                        (10.0, 1e3, 41, "log"), _run_regularity,
                                        plateau=True),
    "compare_decay": Experiment("decay", ("scenario", "bound"), (10.0, 1e4, 61, "log"),
                                _run_compare_decay),
    "raw_bound_oracle": Experiment("oracle", ("growth", "bound"), (100.0, 1e4, 21, "log"),
                                   _run_raw_oracle, variants=("infinity_ck", "infinity_smooth"),
                                   variants_reason="minimises the high-frequency estimate"),
}


def _output_paths(cfg: RunConfig) -> tuple[Path, Path]:
    base = Path(cfg["output"]["path"])
    if base.suffix == ".csv":
        return base, base.with_suffix(".json")
    return base.with_name(base.name + ".csv"), base.with_name(base.name + ".json")


def _write_reports(cfg: RunConfig, report: ExperimentReport) -> None:
    fmt = cfg["output"]["format"]
    csv_path, json_path = _output_paths(cfg)
    if fmt in ("csv", "both"):
        lines = ["abscissa,measured,reference,ratio"]
        for row in report.rows:
            lines.append(",".join("{:.12g}".format(float(v)) for v in row))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if fmt in ("json", "both"):
        payload = {
            "experiment": cfg.experiment,
            "config": cfg.sections,
            "rows": len(report.rows),
            "slopes": {name: {"slope": s, "stderr": e}
                       for name, (s, e) in report.slopes.items()},
            "constant_stability": report.constant_stability,
            "passed": report.passed,
            "failures": report.failures,
            "metadata": report.metadata,
        }
        json_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )


def _failing_layer(exc: BaseException) -> str:
    """The package module of the innermost traceback frame inside the package."""
    layer = "cli"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith(f"{__package__}."):
            layer = module.rpartition(".")[2]
        tb = tb.tb_next
    return layer


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment and write its reports.

    Returns 0 when every invariant passed, 1 when an invariant failed or
    quadrature did not converge, 2 on any other runtime error (a model too
    large to allocate included), printed as
    ``error: [<layer>] <Class>: <message>`` with the package module that
    raised it.
    """
    try:
        report = EXPERIMENTS[cfg.experiment].runner(cfg)
    except NonConvergenceError as exc:
        _write_reports(cfg, ExperimentReport(rows=[], failures=[f"not converged: {exc}"]))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, OSError, MemoryError) as exc:
        print(f"error: [{_failing_layer(exc)}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        _write_reports(cfg, report)
    except OSError as exc:
        print(f"error: cannot write reports: {exc}", file=sys.stderr)
        return 2
    for failure in report.failures:
        print(f"invariant failed: {failure}", file=sys.stderr)
    return 0 if report.passed else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ingham-rates",
        description="Decay-rate experiments: rate bounds, kernels, and"
                    " diagonal semigroup models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment, record in EXPERIMENTS.items():
        p = sub.add_parser(record.command, help=f"run the {experiment} experiment")
        p.add_argument("--config", type=Path, default=None,
                       help="INI configuration file")
        p.add_argument("--out", default=None,
                       help="output base path (overrides [output] path)")
        p.add_argument("--format", choices=("csv", "json", "both"), default=None,
                       help="report format (overrides [output] format)")
        p.add_argument("--seed", type=int, default=None,
                       help="reserved; all computations are deterministic")
        p.set_defaults(experiment=experiment)
    args = parser.parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = parse_config(text, experiment=args.experiment,
                           overrides={"out": args.out, "format": args.format})
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
