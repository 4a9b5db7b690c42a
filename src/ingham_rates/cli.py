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
from typing import Optional

import numpy as np

from .kernels import Kernel, bump_kernel, fudge_kernel, numeric_fourier, tent_kernel
from .quadrature import NonConvergenceError, QuadratureSpec
from .rate_functions import (
    MonotoneFunction,
    VARIANTS,
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
    check_asymptotic_regularity,
    check_mollifier_rate,
    check_parseval,
    compare_decay,
    fit_loglog,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

EXPERIMENTS = (
    "bound_table",
    "kernel_check",
    "parseval",
    "mollifier_rate",
    "asymptotic_regularity",
    "compare_decay",
    "raw_bound_oracle",
)

PARSEVAL_TOLERANCE = 1e-6
KERNEL_MATCH_TOLERANCE = 1e-6

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
    "kernel": {"name": "str", "sharpness": "float"},
    "bound": {"variant": "str", "c": "float", "k": "int"},
    "grid": {"min": "float", "max": "float", "points": "int", "spacing": "str"},
    "r_sweep": {"values": "str", "t_max": "float"},
    "output": {"path": "str", "format": "str"},
    "tolerances": {"abs_tol": "float", "rel_tol": "float"},
}

_REQUIRED_SECTIONS = {
    "bound_table": ("bound",),
    "kernel_check": ("kernel",),
    "parseval": ("scenario", "kernel"),
    "mollifier_rate": ("scenario", "kernel"),
    "asymptotic_regularity": ("scenario", "kernel"),
    "compare_decay": ("scenario", "bound"),
    "raw_bound_oracle": ("growth", "bound"),
}

_GRID_DEFAULTS = {
    "bound_table": {"min": 10.0, "max": 1e4, "points": 61, "spacing": "log"},
    "kernel_check": {"min": 0.0, "max": 2.0, "points": 9, "spacing": "linear"},
    "parseval": {"min": 0.0, "max": 5.0, "points": 3, "spacing": "linear"},
    "asymptotic_regularity": {"min": 10.0, "max": 1e3, "points": 41, "spacing": "log"},
    "compare_decay": {"min": 10.0, "max": 1e4, "points": 61, "spacing": "log"},
    "raw_bound_oracle": {"min": 100.0, "max": 1e4, "points": 21, "spacing": "log"},
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

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)


def _default_tolerances() -> dict:
    env = os.environ.get("INGHAM_RATES_TOL")
    if env is not None:
        try:
            base = float(env)
        except ValueError:
            base = None
        if base is not None and 0.0 < base < math.inf:
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
    elif family == "cluster_infinity":
        if sc.get("alpha", 1.0) <= 0.0:
            errors.append("[scenario] alpha must be positive")
        if sc.get("n_modes", 1) < 1:
            errors.append("[scenario] n_modes must be at least 1")
    elif family == "cluster_zero":
        if sc.get("beta", 2.0) <= 1.0:
            errors.append("[scenario] beta must exceed 1")
        if sc.get("n_modes", 1) < 1:
            errors.append("[scenario] n_modes must be at least 1")
    elif family == "mixed_cluster":
        if sc.get("alpha", 1.0) <= 0.0:
            errors.append("[scenario] alpha must be positive")
        if sc.get("beta", 2.0) <= 1.0:
            errors.append("[scenario] beta must exceed 1")
        if sc.get("n_infinity", 1) < 1 or sc.get("n_zero", 1) < 1:
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
    if name is None:
        errors.append("[experiment] name is required"
                      " (or choose a subcommand)")
    elif name not in EXPERIMENTS:
        errors.append(
            f"[experiment] name={name!r} must be one of {', '.join(EXPERIMENTS)}"
        )
        name = None

    if name is not None:
        cfg.setdefault("experiment", {})["name"] = name
        for section in _REQUIRED_SECTIONS[name]:
            if section not in cfg:
                errors.append(f"experiment {name} requires section [{section}]")

    # defaults
    tols = _default_tolerances()
    tols.update(cfg.get("tolerances", {}))
    cfg["tolerances"] = tols
    if cfg["tolerances"]["abs_tol"] <= 0.0 or cfg["tolerances"]["rel_tol"] <= 0.0:
        errors.append("[tolerances] abs_tol and rel_tol must be positive")

    out = {"path": (name or "report"), "format": "both"}
    out.update(cfg.get("output", {}))
    cfg["output"] = out
    if overrides:
        if overrides.get("out") is not None:
            cfg["output"]["path"] = overrides["out"]
        if overrides.get("format") is not None:
            cfg["output"]["format"] = overrides["format"]
    _check_enum(cfg, "output", "format", ("csv", "json", "both"), errors)

    if name is not None and name != "mollifier_rate":
        grid = dict(_GRID_DEFAULTS[name])
        grid.update(cfg.get("grid", {}))
        cfg["grid"] = grid
        _check_enum(cfg, "grid", "spacing", ("log", "linear"), errors)
        if grid["points"] < 1:
            errors.append("[grid] points must be at least 1")
        if not grid["min"] < grid["max"]:
            errors.append("[grid] min must be below max")
        elif grid["spacing"] == "log" and grid["min"] <= 0.0:
            errors.append("[grid] log spacing requires min > 0")
    if name == "mollifier_rate":
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
        kern = {"name": "tent", "sharpness": 1.0}
        kern.update(cfg["kernel"])
        cfg["kernel"] = kern
        _check_enum(cfg, "kernel", "name", ("tent", "fudge", "bump"), errors)
        if not 0.0 < kern["sharpness"] <= 100.0:
            errors.append("[kernel] sharpness must lie in (0, 100]")
        if name == "kernel_check" and kern["name"] not in ("tent", "fudge"):
            errors.append(
                "[kernel] kernel_check compares against closed-form transforms"
                " and requires tent or fudge"
            )
        if name == "asymptotic_regularity" and kern["name"] == "fudge":
            errors.append(
                "[kernel] fudge is inadmissible for asymptotic_regularity:"
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
            is_ck = variant.endswith("_ck")
            if not is_ck and "k" in cfg["bound"]:
                errors.append("[bound] k applies only to finite-smoothness"
                              " (ck) variants")
            if is_ck and cfg["bound"].get("k", 1) < 1:
                errors.append("[bound] k must be a positive integer")
            if "c" in cfg["bound"]:
                try:
                    _admissible_c(variant, cfg["bound"]["c"])
                except ValueError as exc:
                    errors.append(f"[bound] {exc}")
            if name == "raw_bound_oracle" and variant not in (
                    "infinity_ck", "infinity_smooth"):
                errors.append(
                    "[bound] raw_bound_oracle minimises the high-frequency"
                    " estimate and requires variant infinity_ck or"
                    " infinity_smooth"
                )

    if name == "bound_table" and "bound" in cfg:
        variant = cfg["bound"].get("variant", "")
        if variant.startswith(("infinity", "zero_infinity")) and "growth" not in cfg:
            errors.append(f"variant {variant} requires section [growth]")
        if variant.startswith("zero") and "decay" not in cfg:
            errors.append(f"variant {variant} requires section [decay]")

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
    spec = cfg["kernel"]
    if spec["name"] == "tent":
        return tent_kernel()
    if spec["name"] == "fudge":
        return fudge_kernel()
    return bump_kernel(spec["sharpness"])


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
    spec = cfg[section]
    fam = spec["family"]
    if section == "growth":
        if fam == "power":
            return MonotoneFunction.power_growth(spec["alpha"])
        if fam == "exponential":
            return MonotoneFunction.exponential_growth(spec["alpha"])
        return MonotoneFunction.constant_growth(spec["value"])
    if fam == "power":
        return MonotoneFunction.power_decay(spec["alpha"])
    if fam == "exponential":
        return MonotoneFunction.exponential_decay(spec["alpha"])
    return MonotoneFunction.constant_decay(spec["value"])


def _expected_power_slope(cfg: RunConfig, variant: str) -> Optional[float]:
    """Closed-form decay exponent for single-sided power-law ck bounds."""
    if not variant.endswith("_ck") or variant.startswith("zero_infinity"):
        return None
    section = "growth" if variant.startswith("infinity") else "decay"
    if cfg.sections.get(section, {}).get("family") != "power":
        return None
    alpha = cfg[section]["alpha"]
    k = cfg["bound"].get("k", 1)
    offset = 2.0 if variant.startswith("infinity") else 1.0
    return -k / (alpha * (k + 1) + offset)


def _run_bound_table(cfg: RunConfig):
    variant = cfg["bound"]["variant"]
    growth = decay = None
    if variant.startswith(("infinity", "zero_infinity")):
        growth = _rate_function(cfg, "growth")
    if variant.startswith("zero"):
        decay = _rate_function(cfg, "decay")
    bound = make_bound(variant, growth=growth, decay=decay,
                       c=cfg["bound"].get("c"), k=cfg["bound"].get("k"))
    ts = _grid_values(cfg)
    if ts[0] < bound.t_min:
        raise ValueError(
            f"[grid] min={ts[0]:g} is below the bound's validity threshold"
            f" t_min={bound.t_min:.6g}"
        )
    vals = bound(ts)
    expected = _expected_power_slope(cfg, variant)
    reference = ts ** expected if expected is not None else np.ones_like(ts)
    rows = [(float(t), float(v), float(r), float(v / r))
            for t, v, r in zip(ts, vals, reference)]
    failures = []
    if np.any(vals <= 0.0):
        failures.append("bound values must be positive")
    if np.any(np.diff(vals) > 1e-12 * vals[:-1]):
        failures.append("bound values must be non-increasing in t")
    slopes = {}
    # fit on the last two decades so pre-asymptotic curvature does not
    # contaminate the exponent estimate
    tail = ts >= ts[-1] / 100.0
    if np.count_nonzero(tail) >= 5:
        slopes["bound"] = fit_loglog(list(zip(ts[tail], vals[tail])))
        if expected is not None and abs(slopes["bound"][0] - expected) > 0.05:
            failures.append(
                f"fitted slope {slopes['bound'][0]:.4f} deviates from the"
                f" closed-form exponent {expected:.4f} by more than 0.05"
            )
    meta = {"variant": variant, "c": bound.c, "k": bound.k, "t_min": bound.t_min}
    if expected is not None:
        meta["expected_slope"] = expected
    return rows, slopes, failures, meta, None


def _run_kernel_check(cfg: RunConfig):
    kernel = _make_kernel(cfg)
    spec = QuadratureSpec(abs_tol=cfg["tolerances"]["abs_tol"],
                          rel_tol=cfg["tolerances"]["rel_tol"])
    svals = _grid_values(cfg)
    rows = []
    worst = 0.0
    for s in svals:
        numeric = numeric_fourier(kernel, float(s), spec)
        closed = float(kernel.freq_eval(np.asarray(float(s))))
        worst = max(worst, abs(numeric - closed))
        ratio = numeric / closed if closed > 0.0 else math.nan
        rows.append((float(s), numeric, closed, ratio))
    failures = []
    if worst > KERNEL_MATCH_TOLERANCE:
        failures.append(
            f"numeric transform deviates from the closed form by {worst:.3e}"
            f" (tolerance {KERNEL_MATCH_TOLERANCE:g})"
        )
    return rows, {}, failures, {"kernel": kernel.name, "max_abs_error": worst}, None


def _run_parseval(cfg: RunConfig):
    scenario = _make_scenario(cfg)
    kernel = _make_kernel(cfg)
    spec = QuadratureSpec(abs_tol=cfg["tolerances"]["abs_tol"],
                          rel_tol=cfg["tolerances"]["rel_tol"])
    rows = []
    failures = []
    for t in _grid_values(cfg):
        residual = check_parseval(scenario, kernel, float(t), spec=spec)
        rows.append((float(t), residual, PARSEVAL_TOLERANCE,
                     residual / PARSEVAL_TOLERANCE))
        if residual > PARSEVAL_TOLERANCE:
            failures.append(f"residual {residual:.3e} at t={t:g} exceeds"
                            f" {PARSEVAL_TOLERANCE:g}")
    meta = {"kernel": kernel.name, "scenario": scenario.operator.label}
    return rows, {}, failures, meta, None


def _run_mollifier(cfg: RunConfig):
    report = check_mollifier_rate(
        _make_scenario(cfg), _make_kernel(cfg),
        r_list=cfg["r_sweep"]["values"], t_max=cfg["r_sweep"]["t_max"])
    return (report.rows, report.slopes, report.failures, report.metadata,
            report.constant_stability)


def _run_regularity(cfg: RunConfig):
    report = check_asymptotic_regularity(
        _make_scenario(cfg), _make_kernel(cfg), t_grid=_grid_values(cfg))
    return (report.rows, report.slopes, report.failures, report.metadata,
            report.constant_stability)


def _run_compare_decay(cfg: RunConfig):
    report = compare_decay(
        _make_scenario(cfg), cfg["bound"]["variant"],
        c=cfg["bound"].get("c"), k=cfg["bound"].get("k", 1),
        t_grid=_grid_values(cfg))
    return (report.rows, report.slopes, report.failures, report.metadata,
            report.constant_stability)


def _run_raw_oracle(cfg: RunConfig):
    variant = cfg["bound"]["variant"]
    growth = _rate_function(cfg, "growth")
    c = cfg["bound"].get("c")
    k = cfg["bound"].get("k", 1)
    bound = make_bound(variant, growth=growth, c=c,
                       k=k if variant.endswith("_ck") else None)
    ts = _grid_values(cfg)
    if ts[0] < bound.t_min:
        raise ValueError(
            f"[grid] min={ts[0]:g} is below the bound's validity threshold"
            f" t_min={bound.t_min:.6g}"
        )
    closed_values = bound(ts)
    if variant == "infinity_ck":
        raws, _ = raw_bound_ck(growth, k, bound.c, ts)
    else:
        raws, _ = raw_bound_smooth(growth, bound.c, ts)
    rows = []
    failures = []
    for t, raw, closed in zip(ts.tolist(), raws.tolist(), closed_values.tolist()):
        ratio = raw / closed
        rows.append((t, raw, closed, ratio))
        if not 0.1 <= ratio <= 10.0:
            failures.append(
                f"raw/closed ratio {ratio:.4g} at t={t:g} leaves [0.1, 10]"
            )
    meta = {"variant": variant, "c": bound.c, "k": bound.k}
    return rows, {}, failures, meta, None


_RUNNERS = {
    "bound_table": _run_bound_table,
    "kernel_check": _run_kernel_check,
    "parseval": _run_parseval,
    "mollifier_rate": _run_mollifier,
    "asymptotic_regularity": _run_regularity,
    "compare_decay": _run_compare_decay,
    "raw_bound_oracle": _run_raw_oracle,
}


def _output_paths(cfg: RunConfig) -> tuple[Path, Path]:
    base = Path(cfg["output"]["path"])
    if base.suffix == ".csv":
        return base, base.with_suffix(".json")
    return base.with_name(base.name + ".csv"), base.with_name(base.name + ".json")


def _write_reports(cfg: RunConfig, rows, slopes, failures, meta, stability) -> None:
    fmt = cfg["output"]["format"]
    csv_path, json_path = _output_paths(cfg)
    if fmt in ("csv", "both"):
        lines = ["abscissa,measured,reference,ratio"]
        for row in rows:
            lines.append(",".join("{:.12g}".format(float(v)) for v in row))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if fmt in ("json", "both"):
        payload = {
            "experiment": cfg.experiment,
            "config": cfg.sections,
            "rows": len(rows),
            "slopes": {name: {"slope": s, "stderr": e}
                       for name, (s, e) in slopes.items()},
            "constant_stability": stability,
            "passed": not failures,
            "failures": failures,
            "metadata": meta,
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
    quadrature did not converge, 2 on any other runtime error, printed as
    ``error: [<layer>] <Class>: <message>`` with the package module that
    raised it.
    """
    runner = _RUNNERS[cfg.experiment]
    try:
        rows, slopes, failures, meta, stability = runner(cfg)
    except NonConvergenceError as exc:
        _write_reports(cfg, [], {}, [f"not converged: {exc}"], {}, None)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: [{_failing_layer(exc)}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        _write_reports(cfg, rows, slopes, failures, meta, stability)
    except OSError as exc:
        print(f"error: cannot write reports: {exc}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"invariant failed: {failure}", file=sys.stderr)
    return 0 if not failures else 1


_SUBCOMMANDS = {
    "bound": "bound_table",
    "kernel": "kernel_check",
    "parseval": "parseval",
    "mollifier": "mollifier_rate",
    "regularity": "asymptotic_regularity",
    "decay": "compare_decay",
    "oracle": "raw_bound_oracle",
}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ingham-rates",
        description="Decay-rate experiments: rate bounds, kernels, and"
                    " diagonal semigroup models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, experiment in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=f"run the {experiment} experiment")
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
