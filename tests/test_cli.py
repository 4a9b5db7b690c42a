"""Tests for the command-line experiment runner.

Covers configuration parsing (every validation error collected in one
pass, defaults, flag/config/environment precedence), report formatting
(exact CSV header, 12-significant-digit rows, JSON sidecar carrying the
full effective config), exit-code semantics, and byte-level determinism
of repeated runs.
"""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingham_rates import cli, rate_functions
from ingham_rates.cli import ConfigError, parse_config
from ingham_rates.quadrature import NonConvergenceError
from ingham_rates.rate_functions import MonotoneFunction, SearchBracketError
from ingham_rates.semigroup_lab import DiagonalOperator


MINIMAL_KERNEL = "[kernel]\nname = tent\n"

# the documented minimal happy path: a bound table for a power-law
# growth function with the smooth-data variant
BOUND_SMOOTH = """
[experiment]
name = bound_table

[growth]
family = power
alpha = 1.0

[bound]
variant = infinity_smooth
c = 0.45

[grid]
min = 10
max = 1e4
points = 60
spacing = log
"""

# constant growth keeps the bound closed-form cheap; t_min = 2 here
BOUND_CONSTANT = """
[growth]
family = constant
value = 1.0

[bound]
variant = infinity_ck
k = 2
"""

PARSEVAL_SINGLE_MODE = """
[scenario]
family = single_mode
lambda_re = -1.0

[kernel]
name = tent
"""

# one error per line of the summary below; parsing must report them all
BROKEN = """
[experiment]
name = compare_decay

[mystery]
foo = 1

[scenario]
family = cluster_infinity
alpha = -2
n_modes = 0
orbit = sideways

[bound]
variant = infinity_smooth
c = 0.7
k = 2

[grid]
min = 100
max = 10
spacing = cubic
"""


REGULARITY_CLUSTER = """
[scenario]
family = cluster_zero
beta = 2.0
n_modes = 20

[kernel]
name = tent
"""


# experiment-specific rules mixed with errors of other sections, by case name
CONFIG_ERROR_CORPUS = {
    "mollifier_rate": ("""
[experiment]
name = mollifier_rate
[scenario]
family = cluster_zero
beta = 0.5
n_modes = 0
[kernel]
name = gaussian
[r_sweep]
values = 8,4
t_max = 0.5
""", [
        "[r_sweep] values must be positive and increasing",
        "[r_sweep] t_max must exceed 1",
        "[scenario] beta must exceed 1",
        "[scenario] n_modes must be at least 1",
        "[kernel] name='gaussian' must be one of tent, fudge, bump",
    ]),
    "raw_bound_oracle": ("""
[experiment]
name = raw_bound_oracle
[growth]
family = power
alpha = -1
[bound]
variant = zero_ck
c = -1
""", [
        "[bound] c=-1.0 outside admissible interval (0, inf) for variant zero_ck",
        "[bound] raw_bound_oracle minimises the high-frequency estimate and"
        " requires variant infinity_ck or infinity_smooth",
        "[growth] alpha must be positive",
    ]),
    "bound_table": ("""
[experiment]
name = bound_table
[bound]
variant = zero_infinity_ck
k = 0
[decay]
family = gaussian
""", [
        "[bound] k must be a positive integer",
        "variant zero_infinity_ck requires section [growth]",
        "[decay] family must be one of power, exponential, constant",
    ]),
    "asymptotic_regularity": ("""
[experiment]
name = asymptotic_regularity
[scenario]
family = single_mode
lambda_re = -1
colour = red
[kernel]
name = fudge
[grid]
spacing = cubic
""", [
        "unknown key 'colour' in section [scenario]",
        "[grid] spacing='cubic' must be one of log, linear",
        "[kernel] fudge is inadmissible for asymptotic_regularity: its"
        " transform is not identically 1 near 0",
    ]),
    "bogus": ("""
[experiment]
name = bogus
[kernel]
name = fudge
[grid]
points = 0
min = 5
max = 1
[bound]
variant = infinity_smooth
k = 2
[tolerances]
abs_tol = -1
""", [
        "[experiment] name='bogus' must be one of bound_table, kernel_check,"
        " parseval, mollifier_rate, asymptotic_regularity, compare_decay,"
        " raw_bound_oracle",
        "[tolerances] abs_tol and rel_tol must be positive",
        "[bound] k applies only to finite-smoothness (ck) variants",
    ]),
    # the sweep reads [r_sweep], not [grid], and refuses the one it does not read
    "mollifier_rate_grid": ("""
[experiment]
name = mollifier_rate
[kernel]
name = bump
[grid]
points = 0
min = 5
max = 1
spacing = cubic
[scenario]
family = cluster_zero
n_modes = 0
""", [
        "experiment mollifier_rate does not read section [grid]",
        "[scenario] n_modes must be at least 1",
    ]),
    "kernel_check_r_sweep": ("""
[experiment]
name = kernel_check
[r_sweep]
values = banana
[grid]
points = 0
""", [
        "experiment kernel_check requires section [kernel]",
        "experiment kernel_check does not read section [r_sweep]",
        "[grid] points must be at least 1",
    ]),
    # an unknown variant names no rate sections, whatever its name says
    "bound_table_unknown_variant": ("""
[experiment]
name = bound_table
[bound]
variant = infinity_foo
""", [
        "[bound] variant='infinity_foo' must be one of infinity_ck, infinity_smooth,"
        " zero_ck, zero_smooth, zero_infinity_ck, zero_infinity_smooth",
    ]),
    # a family refuses the keys it does not read, before its own checks
    "cluster_zero_alpha": ("""
[experiment]
name = parseval
[scenario]
family = cluster_zero
alpha = -5
beta = 0.5
[kernel]
name = tent
""", [
        "[scenario] family cluster_zero does not read key 'alpha'",
        "[scenario] beta must exceed 1",
    ]),
    "single_mode_n_modes": ("""
[experiment]
name = asymptotic_regularity
[scenario]
family = single_mode
n_modes = 0
omega = -1
[kernel]
name = tent
""", [
        "[scenario] family single_mode does not read key 'n_modes'",
        "[scenario] omega must be positive",
    ]),
    "constant_growth_alpha": ("""
[experiment]
name = bound_table
[bound]
variant = infinity_ck
[growth]
family = constant
alpha = -3
value = 0.5
""", [
        "[growth] family constant does not read key 'alpha'",
        "[growth] value must be at least 1",
    ]),
    # a section the experiment does not read is refused and checked no further
    "kernel_check_bound": ("""
[experiment]
name = kernel_check
[kernel]
name = fudge
[bound]
variant = infinity_smooth
k = 0
""", [
        "experiment kernel_check does not read section [bound]",
    ]),
    "bound_table_scenario": ("""
[experiment]
name = bound_table
[scenario]
family = bogus
[bound]
variant = infinity_smooth
[growth]
family = power
""", [
        "experiment bound_table does not read section [scenario]",
    ]),
    "zero_ck_growth": ("""
[experiment]
name = bound_table
[growth]
family = power
alpha = -1
[bound]
variant = zero_ck
[decay]
family = constant
value = 0.5
""", [
        "variant zero_ck does not read section [growth]",
        "[decay] value must be at least 1",
    ]),
    "compare_decay_rates": ("""
[experiment]
name = compare_decay
[decay]
family = gaussian
[scenario]
family = cluster_zero
[kernel]
name = bogus
[growth]
family = power
[bound]
variant = zero_smooth
""", [
        "experiment compare_decay does not read section [decay]",
        "experiment compare_decay does not read section [kernel]",
        "experiment compare_decay does not read section [growth]",
    ]),
}


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_workloads(monkeypatch):
    """The benchmark's ``workloads`` module, loaded from ``bench/``."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_minimal_bound_table_config_is_valid(self):
        cfg = parse_config(BOUND_SMOOTH)
        assert cfg.experiment == "bound_table"
        assert cfg["bound"]["variant"] == "infinity_smooth"
        assert cfg["bound"]["c"] == pytest.approx(0.45)
        assert cfg["grid"]["points"] == 60
        assert cfg["grid"]["spacing"] == "log"

    def test_all_errors_collected_in_one_pass(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(BROKEN)
        errors = excinfo.value.errors
        expected = [
            "unknown section [mystery]",
            "[grid] spacing='cubic' must be one of log, linear",
            "[grid] min must be below max",
            "[scenario] alpha must be positive",
            "[scenario] n_modes must be at least 1",
            "[scenario] orbit must be one of ainv, ar_omega, ar_omega_sq,"
            " vector",
            "[bound] k applies only to finite-smoothness (ck) variants",
            "[bound] c=0.7 outside admissible interval (0, 1/2) for variant"
            " infinity_smooth",
        ]
        for message in expected:
            assert message in errors
        assert len(errors) == len(expected)

    def test_unknown_key_in_known_section_rejected(self):
        text = MINIMAL_KERNEL + "smoothness = 3\n"
        with pytest.raises(ConfigError, match=r"unknown key 'smoothness'"):
            parse_config(text, experiment="kernel_check")

    def test_unknown_experiment_name(self):
        with pytest.raises(ConfigError, match=r"name='eigenvalues' must be"):
            parse_config("[experiment]\nname = eigenvalues\n")

    def test_missing_required_sections_reported(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("", experiment="parseval")
        errors = excinfo.value.errors
        assert "experiment parseval requires section [scenario]" in errors
        assert "experiment parseval requires section [kernel]" in errors

    def test_malformed_ini_reported(self):
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config("key_without_section = 1\n")

    def test_type_errors_named_per_key(self):
        text = MINIMAL_KERNEL + "\n[tolerances]\nabs_tol = soft\n"
        with pytest.raises(ConfigError,
                           match=r"abs_tol='soft' is not a valid float"):
            parse_config(text, experiment="kernel_check")

    def test_defaults_applied(self):
        cfg = parse_config(MINIMAL_KERNEL, experiment="kernel_check")
        assert cfg["grid"] == {"min": 0.0, "max": 2.0, "points": 9,
                               "spacing": "linear"}
        assert cfg["tolerances"] == {"abs_tol": 1e-10, "rel_tol": 1e-9}
        assert cfg["output"]["format"] == "both"
        assert cfg["kernel"] == {"name": "tent"}

    def test_mollifier_sweep_defaults(self):
        cfg = parse_config(PARSEVAL_SINGLE_MODE, experiment="mollifier_rate")
        assert cfg["r_sweep"]["values"] == [4.0, 8.0, 16.0, 32.0]
        assert cfg["r_sweep"]["t_max"] == pytest.approx(20.0)

    @pytest.mark.parametrize("values", ["4,8,nan,32", "4,8,16,inf"])
    def test_non_finite_sweep_radius_is_a_config_error(self, values):
        text = PARSEVAL_SINGLE_MODE + f"\n[r_sweep]\nvalues = {values}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text, experiment="mollifier_rate")
        assert info.value.errors == ["[r_sweep] values must be a comma-separated float list"]

    def test_scenario_defaults(self):
        cfg = parse_config(PARSEVAL_SINGLE_MODE, experiment="parseval")
        assert cfg["scenario"]["omega"] == pytest.approx(1.0)
        assert cfg["scenario"]["orbit"] == "vector"

    def test_flag_overrides_beat_config(self):
        text = BOUND_SMOOTH + "\n[output]\npath = from_config\nformat = csv\n"
        cfg = parse_config(text, overrides={"out": "from_flag",
                                            "format": "json"})
        assert cfg["output"]["path"] == "from_flag"
        assert cfg["output"]["format"] == "json"

    def test_env_var_sets_tolerances(self, monkeypatch):
        monkeypatch.setenv("INGHAM_RATES_TOL", "1e-8")
        cfg = parse_config(MINIMAL_KERNEL, experiment="kernel_check")
        assert cfg["tolerances"]["abs_tol"] == pytest.approx(1e-8)
        assert cfg["tolerances"]["rel_tol"] == pytest.approx(1e-7)

    def test_config_tolerances_override_env_per_key(self, monkeypatch):
        monkeypatch.setenv("INGHAM_RATES_TOL", "1e-8")
        text = MINIMAL_KERNEL + "\n[tolerances]\nabs_tol = 1e-12\n"
        cfg = parse_config(text, experiment="kernel_check")
        assert cfg["tolerances"]["abs_tol"] == pytest.approx(1e-12)
        assert cfg["tolerances"]["rel_tol"] == pytest.approx(1e-7)

    @pytest.mark.parametrize("env", ["strict", "inf", "nan"])
    def test_unparseable_env_var_falls_back_to_defaults(self, monkeypatch, env):
        monkeypatch.setenv("INGHAM_RATES_TOL", env)
        cfg = parse_config(MINIMAL_KERNEL, experiment="kernel_check")
        assert cfg["tolerances"] == {"abs_tol": 1e-10, "rel_tol": 1e-9}

    @pytest.mark.parametrize("raw", ["1e400", "inf", "-inf", "nan"])
    def test_int_key_out_of_float_range_is_a_config_error(self, raw):
        text = REGULARITY_CLUSTER.replace("n_modes = 20", f"n_modes = {raw}")
        with pytest.raises(ConfigError,
                           match=rf"\[scenario\] n_modes={raw!r} is not a valid int"):
            parse_config(text, experiment="asymptotic_regularity")

    @pytest.mark.parametrize("section, key", [
        ("tolerances", "abs_tol"), ("tolerances", "rel_tol"), ("scenario", "omega"),
    ])
    @pytest.mark.parametrize("raw", ["inf", "nan", "1e400"])
    def test_non_finite_float_is_a_config_error(self, section, key, raw):
        text = (REGULARITY_CLUSTER + "\n[tolerances]\n").replace(
            f"[{section}]\n", f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text, experiment="asymptotic_regularity")
        assert info.value.errors == [f"[{section}] {key}={raw!r} is not a valid float"]

    def test_kernel_check_requires_closed_form_kernel(self, tmp_path, capsys):
        # every kernel, the bump included, has a closed-form transform
        cfg_path = write_config(tmp_path, "[kernel]\nname = bump\n")
        out = tmp_path / "bump"
        assert cli.main(["kernel", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads((tmp_path / "bump.json").read_text())
        assert payload["passed"] is True
        assert payload["metadata"]["kernel"] == "bump"

    def test_regularity_rejects_fudge_at_parse_time(self):
        text = "[scenario]\nfamily = cluster_zero\n[kernel]\nname = fudge\n"
        with pytest.raises(ConfigError,
                           match="not identically 1 near 0"):
            parse_config(text, experiment="asymptotic_regularity")

    @pytest.mark.parametrize("kernel", cli._KERNELS)
    def test_regularity_admits_exactly_the_plateau_kernels(self, kernel):
        text = f"[scenario]\nfamily = cluster_zero\n[kernel]\nname = {kernel}\n"
        try:
            parse_config(text, experiment="asymptotic_regularity")
            admitted = True
        except ConfigError:
            admitted = False
        made = cli._KERNELS[kernel]()
        plateau = bool(np.all(made.freq(np.linspace(-0.25, 0.25, 11)) == 1.0))
        assert admitted == made.flat_near_zero == plateau

    def test_raw_oracle_requires_high_frequency_variant(self):
        text = "[growth]\nfamily = power\n[bound]\nvariant = zero_ck\n"
        with pytest.raises(ConfigError,
                           match="requires variant infinity_ck or"):
            parse_config(text, experiment="raw_bound_oracle")

    def test_bound_table_variant_requires_rate_sections(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("[bound]\nvariant = zero_infinity_ck\n",
                         experiment="bound_table")
        errors = excinfo.value.errors
        assert "variant zero_infinity_ck requires section [growth]" in errors
        assert "variant zero_infinity_ck requires section [decay]" in errors

    @pytest.mark.parametrize("section,family", [
        (section, family) for section, families in cli._FAMILIES.items() for family in families])
    def test_family_defaults_pass_their_checks_and_build(self, section, family):
        errors = []
        cli._check_family(section, {"family": family}, errors)
        assert errors == []
        model = cli._build(cli.RunConfig("", {section: {"family": family}}), section)
        assert isinstance(model, DiagonalOperator if section == "scenario" else MonotoneFunction)

    def test_family_sections_keep_their_keys_and_types(self):
        assert cli._SCHEMA["scenario"] == {
            "family": "str", "lambda_re": "float", "lambda_im": "float", "alpha": "float",
            "beta": "float", "n_modes": "int", "n_infinity": "int", "n_zero": "int",
            "omega": "float", "orbit": "str"}
        for section in ("growth", "decay"):
            assert cli._SCHEMA[section] == {"family": "str", "alpha": "float", "value": "float"}

    def test_every_bench_universe_op_parses(self, monkeypatch):
        workloads = _bench_workloads(monkeypatch)
        for workload in workloads.WORKLOADS.values():
            for op in workload.universe():
                parse_config(op.ini())

    @pytest.mark.parametrize("text,expected", CONFIG_ERROR_CORPUS.values(),
                             ids=CONFIG_ERROR_CORPUS.keys())
    def test_experiment_rules_keep_their_messages_and_order(self, text, expected):
        # the whole list, in order, is part of the interface
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert excinfo.value.errors == expected

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=0.499))
    def test_admissible_c_accepted_for_smooth_variant(self, c):
        text = BOUND_SMOOTH.replace("c = 0.45", f"c = {c!r}")
        cfg = parse_config(text)
        assert cfg["bound"]["c"] == pytest.approx(c)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=0.5, max_value=8.0))
    def test_inadmissible_c_rejected_for_smooth_variant(self, c):
        text = BOUND_SMOOTH.replace("c = 0.45", f"c = {c!r}")
        with pytest.raises(ConfigError, match="outside admissible interval"):
            parse_config(text)


class TestRawOracle:
    @pytest.mark.parametrize("variant,constant", [("infinity_ck", "k = 2"),
                                                  ("infinity_smooth", "c = 0.45")])
    def test_one_inversion_per_op(self, tmp_path, monkeypatch, variant, constant):
        # the bound evaluation hands its inverses to the raw search, which
        # would otherwise invert the same composition at the same targets
        calls = []
        invert = rate_functions._invert

        def spy(f, y):
            calls.append(y.size)
            return invert(f, y)

        monkeypatch.setattr(rate_functions, "_invert", spy)
        text = (f"[growth]\nfamily = power\nalpha = 1.0\n"
                f"[bound]\nvariant = {variant}\n{constant}\n"
                f"[output]\npath = {tmp_path / 'op'}\n")
        assert cli.run(parse_config(text, experiment="raw_bound_oracle")) == 0
        assert calls == [21]


class TestReports:
    def test_csv_header_and_significant_digits(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_KERNEL)
        out = tmp_path / "kernel"
        assert cli.main(["kernel", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        lines = (tmp_path / "kernel.csv").read_text().splitlines()
        assert lines[0] == "abscissa,measured,reference,ratio"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 4
            # rows are canonical %.12g renderings of their own values
            for field in fields:
                assert field == "{:.12g}".format(float(field))

    def test_ratio_is_nan_where_reference_vanishes(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_KERNEL)
        out = tmp_path / "kernel"
        assert cli.main(["kernel", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        last = (tmp_path / "kernel.csv").read_text().splitlines()[-1]
        abscissa, _, reference, ratio = last.split(",")
        # the tent transform vanishes outside |s| <= 1
        assert float(abscissa) == pytest.approx(2.0)
        assert float(reference) == 0.0
        assert ratio == "nan"

    def test_json_sidecar_round_trips_effective_config(self, tmp_path):
        text = "[experiment]\nname = bound_table\n" + BOUND_CONSTANT
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "table"
        assert cli.main(["bound", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "table.json").read_text())
        assert payload["experiment"] == "bound_table"
        assert payload["passed"] is True
        assert payload["failures"] == []
        assert payload["rows"] == 61
        # defaults the config never mentioned are recorded explicitly
        assert payload["config"]["grid"] == {
            "min": 10.0, "max": 1e4, "points": 61, "spacing": "log"}
        assert payload["config"]["tolerances"]["abs_tol"] == 1e-10
        assert payload["config"]["bound"]["k"] == 2
        assert payload["metadata"]["t_min"] == pytest.approx(2.0)
        assert "bound" in payload["slopes"]
        assert set(payload["slopes"]["bound"]) == {"slope", "stderr"}

    def test_power_law_slope_recorded_within_tolerance(self, tmp_path):
        # on an asymptotic grid the fitted exponent of the k-times
        # differentiable bound matches -k/(alpha*(k+1)+2)
        text = """
[growth]
family = power
alpha = 1.0

[bound]
variant = infinity_ck
k = 1

[grid]
min = 1e4
max = 1e8
points = 41
spacing = log
"""
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "power"
        assert cli.main(["bound", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "power.json").read_text())
        assert payload["metadata"]["expected_slope"] == pytest.approx(-0.25)
        assert payload["slopes"]["bound"]["slope"] == pytest.approx(
            -0.25, abs=0.02)

    def test_out_with_csv_suffix_replaces_extension(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_KERNEL)
        out = tmp_path / "data.csv"
        assert cli.main(["kernel", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "data.json").exists()
        assert not (tmp_path / "data.csv.csv").exists()

    def test_out_without_csv_suffix_appends_extensions(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_KERNEL)
        out = tmp_path / "run.v2"
        assert cli.main(["kernel", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert (tmp_path / "run.v2.csv").exists()
        assert (tmp_path / "run.v2.json").exists()

    def test_format_csv_suppresses_json(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_KERNEL)
        out = tmp_path / "only"
        assert cli.main(["kernel", "--config", str(cfg_path),
                         "--out", str(out), "--format", "csv"]) == 0
        assert (tmp_path / "only.csv").exists()
        assert not (tmp_path / "only.json").exists()

    def test_format_json_suppresses_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_KERNEL)
        out = tmp_path / "only"
        assert cli.main(["kernel", "--config", str(cfg_path),
                         "--out", str(out), "--format", "json"]) == 0
        assert not (tmp_path / "only.csv").exists()
        assert (tmp_path / "only.json").exists()

    @pytest.mark.parametrize("command,text", [
        ("kernel", MINIMAL_KERNEL),
        ("bound", "[experiment]\nname = bound_table\n" + BOUND_CONSTANT),
    ])
    def test_repeated_runs_are_byte_identical(self, tmp_path, command, text):
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "repeat"
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        first_csv = (tmp_path / "repeat.csv").read_bytes()
        first_json = (tmp_path / "repeat.json").read_bytes()
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert (tmp_path / "repeat.csv").read_bytes() == first_csv
        assert (tmp_path / "repeat.json").read_bytes() == first_json


class TestExitCodes:
    def test_model_too_large_to_allocate_exits_two(self, tmp_path, capsys):
        # 8e15 bytes lie beyond a 47-bit address space: the allocation is
        # refused under any overcommit policy, before anything is allocated
        text = ("[scenario]\nfamily = cluster_infinity\nn_modes = 1000000000000000\n"
                "orbit = ainv\n[bound]\nvariant = infinity_smooth\n")
        out = tmp_path / "huge"
        assert cli.run(parse_config(text, experiment="compare_decay",
                                    overrides={"out": str(out)})) == 2
        assert capsys.readouterr().err.startswith(
            "error: [semigroup_lab] MemoryError: Unable to allocate 7.11 PiB")
        assert list(tmp_path.iterdir()) == []

    def test_passing_run_exits_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, PARSEVAL_SINGLE_MODE)
        out = tmp_path / "pv"
        assert cli.main(["parseval", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads((tmp_path / "pv.json").read_text())
        assert payload["passed"] is True

    def test_invariant_failure_exits_one_with_reports(self, tmp_path, capsys):
        # convolving an oscillatory single-mode orbit with an analytic
        # kernel beats the 1/R rate, so R*E(R) is not stable and the
        # invariant honestly fails
        text = """
[scenario]
family = single_mode
lambda_re = -1.0
lambda_im = 1.0
orbit = ainv

[kernel]
name = tent

[r_sweep]
values = 4,8
"""
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "moll"
        assert cli.main(["mollifier", "--config", str(cfg_path),
                         "--out", str(out)]) == 1
        assert "invariant failed" in capsys.readouterr().err
        assert (tmp_path / "moll.csv").exists()
        payload = json.loads((tmp_path / "moll.json").read_text())
        assert payload["passed"] is False
        assert any("stability" in failure for failure in payload["failures"])

    def test_config_error_exits_two_without_files(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BROKEN)
        out = tmp_path / "broken"
        assert cli.main(["decay", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 8
        leftovers = {p.name for p in tmp_path.iterdir()} - {cfg_path.name}
        assert leftovers == set()

    def test_bump_sharpness_above_100_is_a_config_error(self, tmp_path, capsys):
        # the bump is one fixed C^2 plateau with no options, so any
        # sharpness is an unknown key, rejected before any run
        text = PARSEVAL_SINGLE_MODE.replace("name = tent", "name = bump\nsharpness = 200")
        cfg_path = write_config(tmp_path, text)
        rc = cli.main(["parseval", "--config", str(cfg_path),
                       "--out", str(tmp_path / "sharp")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: unknown key 'sharpness' in section [kernel]" in err
        assert "ValueError" not in err
        assert {p.name for p in tmp_path.iterdir()} == {cfg_path.name}

    def test_int_overflow_exits_two_without_files(self, tmp_path, capsys):
        text = REGULARITY_CLUSTER.replace("n_modes = 20", "n_modes = 1e400")
        cfg_path = write_config(tmp_path, text)
        rc = cli.main(["regularity", "--config", str(cfg_path),
                       "--out", str(tmp_path / "reg")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: [scenario] n_modes='1e400' is not a valid int" in err
        assert "Traceback" not in err
        assert {p.name for p in tmp_path.iterdir()} == {cfg_path.name}

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        rc = cli.main(["kernel", "--config", str(tmp_path / "absent.ini")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_grid_below_validity_threshold_exits_two(self, tmp_path, capsys):
        # power growth with k = 1 and c = 1 is valid only from t = 16 on;
        # the default grid starts at 10, so the run is rejected
        text = """
[growth]
family = power
alpha = 1.0

[bound]
variant = infinity_ck
k = 1
c = 1.0
"""
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "early"
        assert cli.main(["bound", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert "validity threshold" in capsys.readouterr().err
        assert not (tmp_path / "early.csv").exists()
        assert not (tmp_path / "early.json").exists()

    @pytest.mark.parametrize("error,rc,reports", [
        (SearchBracketError("minimiser pinned at the search boundary"), 2, False),
        (NonConvergenceError("oscillatory tail integration did not converge"), 1, True),
    ], ids=["search_bracket", "non_convergence"])
    def test_only_non_convergence_exits_one(self, tmp_path, capsys, monkeypatch,
                                            error, rc, reports):
        # a raw-oracle search failure is not a quadrature failure: it exits
        # 2 under its own class name and writes no reports
        def failing(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "raw_bound_ck", failing)
        cfg_path = write_config(tmp_path, BOUND_CONSTANT)
        out = tmp_path / "oracle"
        assert cli.main(["oracle", "--config", str(cfg_path),
                         "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert str(error) in err
        assert (type(error).__name__ in err) == (not reports)
        assert (tmp_path / "oracle.csv").exists() == reports
        assert (tmp_path / "oracle.json").exists() == reports

    def test_runtime_error_names_the_failing_layer(self, tmp_path, capsys):
        # with 20 modes the ainv orbit's maximising mode reaches the
        # truncated half of the family before t = 1e4, which compare_decay
        # in the verify layer rejects
        text = """
[scenario]
family = cluster_infinity
alpha = 1.0
n_modes = 20
orbit = ainv

[bound]
variant = infinity_smooth
"""
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "short"
        assert cli.main(["decay", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [verify] TruncationRangeError: maximising mode")
        assert not (tmp_path / "short.csv").exists()

    def test_unwritable_output_path_exits_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, MINIMAL_KERNEL)
        out = tmp_path / "no" / "such" / "dir" / "report"
        assert cli.main(["kernel", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert "cannot write reports" in capsys.readouterr().err

    @pytest.mark.parametrize("command,experiment", sorted(
        (record.command, name) for name, record in cli.EXPERIMENTS.items()))
    def test_each_subcommand_names_its_experiment(self, command, experiment,
                                                  capsys):
        # with no config every experiment is missing a required section,
        # and the error message names the experiment the subcommand maps to
        assert cli.main([command]) == 2
        err = capsys.readouterr().err
        assert f"experiment {experiment} requires section" in err

    def test_seed_flag_is_refused(self, tmp_path, capsys):
        # every computation is deterministic, so there is no seed to set
        cfg_path = write_config(tmp_path, MINIMAL_KERNEL)
        with pytest.raises(SystemExit) as exc:
            cli.main(["kernel", "--config", str(cfg_path),
                      "--out", str(tmp_path / "seeded"), "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not list(tmp_path.glob("seeded*"))


class TestPinnedReports:
    def test_rate_bounds_universe_matches_recorded_digests(self, tmp_path, monkeypatch):
        # every op the rate_bounds benchmark can draw, through the same
        # entry points, against the report digests recorded for it
        workloads = _bench_workloads(monkeypatch)
        recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("INGHAM_RATES_TOL", raising=False)
        (tmp_path / "bench" / "_work").mkdir(parents=True)
        base = tmp_path / workloads.REPORT_BASE
        changed = []
        for op in workloads.WORKLOADS["rate_bounds"].universe():
            assert cli.run(parse_config(op.ini())) in (0, 1)
            digests = [hashlib.sha256(base.with_suffix(suffix).read_bytes()).hexdigest()
                       for suffix in (".csv", ".json")]
            if digests != recorded[op.key]:
                changed.append(op.params)
        assert changed == []
