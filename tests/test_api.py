"""Tests for the package's public names: exports and the benchmark's hooks."""

from pathlib import Path

import pytest

import ingham_rates
from ingham_rates import cli, kernels, quadrature, rate_functions, semigroup_lab, verify

MODULES = (quadrature, rate_functions, kernels, semigroup_lab, verify)
BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module", (ingham_rates,) + MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(module.__all__) == len(set(module.__all__))


def test_package_exports_are_the_union_of_the_modules():
    union = {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert set(ingham_rates.__all__) == union


def test_bench_tracing_hooks_install_and_restore(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    owners = (cli, verify, kernels, quadrature, rate_functions, rate_functions.RateBound,
              rate_functions.MonotoneFunction, rate_functions.ComposedRate)
    before = [dict(vars(owner)) for owner in owners]
    rec = tracing.Recorder()
    restore = tracing.install(rec, {"cli": cli, "verify": verify, "kernels": kernels,
                                    "quadrature": quadrature,
                                    "rate_functions": rate_functions})
    try:
        patched = [(owner, name) for owner, saved in zip(owners, before)
                   for name, value in saved.items() if vars(owner)[name] is not value]
        assert (cli, "run") in patched
        assert (rate_functions.ComposedRate, "__call__") in patched
        text = ("[growth]\nfamily = power\nalpha = 1.0\n"
                "[bound]\nvariant = infinity_smooth\nc = 0.45\n"
                f"[output]\npath = {tmp_path / 'op'}\n")
        rc = rec.run_op(0, lambda: cli.run(cli.parse_config(text, experiment="bound_table")))
        assert rc == 0
        assert rec.counts[(0, "rate_functions.rate_evals")] > 0
    finally:
        restore()
    for owner, saved in zip(owners, before):
        for name, value in saved.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"
