"""Tests of the benchmark itself: oracles, self-time arithmetic, seeding.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ingham_rates import cluster_zero, mixed_cluster, resolvent_envelope_decay  # noqa: E402
from ingham_rates import resolvent_envelope_growth  # noqa: E402


def _op(family: str, **params) -> workloads.Op:
    for workload in workloads.WORKLOADS.values():
        for fam in workload.families:
            if fam.name == family:
                return fam.make(params)
    raise KeyError(family)


def _rows(*columns) -> np.ndarray:
    cols = [np.asarray(c, dtype=float) for c in columns]
    while len(cols) < 4:
        cols.append(np.ones_like(cols[0]))
    return np.column_stack(cols)


def _unknown(failures) -> list:
    return [f for f in failures if f.known is None]


# -- planted wrong values trip each oracle -------------------------------------------


def test_orbit_check_trips_on_a_planted_value():
    op = _op("cluster_zero", n_modes=1000, bound=("zero_ck", 1), points=41)
    sc = op.section("scenario")
    lam = oracles.eigenvalues(sc)
    amp = np.abs(oracles.weights(sc, lam))
    ts = np.geomspace(10.0, 1e4, 41)
    exact = np.array([np.max(amp * np.exp(lam.real * t)) for t in ts])
    assert oracles.check_orbit(op, _rows(ts, exact)) == []
    planted = exact.copy()
    planted[20] *= 1.0 + 1e-7
    assert _unknown(oracles.check_orbit(op, _rows(ts, planted)))


def test_envelope_check_trips_on_a_planted_value():
    op = _op("mixed_cluster", alpha=1.0, n_infinity=16, n_zero=1000,
             bound=("zero_infinity_ck", 1), points=41)
    operator = mixed_cluster(1.0, 2.0, 16, 1000)
    growth = resolvent_envelope_growth(operator, s_min=1.0)
    decay = resolvent_envelope_decay(operator)
    honest = [("growth", 1.0, growth), ("decay", 0.0, decay)]
    assert _unknown(oracles.check_envelope(op, honest)) == []
    low = [("growth", 1.0, lambda R: 0.9 * growth(R)), ("decay", 0.0, decay)]
    failures = oracles.check_envelope(op, low)
    assert _unknown(failures) and failures[0].layer == "semigroup_lab"


def test_resolvent_norm_matches_brute_force():
    rng = np.random.default_rng(0)
    for operator in (mixed_cluster(1.0, 2.0, 64, 300), cluster_zero(1.5, 500)):
        lam = operator.eigenvalues
        s = np.concatenate([rng.uniform(-3.0, 70.0, 2000), np.abs(lam.imag)[:50], [0.0]])
        brute = 1.0 / np.min(np.abs(1j * s[:, None] - lam[None, :]), axis=1)
        assert oracles.resolvent_norm(lam, s) == pytest.approx(brute, rel=1e-14)


def test_exact_envelope_matches_a_dense_scan():
    lam = cluster_zero(2.0, 6).eigenvalues
    for r in (0.2, 0.45, 0.9):
        half = np.linspace(r, 1.0, 20001)
        s = np.concatenate([half, -half])
        dense = np.max(1.0 / np.min(np.abs(1j * s[:, None] - lam[None, :]), axis=1))
        got = oracles.exact_envelope(lam, np.array([r]), np.array([1.0]))[0]
        assert got >= dense * (1.0 - 1e-12)
        assert got == pytest.approx(dense, rel=1e-6)


def test_defect_check_trips_on_a_planted_value_and_names_clipped_modes():
    op = _op("regularity", beta=2.0, n_modes=200, points=21, orbit="vector")
    lam = oracles.eigenvalues(op.section("scenario"))
    ts = np.geomspace(10.0, 1e3, 21)
    truth = np.array([max(oracles.frequency_defect(lam[n], 1.0, t) for n in range(3))
                      if i in (0, 10, 20) else 1.0 for i, t in enumerate(ts)])
    assert oracles.check_defect(op, _rows(ts, truth)) == []
    low = truth.copy()
    low[0] *= 0.5  # t = 10: no mode is clipped there
    failures = oracles.check_defect(op, _rows(ts, low))
    assert _unknown(failures) and failures[0].layer == "verify"
    # at t = 1e3 modes 2 and 3 have |Re lambda| t > 45: the engine's
    # documented clipping, so a shortfall there is a known defect
    late = truth.copy()
    late[20] = 0.5 * truth[20]
    assert all(f.known == "defect_clip" for f in oracles.check_defect(op, _rows(ts, late)))


def test_frequency_defect_matches_the_time_domain_for_one_mode():
    # f - f*phi = w e^{lambda t} (1 - J(t)); at small t the tent kernel's
    # J(t) is a plain integral we can take with quad on a long window
    from scipy.integrate import quad

    lam, t = -0.3 + 0.8j, 3.0
    phi = lambda u: 2.0 * (math.cos(u / 2) - math.cos(u)) / (math.pi * u * u)  # noqa: E731
    re = quad(lambda u: phi(u) * (math.exp(-lam.real * u) * math.cos(-lam.imag * u)),
              -60.0, t, limit=2000, points=[0.0])[0]
    im = quad(lambda u: phi(u) * (math.exp(-lam.real * u) * math.sin(-lam.imag * u)),
              -60.0, t, limit=2000, points=[0.0])[0]
    direct = abs(np.exp(lam * t) * (1.0 - (re + 1j * im)))
    assert oracles.frequency_defect(lam, 1.0, t) == pytest.approx(direct, rel=1e-3)


def _invert(f, y, lo, hi):
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if f(mid) < y else (lo, mid)
    return math.sqrt(lo * hi)


@pytest.mark.parametrize("variant,section", [("infinity_ck", "growth"), ("zero_smooth", "decay")])
def test_inversion_check_trips_on_a_planted_value(variant, section):
    family = variant
    params = {section: ("power", 1), **({"k": 2} if variant.endswith("_ck") else {})}
    op = _op(family, **params)
    c = oracles.DEFAULT_C[variant]
    k = params.get("k")
    ts = np.geomspace(100.0, 1e4, 11)
    if section == "growth":
        f = lambda R: float(oracles.composed(variant, "growth", ("power", 1), k, R))  # noqa: E731
        b = np.array([1.0 / _invert(f, c * t, 1.0, 1e12) for t in ts])
    else:
        f = lambda w: float(oracles.composed(variant, "decay", ("power", 1), k, 1.0 / w))  # noqa: E731
        b = np.array([1.0 / _invert(f, c * t, 1.0, 1e12) + 1.0 / t for t in ts])
    assert oracles.check_inversion(op, _rows(ts, b), c, k) == []
    b[5] *= 1.0 + 1e-5
    assert _unknown(oracles.check_inversion(op, _rows(ts, b), c, k))


def test_raw_check_trips_on_a_planted_value():
    op = _op("raw_ck", growth=("power", 1), k=1, points=21)
    ts = np.array([100.0, 1e3, 1e4])
    u = np.linspace(0.0, math.log(1e6), 200001)
    best = np.array([math.exp(float(np.min(
        oracles.raw_objective_log("infinity_ck", ("power", 1), 1, 1.0, t, u)))) for t in ts])
    assert oracles.check_raw(op, _rows(ts, best), 1.0, 1) == []
    best[1] *= 1.001
    assert _unknown(oracles.check_raw(op, _rows(ts, best), 1.0, 1))


def test_kernel_check_trips_on_a_planted_value():
    op = _op("kernel_check", kernel="tent", s_max=2, points=9)
    s = np.linspace(0.0, 2.0, 9)
    exact = oracles.exact_transform("tent", s)
    assert oracles.check_kernel(op, _rows(s, exact, exact)) == []
    off = exact.copy()
    off[3] += 1e-5
    assert _unknown(oracles.check_kernel(op, _rows(s, off, exact)))


def test_structure_check_trips_on_a_wrong_header():
    op = _op("kernel_check", kernel="tent", s_max=2, points=9)
    body = "".join(f"{s:g},1,1,1\n" for s in np.linspace(0.0, 2.0, 9))
    payload = '{"rows": 9, "passed": true}'
    fails, _, _ = oracles.check_structure(op, 0, oracles.CSV_HEADER + "\n" + body, payload)
    assert fails == []
    fails, _, _ = oracles.check_structure(op, 0, "s,value\n" + body, payload)
    assert fails and fails[0].layer == "cli"


# -- self-time arithmetic ------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [5, 9]; the second child has
    # a grandchild [6, 8]; a third child [3, 6] overlaps the first two
    spans = [
        [0, -1, 0, "bench.op", 0.0, 10.0],
        [1, 0, 0, "a", 1.0, 4.0],
        [2, 0, 0, "b", 5.0, 9.0],
        [3, 2, 0, "c", 6.0, 8.0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])
    assert tracing.unaccounted(spans) == pytest.approx(0.0)
    assert tracing.layer_totals(spans)["b"] == pytest.approx(2.0)
    overlapping = spans + [[4, 0, 0, "d", 3.0, 6.0]]
    assert tracing.self_times(overlapping)[0] == pytest.approx(10.0 - 8.0)
    # a child reaching past its parent only covers the parent's part
    clipped = [[0, -1, 1, "bench.op", 0.0, 2.0], [1, 0, 1, "a", 1.0, 5.0]]
    assert tracing.self_times(clipped)[0] == pytest.approx(1.0)


def test_recorder_spans_nest_and_account_for_the_op():
    rec = tracing.Recorder()

    def inner():
        sid = rec.open("layer")
        rec.count("layer.calls")
        rec.close(sid)
        return 7

    assert rec.run_op(0, inner) == 7
    assert [s[3] for s in rec.spans] == ["bench.op", "layer"]
    assert rec.spans[1][1] == 0 and rec.counts[(0, "layer.calls")] == 1
    assert tracing.unaccounted(rec.spans) < 1e-12
    rec.count("outside")  # no op is running: nothing is recorded
    assert all(name != "outside" for _, name in rec.counts)


# -- metric names ---------------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_run_prints():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.E2E_NAMES
    assert tuple(m["name"] for m in spec["per_layer"]) == run.PER_LAYER_NAMES
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


# -- seeding ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops(name):
    workload = workloads.WORKLOADS[name]

    def draw(seed):
        stream = workloads.blocks(workload, seed)
        return [op for block in itertools.islice(stream, 12) for op in block]

    assert [op.ini() for op in draw(7)] == [op.ini() for op in draw(7)]
    assert [op.ini() for op in draw(7)] != [op.ini() for op in draw(8)]
    assert {op.key for op in draw(7)} <= {op.key for op in workload.universe()}


def test_decks_cover_every_choice_before_repeating():
    workload = workloads.WORKLOADS["decay_envelope"]
    stream = workloads.blocks(workload, 3)
    sizes = [op.param("n_modes") for block in itertools.islice(stream, 7)
             for op in block if op.family == "cluster_infinity"]
    assert sorted(sizes) == [10000, 15000, 20000, 25000, 30000, 35000, 40000]
