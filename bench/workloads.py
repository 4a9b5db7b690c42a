"""Seeded workload definitions for the benchmark.

A workload is a list of op families.  Each family names one experiment
and a finite grid of parameter choices; an op is one draw from that grid,
rendered as the INI text that ``ingham_rates.cli.parse_config`` reads.
The program receives nothing but that text.

The op stream of a workload is a sequence of blocks.  A block holds a
fixed number of ops of every family (usually one), in a shuffled order.
Parameters are drawn from decks: each deck deals a random permutation of
its choices and reshuffles when it runs out, so every run covers the
parameter ranges evenly.  The same seed always yields the same stream.

Because every grid is finite, the set of ops a workload can ever draw
(its universe) is finite too; ``run.py --record-digests`` runs each of
them once to record the report digests that later runs compare against.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from oracles import DEFAULT_C, bound_t_min

REPORT_BASE = "bench/_work/op"


@dataclass(frozen=True)
class Op:
    """One experiment invocation: its family, drawn parameters and sections."""

    family: str
    params: tuple  # ((name, value), ...) in grid order
    sections: tuple  # ((section, ((key, value), ...)), ...)

    @property
    def experiment(self) -> str:
        return dict(self.sections)["experiment"][0][1]

    def param(self, name: str):
        return dict(self.params)[name]

    def section(self, name: str) -> dict:
        return dict(dict(self.sections).get(name, ()))

    def ini(self) -> str:
        lines = []
        for section, items in self.sections:
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in items)
            lines.append("")
        lines += ["[output]", f"path = {REPORT_BASE}", ""]
        return "\n".join(lines)

    @property
    def key(self) -> str:
        return hashlib.sha256(self.ini().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Family:
    name: str
    grid: tuple  # ((param, (choice, ...)), ...)
    build: Callable[[dict], list]  # params -> [(section, [(key, value)])]
    per_block: int = 1

    def make(self, params: dict) -> Op:
        sections = tuple((sec, tuple(items)) for sec, items in self.build(params))
        ordered = tuple((name, params[name]) for name, _ in self.grid)
        return Op(self.name, ordered, sections)

    def universe(self) -> list:
        names = [name for name, _ in self.grid]
        return [self.make(dict(zip(names, combo)))
                for combo in itertools.product(*(choices for _, choices in self.grid))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: tuple
    kernels: tuple  # kernels a fresh process cold-builds during set-up
    traced_blocks_per_second: float

    def universe(self) -> list:
        return [op for fam in self.families for op in fam.universe()]


class _Deck:
    """Deals the choices in random permutations, reshuffling when empty."""

    def __init__(self, rng: random.Random, choices: tuple):
        self._rng = rng
        self._choices = list(choices)
        self._hand: list = []

    def deal(self):
        if not self._hand:
            self._hand = list(self._choices)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def blocks(workload: Workload, seed: int) -> Iterator[list]:
    """Endless seeded stream of blocks, each ``per_block`` ops of every family."""
    rng = random.Random(f"{workload.name}:{seed}")
    decks = {fam.name: {name: _Deck(rng, choices) for name, choices in fam.grid}
             for fam in workload.families}
    while True:
        ops = [fam.make({name: deck.deal() for name, deck in decks[fam.name].items()})
               for fam in workload.families for _ in range(fam.per_block)]
        rng.shuffle(ops)
        yield ops


# -- parameter helpers ---------------------------------------------------------


def _bound_items(bound: tuple) -> list:
    variant, k = bound
    items = [("variant", variant)]
    if k is not None:
        items.append(("k", k))
    return items


def _experiment(name: str) -> tuple:
    return ("experiment", [("name", name)])


def _log_grid(lo, hi, points) -> tuple:
    return ("grid", [("min", lo), ("max", hi), ("points", points), ("spacing", "log")])


# -- decay_envelope ------------------------------------------------------------
# compare_decay on the three eigenvalue families.  The resolvent envelope
# build dominates the cluster_infinity ops and the bound inversion on the
# tabulated rates dominates the cluster_zero ops, so smaller certified
# envelopes (ROADMAP item 3) show here in op time and memory.  A block
# holds two ops each of the short cluster_zero and the middling mixed
# family, so that a run holds over 100 ops (ten beyond the 90th
# percentile) and the median falls inside the mixed family's times, not
# on the edge between two families, where it would jump with the mix.


def _cluster_infinity_decay(p: dict) -> list:
    alpha, n = p["alpha"], p["n_modes"]
    # ainv amplitudes peak at mode (alpha t)^(1/alpha); keep it in the
    # first half of the family up to the grid's end
    t_max = min(1e4, float(int(0.8 * (n / 2.0) ** alpha / alpha)))
    return [
        _experiment("compare_decay"),
        ("scenario", [("family", "cluster_infinity"), ("alpha", alpha),
                      ("n_modes", n), ("orbit", "ainv")]),
        ("bound", _bound_items(p["bound"])),
        _log_grid(10, t_max, p["points"]),
    ]


def _cluster_zero_decay(p: dict) -> list:
    # ar_omega amplitudes peak at mode sqrt(2 t) <= 142 < N/2 for t <= 1e4
    return [
        _experiment("compare_decay"),
        ("scenario", [("family", "cluster_zero"), ("beta", 2),
                      ("n_modes", p["n_modes"]), ("orbit", "ar_omega")]),
        ("bound", _bound_items(p["bound"])),
        _log_grid(10, 10000, p["points"]),
    ]


def _mixed_decay(p: dict) -> list:
    # ar_omega_sq: the cluster_zero family carries the orbit maximum at
    # every grid time, so a few-mode high-frequency family stays valid
    return [
        _experiment("compare_decay"),
        ("scenario", [("family", "mixed_cluster"), ("alpha", p["alpha"]),
                      ("beta", 2), ("n_infinity", p["n_infinity"]),
                      ("n_zero", p["n_zero"]), ("orbit", "ar_omega_sq")]),
        ("bound", _bound_items(p["bound"])),
        _log_grid(20, 10000, p["points"]),
    ]


DECAY_ENVELOPE = Workload(
    name="decay_envelope",
    why="compare_decay on three eigenvalue families: envelope build and bound"
        " inversion on tabulated rates",
    families=(
        Family("cluster_infinity", (
            ("alpha", (1.0, 1.25, 1.5)),
            ("n_modes", (10000, 15000, 20000, 25000, 30000, 35000, 40000)),
            ("bound", (("infinity_smooth", None), ("infinity_ck", 1), ("infinity_ck", 2))),
            ("points", (41, 61)),
        ), _cluster_infinity_decay),
        Family("cluster_zero", (
            ("n_modes", (1000, 1500, 2000, 2500, 3000, 3500, 4000)),
            ("bound", (("zero_smooth", None), ("zero_ck", 1), ("zero_ck", 2))),
            ("points", (41, 61)),
        ), _cluster_zero_decay, per_block=2),
        Family("mixed_cluster", (
            ("alpha", (1.0, 1.5)),
            ("n_infinity", (16, 128, 1024, 8192)),
            ("n_zero", (1000, 2000, 4000)),
            ("bound", (("zero_infinity_smooth", None), ("zero_infinity_ck", 1))),
            ("points", (41, 61)),
        ), _mixed_decay, per_block=2),
    ),
    kernels=(),
    traced_blocks_per_second=0.27,
)


# -- defect_tent ---------------------------------------------------------------
# The convolution defect engine on the closed-form tent kernel: it is
# nearly the whole regularity op, and it is the mechanism ROADMAP item 2
# replaces.  kernel_check and parseval keep the closed-form transform and
# the Parseval identity measured on the same kernels.  Four regularity ops
# per block put the median inside their broad spread of times (N from 200
# to 1000): a quantile that falls in a narrow band of near-equal ops, such
# as the mollifier ops, jumps between runs with the machine's speed.


def _regularity(p: dict) -> list:
    return [
        _experiment("asymptotic_regularity"),
        ("scenario", [("family", "cluster_zero"), ("beta", p["beta"]),
                      ("n_modes", p["n_modes"]), ("orbit", p["orbit"])]),
        ("kernel", [("name", "tent")]),
        _log_grid(10, 1000, p["points"]),
    ]


def _mollifier(p: dict) -> list:
    return [
        _experiment("mollifier_rate"),
        ("scenario", [("family", "cluster_zero"), ("beta", p["beta"]),
                      ("n_modes", p["n_modes"]), ("orbit", p["orbit"])]),
        ("kernel", [("name", "tent")]),
    ]


def _kernel_check(p: dict) -> list:
    return [
        _experiment("kernel_check"),
        ("kernel", [("name", p["kernel"])]),
        ("grid", [("min", 0), ("max", p["s_max"]), ("points", p["points"]),
                  ("spacing", "linear")]),
    ]


def _parseval(p: dict) -> list:
    return [
        _experiment("parseval"),
        ("scenario", [("family", "cluster_zero"), ("beta", 2),
                      ("n_modes", p["n_modes"]), ("orbit", "vector")]),
        ("kernel", [("name", p["kernel"])]),
    ]


DEFECT_TENT = Workload(
    name="defect_tent",
    why="convolution defect engine on the closed-form tent kernel, plus"
        " kernel_check and parseval on tent and fudge",
    families=(
        Family("regularity", (
            ("beta", (1.5, 2.0, 2.5, 3.0)),
            ("n_modes", (200, 400, 600, 800, 1000)),
            ("points", (21, 31, 41)),
            ("orbit", ("vector", "ainv")),
        ), _regularity, per_block=4),
        Family("mollifier", (
            ("beta", (1.5, 2.0, 3.0)),
            ("n_modes", (1, 2, 4, 8)),
            ("orbit", ("vector", "ar_omega")),
        ), _mollifier),
        Family("kernel_check", (
            ("kernel", ("tent", "fudge")),
            ("s_max", (2, 3)),
            ("points", (9, 17, 33)),
        ), _kernel_check),
        Family("parseval", (
            ("kernel", ("tent", "fudge")),
            ("n_modes", (1, 2, 4)),
        ), _parseval),
    ),
    kernels=("tent", "fudge"),
    traced_blocks_per_second=0.2,
)


# -- rate_bounds ---------------------------------------------------------------
# Pure rate_functions work on closed-form rates: the scalar bisection in
# RateBound.__call__ for all six variants and the per-point Python grid
# of the raw two-term oracles (ROADMAP item 4).  No envelope or kernel.
# The raw oracle ops set the 90th percentile.  Their cost is proportional
# to the grid size, so grids of 11 to 31 points (21 on average) spread
# their times; ops of nearly equal cost would make that percentile jump
# between runs with the machine's speed.

_GROWTH = tuple((fam, a) for fam in ("power", "exponential") for a in (0.5, 1, 2))
_DECAY = _GROWTH
_CK = (1, 2, 3)
_RAW_POINTS = (11, 16, 21, 26, 31)


def _rate_items(section: str, rate: tuple) -> tuple:
    return (section, [("family", rate[0]), ("alpha", rate[1])])


def _rate_bound(variant: str, p: dict) -> list:
    return _bound_items((variant, p.get("k"))) + [("c", DEFAULT_C[variant])]


def _bound_table(variant: str) -> Callable[[dict], list]:
    def build(p: dict) -> list:
        sections = [_experiment("bound_table"), ("bound", _rate_bound(variant, p))]
        if "growth" in p:
            sections.append(_rate_items("growth", p["growth"]))
        if "decay" in p:
            sections.append(_rate_items("decay", p["decay"]))
        t_min = bound_t_min(variant, p.get("growth"), p.get("decay"), p.get("k"))
        sections.append(_log_grid(_grid_start(t_min), 10000, 61))
        return sections
    return build


def _grid_start(t_min: float) -> int:
    """10, or the first whole number 5% inside the bound's domain."""
    return max(10, math.ceil(1.05 * t_min))


def _raw_oracle(variant: str) -> Callable[[dict], list]:
    def build(p: dict) -> list:
        return [_experiment("raw_bound_oracle"),
                ("bound", _rate_bound(variant, p)),
                _rate_items("growth", p["growth"]),
                _log_grid(100, 10000, p["points"])]
    return build


def _rate_family(name, variant, builder, *, growth=False, decay=False, ck=False,
                 points=()):
    grid = []
    if growth:
        grid.append(("growth", _GROWTH))
    if decay:
        grid.append(("decay", _DECAY))
    if ck:
        grid.append(("k", _CK))
    if points:
        grid.append(("points", points))
    return Family(name, tuple(grid), builder(variant))


RATE_BOUNDS = Workload(
    name="rate_bounds",
    why="bound_table for all six variants and the raw oracles on closed-form"
        " rates: bisection and per-point grids, no envelope or kernel",
    families=(
        _rate_family("infinity_ck", "infinity_ck", _bound_table, growth=True, ck=True),
        _rate_family("infinity_smooth", "infinity_smooth", _bound_table, growth=True),
        _rate_family("zero_ck", "zero_ck", _bound_table, decay=True, ck=True),
        _rate_family("zero_smooth", "zero_smooth", _bound_table, decay=True),
        _rate_family("zero_infinity_ck", "zero_infinity_ck", _bound_table,
                     growth=True, decay=True, ck=True),
        _rate_family("zero_infinity_smooth", "zero_infinity_smooth", _bound_table,
                     growth=True, decay=True),
        _rate_family("raw_ck", "infinity_ck", _raw_oracle, growth=True, ck=True,
                     points=_RAW_POINTS),
        _rate_family("raw_smooth", "infinity_smooth", _raw_oracle, growth=True,
                     points=_RAW_POINTS),
    ),
    kernels=(),
    traced_blocks_per_second=0.4,
)


WORKLOADS = {w.name: w for w in (DECAY_ENVELOPE, DEFECT_TENT, RATE_BOUNDS)}
