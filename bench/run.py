#!/usr/bin/env python3
"""Benchmark of the ingham-rates experiment runner.

Run from the repository root::

    python3 bench/run.py --workload decay_envelope --seed 1 --seconds 30 --trace 0

One process runs the workload's seeded ops as a closed loop: one caller,
each op starting after the previous one finished.  An op is one
``cli.parse_config`` plus ``cli.run`` on generated INI text (parse, build
the scenario, kernel and bound, compute, write CSV and JSON).  Ops run in
whole blocks until their timed seconds add up to ``--seconds``.  After each op, outside the
timed region, its reports are checked against the independent oracles of
``oracles.py`` and their SHA-256 digests against ``digests.json``.

``--trace 0`` prints the end-to-end metrics: set-up time (fresh
interpreters importing ``ingham_rates.cli`` and building the workload's
kernels), the median and 90th percentile op time, and the peak resident
memory of this process.  ``--trace 1`` runs a fixed list of blocks, each
op once plain and once with spans around the package's public functions,
and prints the per-layer metrics: self time and work counts per op,
import times, the cold bump-kernel build, oracle failures per layer and
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, every op with its digests and failures) goes to
``bench/_work/``.  ``--record-digests`` runs every op a workload can draw
once and rewrites ``digests.json``.
"""

from __future__ import annotations

import os

# one BLAS thread: the load is a single closed-loop caller
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("INGHAM_RATES_TOL", None)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
DIGESTS = BENCH / "digests.json"

SETUP_PROCESSES = 4
PROBE_PROCESSES = 3
CHILD_TIMEOUT_S = 120

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import ingham_rates.cli
from ingham_rates import kernels
for name in sys.argv[1:]:
    getattr(kernels, name + "_kernel")()
print(time.perf_counter() - t0)
"""

BUMP_BUILD_CODE = """
import time
from ingham_rates.kernels import bump_kernel
t0 = time.perf_counter()
bump_kernel()
print(time.perf_counter() - t0)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _child(args: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)


def fresh_seconds(code: str, *argv: str) -> float:
    return float(_child(["-c", code, *argv]).stdout.strip())


def import_times() -> dict:
    """Cumulative import time of the package and of scipy.interpolate."""
    out = _child(["-X", "importtime", "-c", "import ingham_rates.cli"]).stderr
    found = {"ingham_rates": 0.0, "scipy.interpolate": 0.0}
    for line in out.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in found:
            found[parts[2].strip()] = int(parts[1]) * 1e-6
    return found


# -- environment -----------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or commit
    files = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        tree.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "src_lines": lines,
    }


# -- ops ------------------------------------------------------------------------------


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs ops through the public CLI entry points and checks their reports."""

    def __init__(self, workload, recorded: dict):
        from ingham_rates import cli, kernels, quadrature, rate_functions, verify

        self.workload = workload
        self.modules = {"cli": cli, "verify": verify, "kernels": kernels,
                        "quadrature": quadrature, "rate_functions": rate_functions}
        self.recorded = recorded
        self.records: list = []
        self._verdicts: dict = {}
        self._captured: list = []
        self.csv_path = ROOT / (workloads.REPORT_BASE + ".csv")
        self.json_path = ROOT / (workloads.REPORT_BASE + ".json")

    def timed(self, op, recorder=None) -> tuple:
        """Run one op; returns (seconds, exit code or None, error text)."""
        cli = self.modules["cli"]
        text = op.ini()
        self._captured.clear()
        for path in (self.csv_path, self.json_path):
            path.unlink(missing_ok=True)
        sink = io.StringIO()

        def call():
            return cli.run(cli.parse_config(text))

        with contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = call() if recorder is None else recorder.run_op(len(self.records), call)
            except Exception as exc:  # the op failed; record it and go on
                elapsed = time.perf_counter() - start
                return elapsed, None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return elapsed, rc, sink.getvalue().strip()

    def digests(self) -> tuple:
        if not (self.csv_path.is_file() and self.json_path.is_file()):
            return None
        return _sha(self.csv_path), _sha(self.json_path)

    def run(self, op) -> dict:
        """Time one op, then check it outside the timed region."""
        capture = (tracing.capture_envelopes(self.modules["verify"], self._captured)
                   if op.experiment == "compare_decay" else None)
        try:
            seconds, rc, err = self.timed(op)
        finally:
            if capture is not None:
                capture()
        digests = self.digests() if rc in (0, 1) else None
        if rc not in (0, 1):
            failures = [oracles.Failure("cli", f"exit code {rc}: {err[:300]}")]
        elif digests is None:
            failures = [oracles.Failure("cli", "reports missing")]
        else:
            failures = self._check(op, rc, digests)
        record = {
            "family": op.family, "params": [list(p) for p in op.params], "key": op.key,
            "seconds": seconds, "rc": rc, "digests": digests,
            "changed": digests is None or self.recorded.get(op.key) != list(digests),
            "failures": [[f.layer, f.message, f.known] for f in failures],
        }
        self.records.append(record)
        return record

    def _check(self, op, rc: int, digests: tuple) -> list:
        # an identical report of the same op gets the same verdict; the
        # envelope check depends on the captured envelope, so it always runs
        cacheable = op.experiment != "compare_decay"
        key = (op.key, rc) + digests
        if cacheable and key in self._verdicts:
            return self._verdicts[key]
        failures = oracles.check_op(op, rc, self.csv_path.read_text(encoding="utf-8"),
                                    self.json_path.read_text(encoding="utf-8"),
                                    list(self._captured))
        if cacheable:
            self._verdicts[key] = failures
        return failures


def _failed(record: dict) -> bool:
    return bool(record["failures"])


def _unknown_failures(records: list) -> int:
    return sum(1 for r in records for f in r["failures"] if f[2] is None)


def _warm_up(runner: Runner) -> None:
    """One op of every family, untimed, so lazy imports and caches fill."""
    for family in runner.workload.families:
        runner.timed(family.universe()[0])


def _percentile(values: list, q: float) -> tuple:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# -- modes ------------------------------------------------------------------------------


def end_to_end(workload, seed: int, seconds: float, recorded: dict) -> tuple:
    setup = [fresh_seconds(SETUP_CODE, *workload.kernels) for _ in range(SETUP_PROCESSES)]
    runner = Runner(workload, recorded)
    _warm_up(runner)
    stream = workloads.blocks(workload, seed)
    measured, n_blocks = 0.0, 0
    while measured < seconds:  # whole blocks; checks do not count
        for op in next(stream):
            measured += runner.run(op)["seconds"]
        n_blocks += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [r["seconds"] for r in runner.records]
    p90, beyond = _percentile(times, 0.9)
    n = len(times)
    failed = sum(map(_failed, runner.records))
    rows = [
        ("setup_s", statistics.median(setup), "s", f"{len(setup)} fresh processes"),
        ("op_s.p50", statistics.median(times), "s", f"{n} ops"),
        ("op_s.p90", p90, "s", f"{n} ops, {beyond} beyond"),
        ("peak_rss_mb", peak_rss_mb, "MB", "1 process"),
    ]
    table = rows + [("fail_frac", failed / n, "ratio", f"{failed} of {n} ops")]
    extra = {"blocks": n_blocks, "setup_samples": setup, "fail_frac": failed / n}
    return rows, table, runner.records, extra


def traced(workload, seed: int, seconds: float, recorded: dict) -> tuple:
    imports = [import_times() for _ in range(PROBE_PROCESSES)]
    bump = [fresh_seconds(BUMP_BUILD_CODE) for _ in range(PROBE_PROCESSES)]
    runner = Runner(workload, recorded)
    _warm_up(runner)
    rec = tracing.Recorder()
    stream = workloads.blocks(workload, seed)
    n_blocks = max(1, round(seconds * workload.traced_blocks_per_second))
    plain_times, traced_times = [], []
    for _ in range(n_blocks):
        for op in next(stream):
            record = runner.run(op)
            restore = tracing.install(rec, runner.modules)
            try:
                seconds_traced, rc, _err = runner.timed(op, rec)
            finally:
                restore()
            if rc != record["rc"] or runner.digests() != record["digests"]:
                record["failures"].append(["cli", "tracing changed the report", None])
            plain_times.append(record["seconds"])
            traced_times.append(seconds_traced)
    records = runner.records
    n = len(records)
    totals = tracing.layer_totals(rec.spans)
    metrics = {
        "import.ingham_rates_s": (statistics.median(i["ingham_rates"] for i in imports), "s"),
        "import.scipy_interpolate_s": (
            statistics.median(i["scipy.interpolate"] for i in imports), "s"),
        "kernels.bump_build_s": (statistics.median(bump), "s"),
        "bench.glue.self_s": (totals.get(tracing.ROOT_SPAN, 0.0) / n, "s"),
    }
    for name in LAYER_SPANS:
        metrics[f"{name}.self_s"] = (totals.get(name, 0.0) / n, "s")
    per_op_counts = {}
    for (_op, name), value in rec.counts.items():
        per_op_counts[name] = per_op_counts.get(name, 0.0) + value
    for name in LAYER_COUNTS:
        metrics[name] = (per_op_counts.get(name, 0.0) / n, "count")
    for layer in oracles.LAYERS:
        metrics[f"check.{layer}.fail"] = (
            sum(1 for r in records for f in r["failures"] if f[0] == layer), "count")
    metrics["cli.reports_changed"] = (sum(r["changed"] for r in records), "count")
    failed = sum(map(_failed, records))
    metrics["fail_frac"] = (failed / n, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(plain_times), "s")
    metrics["trace.unaccounted_s"] = (tracing.unaccounted(rec.spans), "s")
    metrics["trace.ops"] = (n, "count")
    per_op = set(LAYER_COUNTS) | {f"{name}.self_s" for name in LAYER_SPANS + ("bench.glue",)}
    rows = [(name, *metrics[name], f"mean per op, {n} ops" if name in per_op else f"{n} ops")
            for name in PER_LAYER_NAMES]
    extra = {"blocks": n_blocks, "spans": len(rec.spans)}
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{workload.name}-s{seed}.jsonl"
    with spans_path.open("w", encoding="utf-8") as fh:
        for span in rec.spans:
            fh.write(json.dumps(span) + "\n")
    return rows, rows, records, extra


LAYER_SPANS = (
    "cli.parse_config", "cli.run",
    "rate_functions.make_bound", "rate_functions.bound_eval", "rate_functions.invert",
    "rate_functions.raw_oracle",
    "semigroup_lab.envelope", "semigroup_lab.orbit",
    "verify.defect", "verify.compare_decay", "verify.parseval", "verify.mollifier_rate",
    "verify.regularity", "verify.fit_loglog",
    "kernels.tail_integral", "kernels.numeric_fourier",
    "quadrature.integrate", "quadrature.integrate_oscillatory",
)
LAYER_COUNTS = (
    "rate_functions.bound_eval.points", "rate_functions.invert.calls",
    "rate_functions.rate_evals", "semigroup_lab.envelope.knots",
    "verify.defect.mode_points", "kernels.tail_integral.calls",
    "quadrature.integrate.calls", "quadrature.integrate.evals",
    "quadrature.integrate.nonconverged", "quadrature.integrate_oscillatory.calls",
    "quadrature.integrate_oscillatory.evals",
)
E2E_NAMES = ("setup_s", "op_s.p50", "op_s.p90", "peak_rss_mb")
PER_LAYER_NAMES = (
    ("import.ingham_rates_s", "import.scipy_interpolate_s", "kernels.bump_build_s",
     "bench.glue.self_s")
    + tuple(f"{name}.self_s" for name in LAYER_SPANS)
    + LAYER_COUNTS
    + tuple(f"check.{layer}.fail" for layer in oracles.LAYERS)
    + ("cli.reports_changed", "fail_frac", "trace.overhead_s", "trace.unaccounted_s",
       "trace.ops")
)


def record_digests() -> int:
    """Run every op of every workload once and rewrite digests.json."""
    table = {}
    bad = 0
    for workload in workloads.WORKLOADS.values():
        runner = Runner(workload, {})
        for op in workload.universe():
            record = runner.run(op)
            if record["digests"] is None:
                bad += 1
                print(f"{workload.name} {op.family} {op.params}: {record['failures']}",
                      file=sys.stderr)
                continue
            table[op.key] = list(record["digests"])
        print(f"{workload.name}: {len(runner.records)} ops,"
              f" {sum(map(_failed, runner.records))} failed checks", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


# -- entry point ---------------------------------------------------------------------


def _import_package() -> bool:
    if not (SRC / "ingham_rates" / "__init__.py").is_file():
        print(f"error: no package source at {SRC.relative_to(ROOT)}/ingham_rates",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import ingham_rates

    if Path(ingham_rates.__file__).resolve().parent != SRC / "ingham_rates":
        print("error: ingham_rates imported from outside this checkout", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run every op once and rewrite digests.json")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    os.chdir(ROOT)
    if not _import_package():
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.record_digests:
        return record_digests()
    if not DIGESTS.is_file():
        print(f"error: {DIGESTS.relative_to(ROOT)} is missing", file=sys.stderr)
        return 2
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    mode = traced if args.trace else end_to_end
    rows, table, records, extra = mode(workload, args.seed, args.seconds, recorded)
    env = environment()
    failed = sum(map(_failed, records))
    result = {
        "correct": _unknown_failures(records) == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    (WORK / f"result-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"workload": workload.name, "why": workload.why, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "environment": env,
                    "summary": result, "extra": extra, "ops": records},
                   indent=1, default=str) + "\n", encoding="utf-8")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}:"
          f" {len(records)} ops in {extra['blocks']} blocks")
    print("  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, samples in table:
        print(f"  {name:40s} {value:14.6g} {unit:6s} {samples}")
    for kind, meaning in oracles.KNOWN.items():
        count = sum(1 for r in records for f in r["failures"] if f[2] == kind)
        print(f"  known defect {kind} ({meaning}): {count} failed check(s)")
    print(f"  other failed checks: {_unknown_failures(records)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
