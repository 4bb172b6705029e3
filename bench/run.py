"""Layered benchmark for the extropy library and its CLI.

Run from the repository root:

    python3 bench/run.py --workload curves --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Workloads (see workloads.py): curves, checks, estimate, cli.  Each run is a
closed loop with one client and one operation at a time, in one process on
one core; the cli workload starts one ``python -m extropy.cli`` process per
operation.  Every output is checked against a reference.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
A fixed calibration runs between ops, and the gated time, ``cycle_cal``, is
each op's time over that of the calibrations around it: the shared host's
speed drifts by up to a factor of two over seconds to minutes, and the ratio
cancels the drift.
``--trace 1`` first runs untraced, then installs the counting and timing
wrappers of tracer.py and runs whole cycles; it reports per-layer counts per
cycle (exact for a seed) and per-layer times per cycle, and writes its spans
to bench/out/.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric by name
with its unit, and the run record (seed, nproc, versions, commit).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

# One core per process: numpy's BLAS pool would otherwise start a thread per
# CPU at import and make every process's time depend on the other CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: setup probes per run; setup_s is their median
SETUP_PROBES = 5
#: interpreter probes per traced run, for cli.import_ms
IMPORT_PROBES = 3
#: untimed warm-up before the timed loop, seconds
WARMUP_S = 1.0
#: samples beyond the tail percentile
TAIL_BEYOND = 10
#: iterations of the calibration loop's Python part, which then takes about
#: two thirds of the calibration's time
CAL_LOOP = 200_000
#: boxed floats the calibration loop's numpy part converts
CAL_BOXED = 100_000

WORKLOAD_NAMES = ("curves", "checks", "estimate", "cli")

#: end-to-end metrics in the JSON result of an untraced run.  On a shared
#: host the same op runs up to twice as slow for seconds to minutes at a time,
#: so the gated time is cycle_cal: each op's time over that of a fixed
#: calibration run just before and just after it, a median per op over the
#: run, summed over a cycle.  The raw times are printed only.
END_TO_END = {
    "cycle_cal": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: end-to-end metrics that are printed but not gated: too noisy on a shared
#: host, or 0 or undefined ("n/a") on some workloads
PRINTED = {
    "cal_ms": "ms",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "fail_frac": "ratio",
    "max_abs_err": "1",
    "err_bound_miss": "count",
}

#: per-layer metric -> (unit, which end-to-end metric it should move, where)
PER_LAYER = {
    "quadrature.integrate.calls": ("count", "ops_per_s on curves, partly checks; none on estimate, cli"),
    "quadrature.neval": ("count", "ops_per_s and err_bound_miss/max_abs_err on curves; none on estimate, cli"),
    "quadrature.neval_per_call": ("eval/call", "ops_per_s on curves, partly checks"),
    "quadrature.retries": ("count", "ops_per_s on curves, partly checks"),
    "quadrature.integrate.ms": ("ms", "ops_per_s on curves, partly checks; none on estimate, cli"),
    "quadrature.integrate.self_ms": ("ms", "ops_per_s on curves, partly checks"),
    "orderstats.kth_order_sf.calls": ("count", "op_ms_p50 on checks; 0 calls and no change on curves"),
    "orderstats.kth_order_sf.ms": ("ms", "op_ms_p50 on checks; no change on curves"),
    "distributions.calls": ("count", "ops_per_s on estimate and curves"),
    "distributions.quantile_calls": ("count", "ops_per_s on estimate"),
    "measures.evaluate.calls": ("count", "ops_per_s on curves and checks"),
    "measures.evaluate.ms": ("ms", "ops_per_s on curves and checks"),
    "measures.evaluate.self_ms": ("ms", "ops_per_s on curves and checks"),
    "measures.closed_form_frac": ("ratio", "ops_per_s on curves and checks"),
    "measures.degenerate": ("count", "ops_per_s on curves and checks"),
    "analysis.reports": ("count", "ops_per_s and op_ms_p50 on checks"),
    "analysis.ms": ("ms", "ops_per_s and op_ms_p50 on checks"),
    "analysis.self_ms": ("ms", "ops_per_s and op_ms_p50 on checks"),
    "analysis.inconclusive": ("count", "checks"),
    "characterize.calls": ("count", "checks"),
    "characterize.ms": ("ms", "ops_per_s and op_ms_p50 on checks"),
    "estimators.draw_samples.ms": ("ms", "ops_per_s and peak_rss_mb on estimate"),
    "estimators.empirical.ms": ("ms", "ops_per_s on estimate"),
    "cli.import_ms": ("ms", "op_ms_p50 on cli; setup_s on every workload"),
    "cli.run_ms": ("ms", "op_ms_p50 on cli"),
    "cli.process_ms": ("ms", "op_ms_p50 on cli"),
    "trace.overhead_ms": ("ms", "none: traced minus untraced op_ms_p50"),
    "fail_frac": ("ratio", "end-to-end: failed over attempted ops"),
    "max_abs_err": ("1", "end-to-end: largest |value - reference|, 0 where nothing is referenced"),
    "err_bound_miss": ("count", "end-to-end: values off their reference by more than abs_error_estimate + 1e-12"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _log(line: str = "") -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _use_source_tree() -> None:
    """Import the library from ROOT/src, never from an installed copy."""
    if not (SRC / "extropy" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'extropy'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import extropy

    if Path(extropy.__file__).resolve().parent != (SRC / "extropy").resolve():
        raise BenchError(f"extropy imported from {extropy.__file__}, not from {SRC}")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "extropy").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args: argparse.Namespace) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# Probes (child processes)
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child side: time the library import plus input construction."""
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
    try:
        t0 = time.perf_counter()
        _use_source_tree()
        workloads.WORKLOADS[workload](seed, ROOT, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def _run_child(cmd: list[str]) -> str:
    res = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=120)
    if res.returncode != 0:
        raise BenchError(f"probe {cmd[1:]} failed: {res.stderr.strip()[-300:]}")
    return res.stdout


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    return [json.loads(_run_child(cmd).splitlines()[-1])["setup_s"] for _ in range(SETUP_PROBES)]


def measure_import_ms() -> float:
    """Median wall time of ``import extropy.cli`` minus a bare interpreter."""

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        _run_child([sys.executable, "-c", code])
        return time.perf_counter() - t0

    bare = statistics.median(wall("pass") for _ in range(IMPORT_PROBES))
    full = statistics.median(wall("import extropy.cli") for _ in range(IMPORT_PROBES))
    return (full - bare) * 1e3


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@functools.cache
def calibration() -> Callable[[], float]:
    """A fixed loop whose time tracks the host's current speed.

    It mixes the two kinds of work the workloads do: Python bytecode with
    float arithmetic, and numpy reading boxed floats through a tuple (the
    sorted tuple scatters them over the heap, as the library's sorted
    samples are; at 3 MB they do not fit in L2).  Neighbours on the host slow
    the two kinds by different factors, so the mix matters: between two host
    states, a calibration that was 85% boxed read moved the curves ratio by
    -26%, a pure Python loop moved it by +20%, and this one (about two
    thirds Python) moved curves and estimate by 2% or less.  It calls no
    library code, so no change to the library moves it.  It runs once, right after the previous op, on the caches that
    op left: a warm second pass would miss the memory contention a long op
    meets, and tracks the op's time less well.
    """
    import numpy as np

    boxed = tuple(sorted(float(x) for x in np.random.default_rng(0).random(CAL_BOXED)))
    perf = time.perf_counter

    def calibrate() -> float:
        t0 = perf()
        acc = 0.0
        for i in range(CAL_LOOP):
            acc += i * 0.5
        np.asarray(boxed).sum()
        return perf() - t0

    return calibrate


@functools.cache
def process_calibration() -> Callable[[], float]:
    """The calibration for ops that are processes: one ``import numpy`` child.

    A child's time is mostly start-up: loading code, mapping and faulting in
    memory.  On a shared host that speed drifts apart from the speed of
    in-process work, and this child tracks it; the library is not imported.
    """
    cmd = [sys.executable, "-c", "import numpy"]

    def calibrate() -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
        return time.perf_counter() - t0

    return calibrate


def calibration_for(wl: Any) -> Callable[[], float]:
    return process_calibration() if wl.spawns_processes else calibration()


@dataclass
class Loop:
    durations: list[float]
    cal: list[float]  # the calibration loop's time before each op, and once after the last

    def ratios(self) -> list[float]:
        """Each op's time over the geometric mean of the calibrations around it."""
        return [d / math.sqrt(a * b) for d, a, b in zip(self.durations, self.cal, self.cal[1:])]
    errors: list[Optional[str]]
    first: dict[int, Any]  # first output of each op index
    elapsed: float
    cycle_snapshots: list[dict]

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.durations) * 1e3


def _same(a: Any, b: Any) -> bool:
    # repr() also equates NaNs, which == does not
    return a == b or repr(a) == repr(b)


def closed_loop(
    ops: list,
    seconds: float,
    min_ops: int,
    calibrate: Callable[[], float],
    tracer: Any = None,
    whole_cycles: bool = False,
) -> Loop:
    """Run ops[0], ops[1], ... cyclically, one at a time, until time is up.

    ``calibrate`` runs before each op and once after the last one; it is not
    part of any op's time.  Only the first output of each op is kept; every
    later output must equal it.
    """
    durations: list[float] = []
    cal: list[float] = []
    errors: list[Optional[str]] = []
    first: dict[int, Any] = {}
    snapshots: list[dict] = []
    n = len(ops)
    perf = time.perf_counter
    start = perf()
    deadline = start + seconds
    i = 0
    while True:
        idx = i % n
        op = ops[idx]
        cal.append(calibrate())
        t0 = perf()
        try:
            out = tracer.run_op(op.label, op.run) if tracer is not None else op.run()
            err = None
        except Exception as exc:  # the op failed; record it and go on
            out, err = None, f"{op.label}: {type(exc).__name__}: {exc}"
        durations.append(perf() - t0)
        if err is None:
            if idx not in first:
                first[idx] = out
            elif not _same(out, first[idx]):
                err = f"{op.label}: output differs from its first run"
        errors.append(err)
        i += 1
        if tracer is not None and i % n == 0:
            snapshots.append(tracer.snapshot())
        if i >= min_ops and (not whole_cycles or i % n == 0) and perf() >= deadline:
            break
    cal.append(calibrate())
    return Loop(durations, cal, errors, first, perf() - start, snapshots)


def verify(loop: Loop, n_ops: int, check: Callable[[int, Any], list[str]]) -> tuple[int, list[str]]:
    """Failed op count and failure reasons; each op's first output is checked."""
    why = {idx: check(idx, out) for idx, out in loop.first.items()}
    failed = 0
    reasons: list[str] = []
    for k, err in enumerate(loop.errors):
        bad = [err] if err is not None else why.get(k % n_ops, [])
        if bad:
            failed += 1
            reasons.extend(bad)
    return failed, reasons


def tail_ms(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(durations)
    n = len(s)
    return s[n - TAIL_BEYOND - 1] * 1e3, 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def untraced_run(wl: Any, args: argparse.Namespace, setup: list[float]) -> dict:
    ops = wl.ops
    calibrate = calibration_for(wl)
    closed_loop(ops, WARMUP_S, min_ops=1, calibrate=calibrate)
    loop = closed_loop(ops, args.seconds, min_ops=max(len(ops), TAIL_BEYOND + 1), calibrate=calibrate)
    failed, reasons = verify(loop, len(ops), wl.check)
    if wl.name == "estimate":
        wl.record_accuracy(loop.first)
    n = len(loop.durations)
    tail, pct = tail_ms(loop.durations)
    if wl.name == "cli":
        rss_kb = max(wl.child_rss_kb)
        rss_note = "max over cli processes"
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "benchmark process"
    ratios = loop.ratios()
    per_op = [ratios[i :: len(ops)] for i in range(len(ops))]
    op_seconds = sum(loop.durations)
    acc = wl.accuracy
    metrics = {
        "cycle_cal": sum(statistics.median(rs) for rs in per_op),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
        "cal_ms": statistics.median(loop.cal) * 1e3,
        "ops_per_s": n / op_seconds,
        "op_ms_p50": loop.p50_ms,
        "op_ms_tail": tail,
        "fail_frac": failed / n,
        "max_abs_err": acc.max_abs_err,
        "err_bound_miss": acc.err_bound_miss,
    }
    notes = {
        "cycle_cal": f"sum over the {len(ops)} ops of a cycle of each op's median time over calibration time"
        f" ({n // len(ops)}+ runs each)",
        "setup_s": f"median of {len(setup)} set-ups: " + ", ".join(f"{s:.3f}" for s in setup),
        "peak_rss_mb": rss_note,
        "cal_ms": f"median time of the calibration, run before each of the {n} ops and after the last",
        "ops_per_s": f"{n} ops in {op_seconds:.2f} s of op time ({loop.elapsed:.2f} s with calibration)",
        "op_ms_p50": f"median of {n} ops",
        "op_ms_tail": f"p{pct:.2f}: {TAIL_BEYOND} of {n} ops beyond it",
        "fail_frac": f"{failed} of {n} ops failed",
        "max_abs_err": f"over {acc.checked} referenced values",
        "err_bound_miss": "per cycle, among values with an error estimate",
    }
    _log(f"== {wl.name}: end-to-end, untraced, {len(ops)} ops per cycle ==")
    for name, unit in {**END_TO_END, **PRINTED}.items():
        _log(f"{name:<16} {_na(metrics[name]):>14} {unit:<6} {notes[name]}")
    for note in acc.notes:
        _log(f"  {note}")
    return {"correct": failed == 0, "attempted": n, "failed": failed, "reasons": reasons, "metrics": metrics}


def _na(value: Optional[float]) -> str:
    return "n/a" if value is None else _fmt(value)


def _fmt(value: float | int) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def traced_run(wl: Any, args: argparse.Namespace) -> dict:
    from tracer import PER_OP_COUNTS, Tracer

    ops = wl.inprocess_ops
    n_ops = len(ops)
    check = wl.check_inprocess if wl.name == "cli" else wl.check
    problems: list[str] = []
    share = 0.25 if wl.name == "cli" else 0.5

    process_ms = run_ms = 0.0
    attempted = failed = 0
    reasons: list[str] = []
    if wl.name == "cli":
        procs = closed_loop(wl.ops, args.seconds * 0.5, min_ops=len(wl.ops), calibrate=process_calibration())
        f, r = verify(procs, len(wl.ops), wl.check)
        attempted, failed, reasons = attempted + len(procs.durations), failed + f, reasons + r
        process_ms = procs.p50_ms

    plain = closed_loop(ops, args.seconds * share, min_ops=n_ops, calibrate=calibration())
    f, r = verify(plain, n_ops, check)
    attempted, failed, reasons = attempted + len(plain.durations), failed + f, reasons + r
    if wl.name == "cli":
        run_ms = plain.p50_ms
    if wl.name == "estimate":
        wl.record_accuracy(plain.first)

    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(
            ops, args.seconds * share, min_ops=n_ops, calibrate=calibration(), tracer=tracer, whole_cycles=True
        )
    finally:
        tracer.uninstall()
    f, r = verify(traced, n_ops, check)
    attempted, failed, reasons = attempted + len(traced.durations), failed + f, reasons + r
    for idx, out in traced.first.items():
        if not _same(out, plain.first.get(idx)):
            problems.append(f"{ops[idx].label}: traced output differs from untraced output")

    # per-cycle deltas: counts must repeat exactly, times are medians
    cycles = []
    prev: dict = {}
    for snap in traced.cycle_snapshots:
        cycles.append({k: v - prev.get(k, 0) for k, v in snap.items()})
        prev = snap
    count_keys = [k for k, v in cycles[0].items() if isinstance(v, int)]
    for c in cycles[1:]:
        if any(c.get(k, 0) != cycles[0][k] for k in count_keys):
            problems.append("per-cycle counts differ between traced cycles")
            break

    def count(key: str) -> int:
        return cycles[0].get(key, 0)

    def ms(key: str) -> float:
        return statistics.median(c.get(key, 0.0) for c in cycles) * 1e3

    integrate_calls = count("quadrature.integrate.calls")
    evaluate_calls = count("measures.evaluate.calls")
    acc = wl.accuracy
    metrics = {
        "quadrature.integrate.calls": integrate_calls,
        "quadrature.neval": count("quadrature.neval"),
        "quadrature.neval_per_call": count("quadrature.neval") / integrate_calls if integrate_calls else 0.0,
        "quadrature.retries": count("quadrature.retries"),
        "quadrature.integrate.ms": ms("quadrature.integrate.s"),
        "quadrature.integrate.self_ms": ms("quadrature.integrate.self_s"),
        "orderstats.kth_order_sf.calls": count("orderstats.kth_order_sf.calls"),
        "orderstats.kth_order_sf.ms": ms("orderstats.kth_order_sf.s"),
        "distributions.calls": count("distributions.calls"),
        "distributions.quantile_calls": count("distributions.quantile_calls"),
        "measures.evaluate.calls": evaluate_calls,
        "measures.evaluate.ms": ms("measures.evaluate.s"),
        "measures.evaluate.self_ms": ms("measures.evaluate.self_s"),
        "measures.closed_form_frac": count("measures.closed_form") / evaluate_calls if evaluate_calls else 0.0,
        "measures.degenerate": count("measures.degenerate"),
        "analysis.reports": count("analysis.reports"),
        "analysis.ms": ms("analysis.s"),
        "analysis.self_ms": ms("analysis.self_s"),
        "analysis.inconclusive": count("analysis.inconclusive"),
        "characterize.calls": sum(v for k, v in cycles[0].items() if k.startswith("characterize.") and k.endswith(".calls")),
        "characterize.ms": ms("characterize.s"),
        "estimators.draw_samples.ms": ms("estimators.draw_samples.s"),
        "estimators.empirical.ms": sum(ms(f"estimators.empirical_{k}.s") for k in ("crex", "cpex", "dcrex")),
        "cli.import_ms": measure_import_ms(),
        "cli.run_ms": run_ms,
        "cli.process_ms": process_ms,
        "trace.overhead_ms": traced.p50_ms - plain.p50_ms,
        "fail_frac": failed / attempted,
        "max_abs_err": acc.max_abs_err or 0.0,
        "err_bound_miss": acc.err_bound_miss or 0,
    }

    # the "no change" predictions rest on these bypasses
    if wl.name == "estimate" and metrics["quadrature.integrate.calls"] != 0:
        problems.append("bypass violated: estimate called quadrature.integrate")
    if wl.name == "curves" and metrics["orderstats.kth_order_sf.calls"] != 0:
        problems.append("bypass violated: curves called orderstats.kth_order_sf")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-s{args.seed}.jsonl"
    tracer.write_spans(spans_path, {"workload": wl.name, "seed": args.seed})

    _log(f"== {wl.name}: per layer, traced, per cycle of {n_ops} in-process ops ({len(cycles)} cycles) ==")
    for name, (unit, moves) in PER_LAYER.items():
        _log(f"{name:<30} {_fmt(metrics[name]):>14} {unit:<9} -> {moves}")
    _log("counts per op, by op label:")
    for label, tally in tracer.per_op.items():
        per = ", ".join(f"{k} {tally[k] // tally['ops']}" for k in PER_OP_COUNTS)
        _log(f"  {label:<20} {per}")
    _log("self time per layer, ms per cycle:")
    for layer in sorted(k[: -len(".self_s")] for k in cycles[0] if k.count(".") == 1 and k.endswith(".self_s")):
        _log(f"  {layer:<16} {ms(layer + '.self_s'):10.3f}  (inclusive {ms(layer + '.s'):.3f})")
    _log(f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, written to {spans_path.relative_to(ROOT)}")
    for note in acc.notes:
        _log(f"  {note}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons + problems,
        "metrics": metrics,
    }


def _plain(value: Any) -> float | int:
    """A JSON number: ints stay exact, everything else is a float."""
    return value if type(value) is int else float(value)


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table of its metrics."""
    rows: dict[str, dict] = {}
    verdicts = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write("".join(res.stdout.splitlines(keepends=True)[:-1]))
        if res.returncode != 0:
            raise BenchError(f"workload {name} exited {res.returncode}")
        with open(OUT_DIR / f"record-{name}-s{args.seed}-t{args.trace}.json") as fh:
            rows[name] = json.load(fh)["all_metrics"]
        verdicts[name] = json.loads(res.stdout.splitlines()[-1])
    units = {**END_TO_END, **PRINTED} if not args.trace else {k: u for k, (u, _) in PER_LAYER.items()}
    _log(f"== all workloads, seed {args.seed}, {args.seconds:g} s each ==")
    _log(f"{'metric':<30} {'unit':<9}" + "".join(f"{name:>14}" for name in rows))
    for key, unit in units.items():
        cells = "".join(f"{_na(row.get(key)):>14}" for row in rows.values())
        _log(f"{key:<30} {unit:<9}{cells}")
    print(json.dumps({
        "correct": all(v["correct"] for v in verdicts.values()),
        "attempted": sum(v["attempted"] for v in verdicts.values()),
        "failed": sum(v["failed"] for v in verdicts.values()),
        "metrics": {
            f"{name}.{key}": {"value": row[key], "unit": units[key]}
            for name, row in rows.items() for key in units if row.get(key) is not None
        },
    }))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        _use_source_tree()
        return run_all(args)

    _use_source_tree()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        wl.prepare()
        result = traced_run(wl, args) if args.trace else untraced_run(wl, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args)
    _log("record: " + json.dumps(record))
    for reason in result["reasons"][:10]:
        _log(f"FAILED: {reason}")
    units = END_TO_END if not args.trace else {k: u for k, (u, _) in PER_LAYER.items()}
    metrics = {k: {"value": _plain(result["metrics"][k]), "unit": units[k]} for k in units}
    with open(OUT_DIR / f"record-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump({
            "record": record,
            "all_metrics": {k: _plain(v) if v is not None else None for k, v in result["metrics"].items()},
            "correct": result["correct"],
            "reasons": result["reasons"][:50],
        }, fh, indent=1)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
