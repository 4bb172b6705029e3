"""The benchmark's four workloads: seeded inputs, operations and output checks.

Each workload is one closed loop over a fixed cycle of operations.  The seed
only draws family parameters (inside each constructor's valid range) and
sample seeds; the library sees nothing but the generated inputs.

A workload exposes:

- ``ops``: one cycle of :class:`Op`, the end-to-end operations;
- ``inprocess_ops``: what the traced run measures under the layer wrappers
  (the same as ``ops`` except for ``cli``, whose ops are processes);
- ``prepare()``: reference computation, outside every timed region;
- ``check(i, output)``: failure reasons for the output of ``ops[i]``;
- ``accuracy``: max |value - reference| and error-bar misses per cycle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

#: relative gate for a curve value against its mpmath reference
CURVE_REL_GATE = 1e-6
#: |value - reference| may exceed abs_error_estimate by this much before a miss
ERR_BOUND_SLACK = 1e-12
#: order of the dynamic minima/maxima curves
CURVE_N = 2
#: sample size of the check suites (k-of-n chains for k = 1..n)
CHECK_N = 4
#: checks draws each bundle parameter within this factor of its bundled value.
#: The cost of a family's suite grows with how singular or heavy-tailed the
#: draw is.  The quartile spread over ten seeds of a cycle's work (integrand
#: plus distribution calls) is 0.03 at this factor, and was 0.046 at 4/3.
PARAM_SPREAD = 1.15


@dataclass
class Op:
    label: str
    run: Callable[[], Any]


@dataclass
class Accuracy:
    """Accuracy of one cycle of outputs against the references."""

    checked: int = 0
    max_abs_err: Optional[float] = None
    err_bound_miss: Optional[int] = None
    notes: list[str] = field(default_factory=list)

    def add_error(self, err: float) -> None:
        self.checked += 1
        self.max_abs_err = err if self.max_abs_err is None else max(self.max_abs_err, err)


class Workload:
    name = ""
    #: ops are child processes, calibrated against a child process
    spawns_processes = False

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.accuracy = Accuracy()
        self.ops: list[Op] = []

    @property
    def inprocess_ops(self) -> list[Op]:
        return self.ops

    def prepare(self) -> None:
        """Compute references; never timed."""

    def check(self, i: int, output: Any) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


class Curves(Workload):
    """200-point dynamic curves: QUADPACK and scalar distribution calls only.

    Cycle: figure 2.1 (TwoExpMax, QAGI path) twice, figure 3.1
    (PiecewiseBounded, kinked cdf), dcrex-min on a seeded Weibull
    (quadrature) and dcpex-max on a seeded Power (closed form).  Figure 2.1
    appears twice so that, whatever the seeded Weibull costs, the median op
    is a figure-2.1 curve and op_ms_p50 does not jump between op types.
    """

    name = "curves"

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        super().__init__(seed, root, workdir)
        import numpy as np
        from extropy import analysis, cli, measures
        from extropy.distributions import Power, Weibull

        self.weibull = (self.rng.uniform(0.5, 2.0), self.rng.uniform(0.8, 3.0))
        self.power = (self.rng.uniform(0.5, 3.0), self.rng.uniform(0.5, 3.0))
        wd, pd = Weibull(*self.weibull), Power(*self.power)
        self.dists = {"weibull": wd, "power": pd}
        self.grids = {
            "weibull": tuple(analysis.default_grid(wd, points=cli.FIGURE_POINTS)),
            "power": tuple(analysis.default_grid(pd, points=cli.FIGURE_POINTS)),
        }
        self.xs = {
            "fig2.1": tuple(np.linspace(0.0, 1.0, cli.FIGURE_POINTS + 2)[1:-1]),
            "fig3.1": tuple(np.linspace(1.0, 2.0, cli.FIGURE_POINTS + 2)[1:-1]),
        }

        def figure(fig: str) -> Callable[[], Any]:
            def run():
                xs, values = cli.reproduce_figure(fig)
                return tuple(xs), tuple(values)

            return run

        def dyn_curve(key: str, kind: str) -> Callable[[], Any]:
            d, grid = self.dists[key], self.grids[key]

            def run():
                cv = measures.curve(d, lambda t: measures.MeasureKind(kind, n=CURVE_N, t=t), grid)
                return cv.ts, cv.values

            return run

        fig21 = Op("fig2.1", figure("2.1"))
        self.ops = [
            fig21,
            Op("fig3.1", figure("3.1")),
            Op("weibull-dcrex-min", dyn_curve("weibull", "dcrex-min")),
            fig21,
            Op("power-dcpex-max", dyn_curve("power", "dcpex-max")),
        ]

    def _points(self, label: str):
        """(abscissa, distribution, measure kind, reference) per curve point."""
        import oracle
        from extropy import measures
        from extropy.distributions import PiecewiseBounded, TwoExpMax

        if label == "fig2.1":
            d = TwoExpMax()
            for u in self.xs[label]:
                t = -math.log(u)
                yield u, d, measures.dcrex(t), oracle.fig21_value(t)
        elif label == "fig3.1":
            d = PiecewiseBounded()
            for t in self.xs[label]:
                yield t, d, measures.dcpex(t), oracle.fig31_value(t)
        elif label == "weibull-dcrex-min":
            d = self.dists["weibull"]
            for t in self.grids["weibull"]:
                ref = oracle.weibull_dcrex_min(*self.weibull, CURVE_N, t)
                yield t, d, measures.dcrex_min(CURVE_N, t), ref
        else:
            d = self.dists["power"]
            for t in self.grids["power"]:
                ref = oracle.power_dcpex_max(*self.power, CURVE_N, t)
                yield t, d, measures.dcpex_max(CURVE_N, t), ref

    def prepare(self) -> None:
        # reference value and the library's own error estimate per point
        from extropy import measures

        self.refs: dict[str, list[tuple[float, float, float, float]]] = {}
        for label in dict.fromkeys(op.label for op in self.ops):
            rows = []
            for x, d, kind, ref in self._points(label):
                mv = measures.evaluate(d, kind)
                rows.append((x, ref, mv.value, mv.abs_error_estimate))
            self.refs[label] = rows
        self.accuracy.err_bound_miss = 0
        for label, rows in self.refs.items():
            errs = [abs(v - r) for _, r, v, _ in rows]
            miss = sum(int(err > e + ERR_BOUND_SLACK) for err, (_, _, _, e) in zip(errs, rows))
            for err in errs:
                self.accuracy.add_error(err)
            self.accuracy.err_bound_miss += miss
            self.accuracy.notes.append(f"{label}: err_bound_miss {miss}/{len(rows)}, max_abs_err {max(errs):.3g}")

    def check(self, i: int, output: Any) -> list[str]:
        label = self.ops[i].label
        xs, values = output
        rows = self.refs[label]
        if len(xs) != len(rows) or any(x != r[0] for x, r in zip(xs, rows)):
            return [f"{label}: abscissae differ from the requested grid"]
        reasons = []
        for x, v, (_, ref, value, _) in zip(xs, values, rows):
            if v != value:
                reasons.append(f"{label}: curve value at {x!r} differs from evaluate()")
            elif not abs(v - ref) <= CURVE_REL_GATE * abs(ref):
                reasons.append(f"{label}: value {v!r} at {x!r} off reference {ref!r}")
        return reasons[:3]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _near(rng: random.Random, value: float) -> float:
    """Log-uniform draw in [value / PARAM_SPREAD, value * PARAM_SPREAD]."""
    return value * math.exp(rng.uniform(-math.log(PARAM_SPREAD), math.log(PARAM_SPREAD)))


def _bundle(rng: random.Random) -> list[tuple[str, Any, Optional[tuple]]]:
    """The test-suite family bundle, each parameter drawn near its bundled value.

    Drawing near each instance keeps the bundle's mix of regimes (a power
    density singular at 0, heavy and light tails, a bounded GPD) in every
    seed.  Returns (label, distribution, expected characterization) triples;
    the expectation is (test, model, {param: value}) or None.
    """
    from extropy.distributions import (
        Exponential,
        FiniteRange,
        FoldedCramer,
        GPD,
        Pareto,
        PiecewiseBounded,
        Power,
        TwoExpMax,
        Uniform,
        Weibull,
    )

    def near(*values: float) -> list[float]:
        return [_near(rng, v) for v in values]

    def finite_range(a: float, b: float):
        a, b = near(a, b)
        # sf (1 - a x)^b is the GPD with lam = -1/(b+1)
        return ("finite-range", FiniteRange(a, b), ("gpd", "PowerGPD", {"lambda": -1.0 / (b + 1.0)}))

    def power(b: float, c: float):
        b, c = near(b, c)
        return ("power", Power(b, c), ("power", "PowerBounded", {"c": c}))

    def pareto(lam: float, theta: float):
        lam, theta = near(lam, theta)
        # Pareto(lam, theta) is the GPD with lam = 1/(theta - 1)
        return ("pareto", Pareto(lam, theta), ("gpd", "ParetoII", {"lambda": 1.0 / (theta - 1.0)}))

    def gpd(theta: float, lam: float):
        theta, lam = near(theta, lam)
        return ("gpd", GPD(theta, lam), ("gpd", "PowerGPD" if lam < 0 else "ParetoII", {"lambda": lam}))

    def exponential(lam: float):
        return ("exponential", Exponential(*near(lam)), ("gpd", "Exponential", {"lambda": 0.0}))

    a = _near(rng, 2.0)
    return [
        ("uniform", Uniform(0.0, *near(1.0)), ("power", "PowerBounded", {"c": 1.0})),
        ("uniform", Uniform(a, a + _near(rng, 3.0)), None),
        finite_range(1.0, 2.0),
        finite_range(0.5, 3.0),
        power(1.0, 2.0),
        power(3.0, 0.5),
        gpd(1.0, -0.5),
        ("piecewise-bounded", PiecewiseBounded(), None),
        exponential(1.0),
        exponential(0.5),
        ("weibull", Weibull(*near(1.0, 2.0)), None),
        ("weibull", Weibull(*near(2.0, 0.5)), None),
        pareto(1.0, 2.0),
        pareto(2.0, 3.0),
        gpd(1.0, 1.0),
        ("two-exp-max", TwoExpMax(), None),
        ("folded-cramer", FoldedCramer(*near(1.0)), None),
    ]


def check_suite_all(d: Any, n: int) -> list:
    """The reports of ``extropy check --suite all --n n`` without --dist2."""
    from extropy import analysis as A
    from extropy.distributions import Uniform

    reports = []
    grid = A.default_grid(d)
    reports.append(A.check_crexmin_monotone_n(d))
    if d.has_finite_mean:
        reports.append(A.check_crexmin_mean_bound(d))
        reports.append(A.check_equilibrium_identity(d))
    reports.append(A.check_crexmin_vs_crex(d))
    reports.append(A.check_dcrex_bounds(d, n, grid))
    if d.support.bounded:
        reports.append(A.check_cpexmax_bounds(d))
        reports.append(A.check_dcpex_bounds(d, n, grid))
        reports.append(A.check_cpex_cpen_inequality(d))
        reports.append(A.check_mean_abs_diff(d))
        reports.append(A.check_shift_independence(d, 2.0, 3.0))
    if isinstance(d, Uniform):
        reports.append(A.check_symmetry_duality(d, grid))
        reports.append(A.check_dcpex_shift_relation(d, 2.0, 3.0, grid))
    grid = A.default_grid(d)
    for k in range(1, n + 1):
        reports.append(A.check_korder_chains(d, k, n, grid, "residual"))
        if d.support.bounded:
            reports.append(A.check_korder_chains(d, k, n, grid, "past"))
    if d.support.bounded:
        reports.append(A.check_mean_abs_diff(d))
    return reports


class Checks(Workload):
    """Bound, ordering and characterization suites over the family bundle.

    One op is the ``check --suite all --n 4`` report set for one family of
    the seeded bundle, plus ``gpd_ratio_test``/``power_ratio_test`` where the
    family belongs to the GPD or power class.  Many short grids over many
    distinct distributions and orders; ``kth_order_sf`` dominates.
    """

    name = "checks"
    #: relative tolerance on recovered characterization parameters
    PARAM_RTOL = 1e-3

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        super().__init__(seed, root, workdir)
        from extropy import analysis, characterize
        from extropy.errors import ExtropyError

        self.bundle = _bundle(self.rng)

        def op(d: Any, expect: Optional[tuple]) -> Callable[[], Any]:
            def run():
                try:
                    reports = [
                        (r.check_id, r.verdict, r.worst_margin, repr(r.worst_point), r.points_tested)
                        for r in check_suite_all(d, CHECK_N)
                    ]
                    chz = None
                    if expect is not None:
                        test = characterize.gpd_ratio_test if expect[0] == "gpd" else characterize.power_ratio_test
                        res = test(d, 1, analysis.default_grid(d))
                        chz = (res.model, res.c_hat, tuple(sorted(res.recovered_params.items())))
                    return ("ok", tuple(reports), chz)
                except ExtropyError as exc:  # a documented domain error
                    return ("domain-error", type(exc).__name__, str(exc))

            return run

        self.ops = [Op(label, op(d, expect)) for label, d, expect in self.bundle]

    def check(self, i: int, output: Any) -> list[str]:
        label, d, expect = self.bundle[i]
        if output[0] != "ok":
            return []
        _, reports, chz = output
        reasons = [f"{d!r}: {cid} Fails (margin {m!r})" for cid, v, m, _, _ in reports if v == "Fails"]
        if expect is not None:
            model, _, params = chz
            if model != expect[1]:
                reasons.append(f"{d!r}: characterized as {model}, expected {expect[1]}")
            else:
                got = dict(params)
                for key, want in expect[2].items():
                    scale = max(abs(want), 1.0) if want == 0.0 else abs(want)
                    if not abs(got.get(key, math.nan) - want) <= self.PARAM_RTOL * scale:
                        reasons.append(f"{d!r}: recovered {key}={got.get(key)!r}, expected {want!r}")
        return reasons


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


class Estimate(Workload):
    """Seeded inverse-cdf sampling plus plug-in estimators; no quadrature.

    One op is ``draw_samples`` (m = 1e5; 1e4 for TwoExpMax, whose quantile is
    the base-class bisection) followed by empirical crex/cpex/dcrex at a few
    n and t.  Each value must lie within a Hoeffding tolerance of its closed
    form: the plug-in error is, to first order, half a mean of m iid terms in
    [0, G] with G = 2n int (sf/sf(t))^(2n-1) (or the cdf analogue), so
    |error| <= 2 G / sqrt(m_eff) fails with probability below 1e-13.
    """

    name = "estimate"
    M = 100_000
    M_BISECTION = 10_000

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        super().__init__(seed, root, workdir)
        from extropy import estimators
        from extropy.distributions import Exponential, Pareto, Power, TwoExpMax, Uniform, Weibull

        rng = self.rng
        a = rng.uniform(0.0, 1.0)
        specs = [
            ("exponential", (rng.uniform(0.3, 3.0),), Exponential),
            ("weibull", (rng.uniform(0.5, 2.0), rng.uniform(0.8, 3.0)), Weibull),
            ("pareto", (rng.uniform(0.5, 3.0), rng.uniform(2.0, 4.0)), Pareto),
            ("uniform", (a, a + rng.uniform(0.5, 3.0)), Uniform),
            ("power", (rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)), Power),
            ("two-exp-max", (), TwoExpMax),
        ]
        self.cases = []
        for family, params, ctor in specs:
            d = ctor(*params)
            m = self.M_BISECTION if family == "two-exp-max" else self.M
            bounded = family in ("uniform", "power")
            queries = [("crex", 1, 0.0), ("crex", 2, 0.0)]
            if bounded:
                queries += [("cpex", 1, 0.0), ("cpex", 2, 0.0)]
            if family != "power":
                queries += [("dcrex", 1, d.quantile(0.25)), ("dcrex", 1, d.quantile(0.5))]
            self.cases.append((family, params, d, m, rng.randrange(2**31), queries))

        def op(d: Any, m: int, sample_seed: int, queries: list) -> Callable[[], Any]:
            def run():
                s = estimators.draw_samples(d, m, sample_seed)
                bounded = None
                out = []
                for kind, n, t in queries:
                    if kind == "crex":
                        out.append(estimators.empirical_crex(s, n))
                    elif kind == "cpex":
                        if bounded is None:
                            bounded = estimators.SampleSet(s.values, d.support.upper)
                        out.append(estimators.empirical_cpex(bounded, n))
                    else:
                        out.append(estimators.empirical_dcrex(s, t, n))
                return tuple(out)

            return run

        self.ops = [Op(c[0], op(c[2], c[3], c[4], c[5])) for c in self.cases]

    def prepare(self) -> None:
        import oracle

        self.refs = []
        for family, params, _, m, _, queries in self.cases:
            rows = []
            for kind, n, t in queries:
                if kind == "cpex":
                    ref = -oracle.past(family, params, 2 * n) / 2
                    g = 2 * n * oracle.past(family, params, 2 * n - 1)
                    m_eff = m
                else:
                    ref = -oracle.residual(family, params, 2 * n, t) / 2
                    g = 2 * n * oracle.residual(family, params, 2 * n - 1, t)
                    m_eff = m * (float(oracle.sf(family, params, t)) if t else 1.0)
                rows.append((f"{kind}(n={n},t={t:.4g})", float(ref), float(2 * g / math.sqrt(m_eff))))
            self.refs.append(rows)

    def check(self, i: int, output: Any) -> list[str]:
        reasons = []
        for value, (what, ref, tol) in zip(output, self.refs[i]):
            if not math.isfinite(value):
                reasons.append(f"{self.ops[i].label} {what}: non-finite {value!r}")
            elif abs(value - ref) > tol:
                reasons.append(f"{self.ops[i].label} {what}: {value!r} off {ref!r} by more than {tol:.3g}")
        return reasons

    def record_accuracy(self, outputs_by_op: dict[int, Any]) -> None:
        for i, out in outputs_by_op.items():
            for value, (_, ref, _) in zip(out, self.refs[i]):
                if math.isfinite(value):
                    self.accuracy.add_error(abs(value - ref))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class Cli(Workload):
    """One ``python -m extropy.cli`` process per op; import dominates.

    Its stdout must be byte-identical to an in-process ``cli.run`` of the
    same argv, and it must exit 0.
    """

    name = "cli"
    spawns_processes = True
    SAMPLE_M = 5_000

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        super().__init__(seed, root, workdir)
        import numpy as np

        rng = self.rng

        def spec(name: str, family: str, params: dict) -> str:
            path = workdir / name
            path.write_text(json.dumps({"family": family, "params": params}))
            return str(path)

        exp = spec("exp.json", "exponential", {"lambda": rng.uniform(0.3, 3.0)})
        weib = spec("weibull.json", "weibull", {"lambda": rng.uniform(0.5, 2.0), "theta": rng.uniform(0.8, 3.0)})
        gpd = spec("gpd.json", "gpd", {"theta": rng.uniform(0.5, 2.0), "lambda": rng.uniform(0.2, 1.5)})
        samples = workdir / "samples.txt"
        draws = np.random.default_rng(rng.randrange(2**31)).exponential(1.0 / rng.uniform(0.3, 3.0), self.SAMPLE_M)
        samples.write_text("# seeded exponential sample\n" + "\n".join(repr(float(x)) for x in draws) + "\n")
        t = f"{rng.uniform(0.2, 1.5):.4f}"
        self.argvs = [
            ["measure", "--dist", exp, "--measure", "crex-min", "--n", "2"],
            ["measure", "--dist", weib, "--measure", "dcrex-min", "--n", "2", "--t", t],
            ["measure", "--dist", exp, "--measure", "dcrex", "--t", t, "--order", "3:7"],
            ["estimate", "--samples", str(samples), "--measure", "crex", "--n", "2"],
            ["characterize", "--dist", gpd, "--model", "gpd"],
        ]
        self.labels = ["measure-closed-form", "measure-quadrature", "measure-order", "estimate", "characterize-gpd"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.child_rss_kb: list[int] = []
        self.ops = [Op(lbl, self._process(argv)) for lbl, argv in zip(self.labels, self.argvs)]
        self._inprocess = [Op(lbl, self._inproc(argv)) for lbl, argv in zip(self.labels, self.argvs)]

    @property
    def inprocess_ops(self) -> list[Op]:
        return self._inprocess

    def _process(self, argv: list[str]) -> Callable[[], Any]:
        cmd = [sys.executable, "-m", "extropy.cli", *argv]
        err_path = self.workdir / "stderr.txt"

        def run():
            with open(err_path, "w+b") as err:
                proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root)
                try:
                    out = proc.stdout.read()
                finally:
                    proc.stdout.close()
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                err.seek(0)
                err_tail = err.read()[-200:].decode(errors="replace") if proc.returncode else ""
            self.child_rss_kb.append(usage.ru_maxrss)
            return proc.returncode, out, err_tail

        return run

    @staticmethod
    def _inproc(argv: list[str]) -> Callable[[], Any]:
        from extropy import cli

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            return code, buf.getvalue().encode()

        return run

    def prepare(self) -> None:
        self.refs = [op.run() for op in self._inprocess]

    def check(self, i: int, output: Any) -> list[str]:
        code, out, err_tail = output
        reasons = []
        if code != 0:
            reasons.append(f"{self.labels[i]}: exit {code}: {err_tail.strip()}")
        if (code, out) != self.refs[i]:
            reasons.append(f"{self.labels[i]}: stdout differs from in-process cli.run")
        return reasons

    def check_inprocess(self, i: int, output: Any) -> list[str]:
        return [] if output == self.refs[i] else [f"{self.labels[i]}: in-process output changed"]


WORKLOADS = {cls.name: cls for cls in (Curves, Checks, Estimate, Cli)}
