"""Command-line front end.

Verbs: measure, curve, check, characterize, estimate, reproduce.  Domain
errors, numeric overflow included, exit 1 with a one-line diagnostic on
stderr; usage errors exit 2.
Artifacts are written atomically (temp file + rename), so an error never
leaves a partial file behind.  All numeric output uses 12 significant
digits; identical argv produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import analysis, characterize as chz, distributions, estimators, measures
from .distributions import Distribution, PiecewiseBounded, TwoExpMax, from_spec
from .errors import ExtropyError, UsageError
from .measures import Curve, MeasureKind, curve as eval_curve, dcpex, dcrex, evaluate
from .orderstats import kth_order, max_order, min_order

_MEASURE_NAMES = sorted(measures.ALL_KINDS)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _json_default(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def _emit(text: str, output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    import tempfile  # about 7 ms of start-up (shutil, random), needed only here

    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".extropy-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _curve_csv(ts: Sequence[float], values: Sequence[float]) -> str:
    lines = ["t,value"]
    lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(ts, values)]
    return "\n".join(lines) + "\n"


def _read_curve_csv(path: str) -> Curve:
    ts: list[float] = []
    values: list[float] = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,value":
            raise UsageError(f"curve file {path} must start with header 't,value'")
        for line in fh:
            if not line.strip():
                continue
            t_str, v_str = line.strip().split(",")
            ts.append(float(t_str))
            values.append(float(v_str))
    return Curve(tuple(ts), tuple(values))


def _load_dist(path: str) -> Distribution:
    with open(path) as fh:
        return from_spec(json.load(fh))


def _apply_order_flags(d: Distribution, args: argparse.Namespace) -> Distribution:
    given = [f for f in ("order_min", "order_max", "order") if getattr(args, f, None)]
    if len(given) > 1:
        raise UsageError("at most one of --order-min/--order-max/--order may be given")
    if getattr(args, "order_min", None):
        return min_order(d, args.order_min)
    if getattr(args, "order_max", None):
        return max_order(d, args.order_max)
    if getattr(args, "order", None):
        try:
            k_str, n_str = args.order.split(":")
            k, n = int(k_str), int(n_str)
        except ValueError as exc:
            raise UsageError(f"--order expects k:n, got {args.order!r}") from exc
        return kth_order(d, k, n)
    return d


def _measure_kind(args: argparse.Namespace) -> MeasureKind:
    name = args.measure
    if name in measures.DYNAMIC_KINDS and args.t is None:
        raise UsageError(f"measure {name} requires --t")
    return MeasureKind(name, n=args.n, t=args.t)


def _t_grid(d: Distribution, args: argparse.Namespace) -> list[float]:
    if args.t_min is not None and args.t_max is not None:
        if not (args.t_min < args.t_max):
            raise UsageError("--t-min must be < --t-max")
        return list(np.linspace(args.t_min, args.t_max, args.steps))
    return analysis.default_grid(d, points=args.steps)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def _cmd_measure(args: argparse.Namespace) -> str:
    d = _apply_order_flags(_load_dist(args.dist), args)
    mv = evaluate(d, _measure_kind(args))
    return json.dumps(
        {"value": float(_fmt(mv.value)), "method": mv.method,
         "abs_error_estimate": float(_fmt(mv.abs_error_estimate))},
        default=_json_default,
    ) + "\n"


def _cmd_curve(args: argparse.Namespace) -> str:
    d = _apply_order_flags(_load_dist(args.dist), args)
    if args.measure not in measures.DYNAMIC_KINDS:
        raise UsageError(f"curve requires a dynamic measure, got {args.measure}")
    grid = _t_grid(d, args)
    cv = eval_curve(d, lambda t: MeasureKind(args.measure, n=args.n, t=t), grid)
    return _curve_csv(cv.ts, cv.values)


def _cmd_check(args: argparse.Namespace) -> str:
    d = _load_dist(args.dist)
    d2 = _load_dist(args.dist2) if args.dist2 else None
    n = args.n
    reports: list[analysis.CheckReport] = []

    def bounds_suite() -> None:
        grid = analysis.default_grid(d)
        reports.append(analysis.check_crexmin_monotone_n(d))
        if d.has_finite_mean:
            reports.append(analysis.check_crexmin_mean_bound(d))
            reports.append(analysis.check_equilibrium_identity(d))
        reports.append(analysis.check_crexmin_vs_crex(d))
        reports.append(analysis.check_dcrex_bounds(d, n, grid))
        if d.support.bounded:
            reports.append(analysis.check_cpexmax_bounds(d))
            reports.append(analysis.check_dcpex_bounds(d, n, grid))
            reports.append(analysis.check_cpex_cpen_inequality(d))
            reports.append(analysis.check_mean_abs_diff(d))
            reports.append(analysis.check_shift_independence(d, 2.0, 3.0))
        if isinstance(d, distributions.Uniform):
            reports.append(analysis.check_symmetry_duality(d, grid))
            reports.append(analysis.check_dcpex_shift_relation(d, 2.0, 3.0, grid))

    def orderings_suite() -> None:
        grid = analysis.default_grid(d)
        for k in range(1, n + 1):
            reports.append(analysis.check_korder_chains(d, k, n, grid, "residual"))
            if d.support.bounded:
                reports.append(analysis.check_korder_chains(d, k, n, grid, "past"))
        if d2 is not None:
            reports.append(analysis.check_hr_implies_dcrex(d, d2, n, grid))
            if d.support.bounded and d2.support.bounded:
                reports.append(analysis.check_rh_implies_dcpex(d, d2, n, grid))

    def inequalities_suite() -> None:
        if d.support.bounded:
            reports.append(analysis.check_mean_abs_diff(d))
            if d2 is not None and d2.support.bounded:
                reports.append(analysis.check_convolution_inequality(d, d2))
                reports.append(analysis.check_conditioning([(0.5, d), (0.5, d2)]))

    if args.suite in ("bounds", "all"):
        bounds_suite()
    if args.suite in ("orderings", "all"):
        orderings_suite()
    if args.suite in ("inequalities", "all"):
        inequalities_suite()

    if args.json:
        payload = [r.as_dict() for r in reports]
        return json.dumps(payload, indent=2, default=_json_default) + "\n"
    lines = [
        f"{r.check_id}: {r.verdict} (worst_margin={_fmt(r.worst_margin)}, points={r.points_tested})"
        for r in reports
    ]
    return "\n".join(lines) + "\n"


def _cmd_characterize(args: argparse.Namespace) -> str:
    if args.curve:
        cv = _read_curve_csv(args.curve)
        if args.model != "gpd":
            raise UsageError("curve input is only supported for --model gpd")
        result = chz.gpd_slope_test(cv, args.n)
    else:
        if not args.dist:
            raise UsageError("characterize needs --dist or --curve")
        d = _load_dist(args.dist)
        grid = _t_grid(d, args)
        if args.model == "gpd":
            result = chz.gpd_ratio_test(d, args.n, grid)
        else:
            result = chz.power_ratio_test(d, args.n, grid)
    return json.dumps(result.as_dict(), indent=2, default=_json_default) + "\n"


def _cmd_estimate(args: argparse.Namespace) -> str:
    sample = estimators.read_sample_file(args.samples, args.bound)
    if args.measure == "crex":
        value = estimators.empirical_crex(sample, args.n)
    elif args.measure == "cpex":
        value = estimators.empirical_cpex(sample, args.n)
    elif args.measure == "dcrex":
        if args.t is None:
            raise UsageError("estimate --measure dcrex requires --t")
        value = estimators.empirical_dcrex(sample, args.t, args.n)
    else:
        raise UsageError(f"unknown estimator measure {args.measure!r}")
    return json.dumps({"value": float(_fmt(value)), "m": sample.size}) + "\n"


#: grid sizes for the bundled non-monotonicity curves
FIGURE_POINTS = 200


def reproduce_figure(figure: str, points: int = FIGURE_POINTS) -> tuple[list[float], list[float]]:
    """Bundled non-monotone curves, keyed by their conventional figure ids.

    "2.1": dynamic residual extropy of the two-exponential maximum,
    parameterized by u = exp(-t) on (0, 1).  "3.1": dynamic past extropy of
    the kinked bounded cdf on t in (1, 2).
    """
    if figure == "2.1":
        d = TwoExpMax()
        us = list(np.linspace(0.0, 1.0, points + 2)[1:-1])
        values = [evaluate(d, dcrex(-math.log(u))).value for u in us]
        return us, values
    if figure == "3.1":
        d = PiecewiseBounded()
        ts = list(np.linspace(1.0, 2.0, points + 2)[1:-1])
        values = [evaluate(d, dcpex(t)).value for t in ts]
        return ts, values
    raise UsageError(f"unknown figure {figure!r}; expected 2.1 or 3.1")


def _cmd_reproduce(args: argparse.Namespace) -> str:
    ts, values = reproduce_figure(args.figure)
    return _curve_csv(ts, values)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="inequality tolerance override")
    common.add_argument("--output", default=None, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="extropy",
        description="Cumulative residual/past extropy of extreme order statistics",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=argparse.ArgumentParser)

    def add_dist(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--dist", required=required, help="JSON distribution spec file")

    def add_order_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--order-min", type=int, default=None, metavar="N")
        p.add_argument("--order-max", type=int, default=None, metavar="N")
        p.add_argument("--order", default=None, metavar="K:N")

    def add_grid_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--t-min", type=float, default=None)
        p.add_argument("--t-max", type=float, default=None)
        p.add_argument("--steps", type=int, default=40)

    p = sub.add_parser("measure", parents=[common], help="evaluate one measure")
    add_dist(p)
    p.add_argument("--measure", required=True, choices=_MEASURE_NAMES)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=float, default=None)
    add_order_flags(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("curve", parents=[common], help="evaluate a dynamic measure over a grid (CSV)")
    add_dist(p)
    p.add_argument("--measure", required=True, choices=sorted(measures.DYNAMIC_KINDS))
    p.add_argument("--n", type=int, default=1)
    add_grid_flags(p)
    add_order_flags(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("check", parents=[common], help="run a property-check suite")
    p.add_argument("--suite", required=True, choices=["bounds", "orderings", "inequalities", "all"])
    add_dist(p)
    p.add_argument("--dist2", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("characterize", parents=[common], help="model identification from curves or ratios")
    add_dist(p, required=False)
    p.add_argument("--curve", default=None, help="CSV curve file (t,value)")
    p.add_argument("--model", required=True, choices=["gpd", "power"])
    p.add_argument("--n", type=int, default=1)
    add_grid_flags(p)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("estimate", parents=[common], help="plug-in estimation from a sample file")
    p.add_argument("--samples", required=True)
    p.add_argument("--measure", required=True, choices=["crex", "cpex", "dcrex"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--bound", type=float, default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("reproduce", parents=[common], help="emit a bundled non-monotonicity curve as CSV")
    p.add_argument("--figure", required=True, choices=["2.1", "3.1"])
    p.set_defaults(func=_cmd_reproduce)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = os.environ.get("EXTROPY_TOL")
        if args.tol is None and tol is not None:
            try:
                args.tol = float(tol)
            except ValueError:
                raise UsageError(f"EXTROPY_TOL must be a number, got {tol!r}") from None
        if args.tol is not None:
            analysis.BASE_TOL = args.tol  # module-level default used by the checks
        text = args.func(args)
        _emit(text, args.output)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ExtropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON spec: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
