"""Command-line front end.

Verbs: measure, curve, check, characterize, estimate, reproduce.  Domain
errors, numeric overflow, malformed or non-finite ``--curve`` rows and a
file that cannot be read or written (or is not UTF-8 text) included, exit 1
with a one-line diagnostic on stderr; usage errors exit 2, among them a
non-finite float flag (``--t``, ``--t-min``, ``--t-max``, ``--bound``,
``check --tol`` or ``EXTROPY_TOL``), a ``--t-min``/``--t-max`` range too
wide for a float, ``check --n`` past ``MAX_N`` for the k-of-n chains and
``--tol`` on any verb but ``check``.  Only ``check`` reads ``--tol`` and
``EXTROPY_TOL``, and they hold for one ``run`` only.
Artifacts are written atomically (temp file + rename), so an error never
leaves a partial file behind.  All numeric output uses 12 significant
digits; identical argv produces byte-identical output.  JSON output is
strict JSON: a non-finite value (an ``Inconclusive`` check's margin, say)
is written as the string "nan", "inf" or "-inf".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import distributions, measures
from .distributions import Distribution, PiecewiseBounded, TwoExpMax, from_spec
from .errors import ExtropyError, UsageError
from .measures import Curve, MeasureKind, _evaluate_group, curve as eval_curve, evaluate

# analysis, characterize, estimators and orderstats are imported by the verbs
# and flags that use them, so that a process loads only what its argv needs

_MEASURE_NAMES = sorted(measures.ALL_KINDS)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _finite(obj):
    """obj with every non-finite float written as a string: "nan", "inf" or "-inf"."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _json(obj, indent: Optional[int] = None) -> str:
    """obj as one JSON document (RFC 8259, so no NaN or Infinity) and a newline."""
    return json.dumps(_finite(obj), indent=indent, allow_nan=False) + "\n"


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
        try:
            os.replace(tmp, output)
        except OSError as exc:  # its message names the temporary file as well
            raise OSError(exc.errno, exc.strerror, output) from None
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
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,value":
            raise UsageError(f"curve file {path} must start with header 't,value'")
        for lineno, line in enumerate(fh, start=2):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                t, v = (float(field) for field in stripped.split(","))
            except ValueError:
                t = v = math.nan
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ExtropyError(f"{path}:{lineno}: expected 't,value' finite numbers, got {stripped!r}")
            ts.append(t)
            values.append(v)
    return Curve(tuple(ts), tuple(values))


def _load_dist(path: str) -> Distribution:
    with open(path, encoding="utf-8") as fh:
        return from_spec(json.load(fh))


def _apply_order_flags(d: Distribution, args: argparse.Namespace) -> Distribution:
    given = [f for f in ("order_min", "order_max", "order") if getattr(args, f, None) is not None]
    if len(given) > 1:
        raise UsageError("at most one of --order-min/--order-max/--order may be given")
    if not given:
        return d
    from .orderstats import kth_order, max_order, min_order

    if given[0] == "order_min":
        return min_order(d, args.order_min)
    if given[0] == "order_max":
        return max_order(d, args.order_max)
    try:
        k_str, n_str = args.order.split(":")
        k, n = int(k_str), int(n_str)
    except ValueError as exc:
        raise UsageError(f"--order expects k:n, got {args.order!r}") from exc
    return kth_order(d, k, n)


def _measure_kind(args: argparse.Namespace) -> MeasureKind:
    name = args.measure
    if name in measures.DYNAMIC_KINDS and args.t is None:
        raise UsageError(f"measure {name} requires --t")
    return MeasureKind(name, n=args.n, t=args.t)


def _t_grid(d: Distribution, args: argparse.Namespace) -> list[float]:
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    if args.t_min is not None and args.t_max is not None:
        if not (args.t_min < args.t_max):
            raise UsageError("--t-min must be < --t-max")
        if not math.isfinite(args.t_max - args.t_min):
            raise UsageError(f"--t-max - --t-min must be finite, got {args.t_max} - {args.t_min}")
        return list(np.linspace(args.t_min, args.t_max, args.steps))
    from .analysis import default_grid

    return default_grid(d, points=args.steps)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def _cmd_measure(args: argparse.Namespace) -> str:
    d = _apply_order_flags(_load_dist(args.dist), args)
    mv = evaluate(d, _measure_kind(args))
    return _json(
        {"value": float(_fmt(mv.value)), "method": mv.method,
         "abs_error_estimate": float(_fmt(mv.abs_error_estimate))}
    )


def _cmd_curve(args: argparse.Namespace) -> str:
    d = _apply_order_flags(_load_dist(args.dist), args)
    if args.measure not in measures.DYNAMIC_KINDS:
        raise UsageError(f"curve requires a dynamic measure, got {args.measure}")
    grid = _t_grid(d, args)
    cv = eval_curve(d, lambda t: MeasureKind(args.measure, n=args.n, t=t), grid)
    return _curve_csv(cv.ts, cv.values)


def _cmd_check(args: argparse.Namespace) -> str:
    from . import analysis

    d = _load_dist(args.dist)
    d2 = _load_dist(args.dist2) if args.dist2 else None
    n = args.n
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if args.suite in ("orderings", "all") and n > analysis.MAX_N:
        raise UsageError(f"--n must be <= {analysis.MAX_N} for the k-of-n chains of --suite {args.suite}, got {n}")
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
            if args.suite == "inequalities":  # under "all", bounds_suite reports it
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
        return _json([r.as_dict() for r in reports], indent=2)
    lines = [
        f"{r.check_id}: {r.verdict} (worst_margin={_fmt(r.worst_margin)}, points={r.points_tested})"
        for r in reports
    ]
    return "\n".join(lines) + "\n"


def _cmd_characterize(args: argparse.Namespace) -> str:
    from . import characterize as chz

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
    return _json(result.as_dict(), indent=2)


def _cmd_estimate(args: argparse.Namespace) -> str:
    from . import estimators

    sample = estimators.read_sample_file(args.samples, args.bound)
    if args.measure == "crex":
        value = estimators.empirical_crex(sample, args.n)
    elif args.measure == "cpex":
        value = estimators.empirical_cpex(sample, args.n)
    else:  # dcrex, the last of the parser's choices
        if args.t is None:
            raise UsageError("estimate --measure dcrex requires --t")
        value = estimators.empirical_dcrex(sample, args.t, args.n)
    return _json({"value": float(_fmt(value)), "m": sample.size})


#: grid sizes for the bundled non-monotonicity curves
FIGURE_POINTS = 200


def reproduce_figure(figure: str, points: int = FIGURE_POINTS) -> tuple[list[float], list[float]]:
    """Bundled non-monotone curves, keyed by their conventional figure ids.

    "2.1": dynamic residual extropy of the two-exponential maximum,
    parameterized by u = exp(-t) on (0, 1).  "3.1": dynamic past extropy of
    the kinked bounded cdf on t in (1, 2).
    """
    if figure == "2.1":
        us = list(np.linspace(0.0, 1.0, points + 2)[1:-1])
        return us, _evaluate_group(TwoExpMax(), "dcrex", 1, [-math.log(u) for u in us]).value.tolist()
    if figure == "3.1":
        ts = list(np.linspace(1.0, 2.0, points + 2)[1:-1])
        return ts, _evaluate_group(PiecewiseBounded(), "dcpex", 1, ts).value.tolist()
    raise UsageError(f"unknown figure {figure!r}; expected 2.1 or 3.1")


def _cmd_reproduce(args: argparse.Namespace) -> str:
    ts, values = reproduce_figure(args.figure)
    return _curve_csv(ts, values)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
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
    p.add_argument("--tol", type=float, default=None, help="inequality tolerance override")
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
        # only check takes --tol, and only check reads EXTROPY_TOL
        tol = os.environ.get("EXTROPY_TOL") if args.verb == "check" else None
        if tol is not None and args.tol is None:
            try:
                args.tol = float(tol)
            except ValueError:
                raise UsageError(f"EXTROPY_TOL must be a number, got {tol!r}") from None
        for key, value in vars(args).items():
            # every float flag: argparse reads "nan" and "inf" as floats
            if isinstance(value, float) and not math.isfinite(value):
                flag = "--tol and EXTROPY_TOL" if key == "tol" else "--" + key.replace("_", "-")
                raise UsageError(f"{flag} must be finite, got {value}")
        if getattr(args, "tol", None) is None:
            text = args.func(args)
        else:
            from . import analysis

            # the checks' module-level default, for this run only
            default, analysis.BASE_TOL = analysis.BASE_TOL, args.tol
            try:
                text = args.func(args)
            finally:
                analysis.BASE_TOL = default
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: an input file is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON spec: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
