"""Cumulative residual/past extropy of extreme order statistics.

Measures, bounds, stochastic orderings, characterizations (generalized
Pareto and power families), plug-in estimators, and a CLI front end.

``import extropy`` loads no submodule: each one, and each name below, is
imported on first use (PEP 562), so a process pays only for what it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: the names this package exports from each submodule
_EXPORTS = {
    "distributions": (
        "Affine",
        "Distribution",
        "Exponential",
        "FiniteRange",
        "FoldedCramer",
        "GPD",
        "Mixture",
        "Pareto",
        "PiecewiseBounded",
        "Power",
        "Support",
        "TwoExpMax",
        "Uniform",
        "Weibull",
        "from_spec",
    ),
    "measures": ("Curve", "MeasureKind", "MeasureValue", "evaluate"),
    "orderstats": ("OrderSpec", "kth_order", "kth_order_sf", "max_order", "min_order"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = ("analysis", "characterize", "distributions", "estimators", "measures", "orderstats")

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name in _ORIGIN:
        return getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
