"""Semantic exception hierarchy shared by every module.

All domain failures derive from :class:`ExtropyError` so callers (and the
CLI) can distinguish bad inputs from genuine bugs.
"""


class ExtropyError(Exception):
    """Base class for all domain errors raised by this package."""


class ParamDomainError(ExtropyError):
    """A distribution parameter violates its admissible domain."""


class SchemaError(ExtropyError):
    """A JSON distribution spec is malformed or has unknown keys."""


class QuantileOutOfRange(ExtropyError):
    """Quantile requested at p outside (0, 1)."""


class DegenerateTail(ExtropyError):
    """Survival function is (numerically) zero at the conditioning age."""


class DegenerateHead(ExtropyError):
    """Distribution function is (numerically) zero at the conditioning age."""


class DivergentMean(ExtropyError):
    """The distribution has no finite mean."""


class DivergentIntegral(ExtropyError):
    """The defining integral of a measure does not converge."""


class UnboundedSupport(ExtropyError):
    """A past-lifetime measure was requested on an unbounded support."""


class InvalidScale(ExtropyError):
    """Affine transform with nonpositive scale."""


class InvalidOrder(ExtropyError):
    """Order-statistic rank/sample-size pair outside 1 <= k <= n."""


class VanishingDensity(ExtropyError):
    """Quantile-form integrand hit an (numerically) zero density."""


class EmptySample(ExtropyError):
    """An estimator was fed an empty sample."""


class BadWeights(ExtropyError):
    """Mixture weights are not positive or do not sum to one."""


class UsageError(ExtropyError):
    """Command line invoked with inconsistent or unknown options."""
