"""Exception hierarchy shared by all slowclt modules."""


class SlowCltError(Exception):
    """Base class for all library errors."""


# towers
class MassSumError(SlowCltError):
    """Tower masses do not sum to 1 within tolerance."""


# construction
class ScheduleInfeasible(SlowCltError):
    """No admissible probe times found within the search bound."""


class BadConstants(SlowCltError):
    """Schedule constants are unknown to the variant, not numbers, or out of range."""


class VariantMismatch(SlowCltError):
    """Operation applied to a model or schedule of the wrong variant."""


class DegenerateModel(SlowCltError):
    """The inactive set has measure 0 or 1, degenerating the process."""


# distributions
class BudgetExceeded(SlowCltError):
    """The grid of interval_probability needs more cells than its budget."""


# probes
class EvenIndex(SlowCltError):
    """Density-variant ratio probe requested at an even index."""


class LatticeMismatch(SlowCltError):
    """Step law is not supported on the declared lattice, or is degenerate."""


# reporting and cli
class ConfigError(SlowCltError):
    """Experiment configuration violates the schema."""


class ParseError(SlowCltError):
    """Report bundle cannot be parsed."""


class BoundMismatch(SlowCltError):
    """A certificate's records differ from the rerun of its header, or a
    probe of that rerun fails."""
