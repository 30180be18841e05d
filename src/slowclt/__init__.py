"""Stationary martingale-difference counterexamples to the local limit theorem.

Three constructions built on finite tower families: one with arbitrarily slow
central-limit rates on the integer lattice, one with a bounded marginal
density, and one that is beta-mixing at any prescribed summable rate.  Every
claimed inequality is checked by exact computation at every scheduled index;
thm1 c=0.5 beta=0.5 and thm3 c=0.25 beta=0.5 certify at K = 8.  Monte
Carlo enters only as an optional cross-check of the density variant's
interval probability, and never into a certified value.
"""

from .construction import (
    LatticeNoise,
    ProcessModel,
    RateSequence,
    Schedule,
    TwoIntervalUniformNoise,
    build_counterexample,
    density_of_f,
    derive_schedule,
    derive_schedule_thm1,
    derive_schedule_thm2,
    derive_schedule_thm3,
    intersection_lower_bound,
)
from .distributions import (
    IntervalProbability,
    LatticeDistribution,
    PiecewiseDensity,
    interval_probability,
    kolmogorov_distance,
    lattice_sum_distribution,
    lattice_sum_distributions,
    normal_cdf,
    sample_partial_sums,
)
from .errors import (
    BadConstants,
    BoundMismatch,
    BudgetExceeded,
    ConfigError,
    DegenerateModel,
    EvenIndex,
    LatticeMismatch,
    MassSumError,
    ParseError,
    ScheduleInfeasible,
    SlowCltError,
    VariantMismatch,
)
from .probes import (
    MixingProfile,
    ProbeResult,
    clt_probe,
    conditional_variance_floor,
    gnedenko_baseline,
    gnedenko_baselines,
    llt_probe_density,
    llt_probe_lattice,
    mds_conditional_mean_test,
    mixing_probe,
    mixing_profile,
)
from .reporting import (
    ExperimentConfig,
    ReportBundle,
    run_experiment,
    verify_certificate,
    write_report,
)
from .towers import (
    TowerSpec,
    TowerSystem,
    build_tower_system,
    occupancy_distribution,
    occupancy_distributions,
    sample_trajectory_batch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
