"""Stationary martingale-difference counterexamples to the local limit theorem.

Three constructions built on finite tower families: one with arbitrarily slow
central-limit rates on the integer lattice, one with a bounded marginal
density, and one that is beta-mixing at any prescribed summable rate.  Every
claimed inequality is checked by exact computation at small scale, with
Monte Carlo as an independent cross-check.
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
    normal_cdf,
    sample_partial_sums,
    symmetric_step_sum,
)
from .errors import (
    BadConstants,
    BoundMismatch,
    BudgetExceeded,
    ConfigError,
    DegenerateModel,
    EvenIndex,
    InvalidState,
    LatticeMismatch,
    MassSumError,
    ParseError,
    PeriodicityError,
    ScheduleInfeasible,
    SlowCltError,
    VariantMismatch,
)
from .probes import (
    MixingProfile,
    ProbeResult,
    clt_probe,
    conditional_variance_floor,
    find_mixing_lag,
    gnedenko_baseline,
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
    OccupancyDistribution,
    TowerSpec,
    TowerState,
    TowerSystem,
    build_tower_system,
    occupancy_distribution,
    sample_trajectory_batch,
    stationary_measure,
    step_distribution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
