"""safemean: safe estimators of the mean of non-negative heavy-tailed samples.

The central estimator is the smallest mean over a KL-divergence ball around
the empirical distribution, solved through its one-dimensional concave dual.
Companion estimators (deflated mean, Wasserstein, truncated mean, variance
regularization, total-variation mass removal) share one interface, a
Monte Carlo harness measures disappointment and conservatism probabilities
against their theoretical bounds, and the rates module gives the
large-deviation rates and variance-ratio curves they are compared with.
"""

__version__ = "0.1.0"

from .core import (
    DiscreteDistribution,
    EstimateResult,
    LogNormal,
    Pareto,
    RadiusSchedule,
    Sample,
    ScaledBernoulli,
    UniformBounded,
    read_sample_file,
    survival_probability,
    true_mean,
    true_variance,
)
from .dual import (
    DualSolution,
    DualSolverError,
    primal_witness,
    solve_kl_dro_dual,
    solve_kl_dro_dual_batch,
)
from .estimators import (
    EstimatorConfig,
    estimate,
    kl_disappointment_bound,
    truncation_constants,
)
from .montecarlo import (
    TrialReport,
    conservatism_probability,
    disappointment_probability,
    draw_sample,
    exact_bernoulli_event_probability,
    wilson_interval,
)
from .oracle import (
    CertificateReport,
    kl_projection_bruteforce,
    random_feasible_probe,
    random_instances,
    verify_certificate,
)
from .rates import (
    RateFit,
    cramer_rate,
    laplace_transform,
    pareto_variance_ratio_limit,
    rate_fit,
    variance_ratio_curve,
)
