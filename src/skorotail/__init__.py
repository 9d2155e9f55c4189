"""Regularity statistics and tail bounds for step paths on [0,1].

Layers: ``paths`` (step paths, triple-minimum statistics, moduli),
``gls`` (moment/exponential-moment norms and convex conjugation),
``entropy`` (covering numbers), ``bounds`` (every tail-bound evaluator),
``simulate`` (seeded processes, estimation, domination reports),
``pipeline`` (simulate -> estimate -> bound -> check), ``cli`` (front end).
"""

from .bounds import (
    BoundUnavailable,
    TailCurve,
    chaining_constant,
    clt_exp_envelope,
    entropy_series_bound,
    exp_tail_envelopes,
    factored_module_term,
    geometric_sequences,
    min_tail_2d,
    min_tail_fenchel,
    moment_global_bound,
    moment_module_bound,
    pizier_min_bound,
    polynomial_sequences,
    power_global_bound,
    power_module_bound,
    rosenthal_constant,
    rosenthal_nu,
)
from .entropy import SemiDistanceGrid, covering_number, metric_entropy, scaled_window_modulus
from .gls import (
    EmpiricalSample,
    PhiFunction,
    PsiFunction,
    gls_norm,
    mgf_norm,
    moment_tail_equivalence,
    natural_phi,
    tail_from_phi,
    young_fenchel,
)
from .paths import (
    GFunction,
    SampledPath,
    continuity_modulus,
    ps_module,
    triple_min,
    triple_min_sup,
)
from .simulate import (
    MomentTable,
    PathBundle,
    ProcessSpec,
    SimConfig,
    TailEstimate,
    boundary_functionals,
    domination_report,
    empirical_tail,
    estimate_triple_moments,
    fit_g_envelope,
    generate_paths,
    partial_sum_paths,
)

__version__ = "0.1.0"
