"""Desk-scale computational laboratory for sieve methods and prime gaps."""

from .errors import (
    CapacityError,
    ConsistencyError,
    ConvergenceError,
    EmptyRangeError,
    InfeasibleError,
    PrimelabError,
    TupleSearchError,
    ValidationError,
)
from .sieve import (
    GapRecord,
    GapScan,
    gap_scan,
    prime_count,
    primes_between,
    primorial,
)
from .tuples import (
    AdmissibleTuple,
    Refutation,
    greedy_narrow_tuple,
    is_admissible,
    prime_offset_tuple,
)
from .stats import (
    ErdosKacReport,
    PigeonholeReport,
    StatReport,
    erdos_kac,
    hardy_ramanujan_proportion,
    mertens_sums,
    pigeonhole_experiment,
    pnt_ratio,
)
from .gpy import (
    GpyParams,
    GpyReport,
    ZHANG_LEVEL_EXPONENT,
    error_sum_E,
    lambda_d,
    level_of_distribution_sum,
    remainder_R,
    residue_set_C,
    weighted_sums,
)
from .maynard import (
    BasisIndex,
    GBoundParams,
    GapChainReport,
    IJEstimate,
    MkCertificate,
    QuadraticFormPair,
    build_quadratic_forms,
    gap_bound_chain,
    ij_monte_carlo,
    mk_lower_bound_g,
    mk_lower_bound_poly,
    optimize_g_bound,
)
from .largegap import (
    CompositeRun,
    CoveringSystem,
    composite_run_from_cover,
    crt_shift,
    greedy_cover,
    max_gap_G,
    primorial_run,
    verify_composite_run,
)

__version__ = "0.1.0"
