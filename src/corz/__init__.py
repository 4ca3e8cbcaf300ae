"""Exact counting of zero entries in symmetric-group character tables
restricted to rows indexed by ell-core partitions.

Everything here computes over exact integers and rationals; the numeric
cross-check of inv_alpha runs in integer fixed point.  Floating point appears
only in the rounding of ratios that `corz asymptotics` prints, and it never
feeds back into a count.

The verify suites (`Report`, `available_suites`, `verify`) load from
`corz.suites` on first use, so importing corz, or running `corz count`,
`census` or `asymptotics`, does not compile or load them.
"""

from .partitions import (
    Partition,
    count_cores,
    count_p,
    count_p_regular,
    enumerate_partitions,
    is_core,
    is_regular,
)
from .abacus import (
    Abacus,
    abacus_size,
    bead_jump_witness,
    enumerate_cores,
    extremal_abacus,
    from_abacus,
    max_regular_core,
    n_ell,
    swap_columns,
    to_abacus,
)
from .characters import (
    ColumnEvaluator,
    centralizer_order,
    dimension,
    mn_character,
)
from .numtheory import (
    bernoulli_number,
    c2_closed,
    c3_closed,
    core_lower_bound_ok,
    core_main_term,
    delta_ell,
    generalized_bernoulli,
    inv_alpha,
    legendre,
    sigma_twisted,
)
from .census import (
    CensusConfig,
    CensusRecord,
    build_record,
    run_census,
    write_records,
    z_all_exact,
    z_exact,
    z_lower_bound,
    z_star_closed,
    z_star_exact,
)

__version__ = "0.1.0"

__all__ = [
    "Abacus",
    "CensusConfig",
    "CensusRecord",
    "ColumnEvaluator",
    "Partition",
    "Report",
    "abacus_size",
    "available_suites",
    "bead_jump_witness",
    "bernoulli_number",
    "build_record",
    "c2_closed",
    "c3_closed",
    "centralizer_order",
    "core_lower_bound_ok",
    "core_main_term",
    "count_cores",
    "count_p",
    "count_p_regular",
    "delta_ell",
    "dimension",
    "enumerate_cores",
    "enumerate_partitions",
    "extremal_abacus",
    "from_abacus",
    "generalized_bernoulli",
    "inv_alpha",
    "is_core",
    "is_regular",
    "legendre",
    "max_regular_core",
    "mn_character",
    "n_ell",
    "run_census",
    "sigma_twisted",
    "swap_columns",
    "to_abacus",
    "verify",
    "write_records",
    "z_all_exact",
    "z_exact",
    "z_lower_bound",
    "z_star_closed",
    "z_star_exact",
]


def __getattr__(name: str):
    # called only for a name the module does not hold (PEP 562), so the
    # suites load on the first use of one of their three names
    if name in ("Report", "available_suites", "verify"):
        from . import suites

        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
