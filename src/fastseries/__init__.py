"""Truncated power series over complex coefficients with budget-instrumented
fast exponential, inverse and constant-power algorithms."""

from .block_engine import (
    BlockCache,
    BlockPlan,
    triple_middle_product,
)
from .cost_ledger import (
    EXPECTED_STAGE_UNITS,
    CostLedger,
    StageBudget,
    main_term_units,
    report_kv,
    report_text,
    stage_table,
)
from .errors import (
    DomainError,
    FormatError,
    KindMismatchError,
    PlanError,
    UnsupportedLengthError,
)
from .fast_ops import (
    choose_plan,
    fast_exp,
    fast_inverse,
    fast_log,
    fast_pow,
)
from .fft_core import (
    Spectrum,
    dft,
    dft_3k,
    double_dft,
    granted_length,
    inverse_dft,
    inverse_double_dft,
    multiply,
)
from .oracle import (
    oracle_exp,
    oracle_inverse,
    oracle_log,
    oracle_middle,
    oracle_pow,
)
from .series_core import (
    TruncatedSeries,
    derivative,
    load_series,
    mul_mod,
    read_series,
    write_series,
)

__version__ = "0.1.0"
