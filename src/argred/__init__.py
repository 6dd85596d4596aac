"""fma-based argument reduction toolkit with a generic soft-float kernel.

The package builds and audits Cody-Waite style constant sets (R, C1, C2,
C3) for C in {pi, ln 2}, runs the exact three-step reduction pipeline at
any binary precision, and ships a verification harness that checks the
exactness theorems the pipeline relies on, exhaustively at small
precision and by seeded random campaigns at single/double.
"""

from .softfp import (
    DOUBLE,
    DOUBLE_EXTENDED,
    QUAD,
    SINGLE,
    TIES_AWAY,
    TIES_EVEN,
    Format,
    Fpn,
    OpCounter,
    OpResult,
    PreconditionError,
    UnderflowError,
    add,
    fast2mult,
    fast2sum,
    fits_scaled,
    fma,
    is_representable,
    mul,
    round_nearest,
    sub,
    ulp,
    ulp2,
    ulp2_exp,
)
from .realnum import (
    LN2,
    PI,
    AmbiguousRoundingError,
    Constant,
    RealEnclosure,
    ln2_enclosure,
    pi_enclosure,
    round_rational,
    safe_round,
)
from .constgen import (
    AuditReport,
    ConstantSet,
    HypothesisViolation,
    audit,
    format_table,
    gen_constants,
    set_to_record,
    synthetic_set,
)
from .reduction import (
    ReductionOutput,
    ReductionRangeError,
    TheoremViolation,
    extract_z,
    first_step,
    reduce,
    residual_interval,
    second_step,
    third_step,
)

__version__ = "0.1.0"

# the verification harness loads on first use: `import argred` skips theorems.py
_HARNESS = ("CheckConfig", "CheckResult", "demo_codywaite", "run_check")


def __getattr__(name: str):
    if name in _HARNESS:
        from . import theorems

        return getattr(theorems, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HARNESS})
