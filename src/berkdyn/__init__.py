"""berkdyn: exact arithmetic for dynamics on the Berkovich projective line."""

from .errors import (
    BerkdynError,
    DivisionByZero,
    ExtensionBound,
    IncompatibleBackends,
    Inconclusive,
    InfinityOperand,
    Mismatch,
    NegativeValuation,
    NonzeroMass,
    NotBernoulli,
    ParamDomain,
    PrecisionExhausted,
    TypeIAtom,
    TypeIOperand,
)
from .fields import (
    Backend,
    FieldElement,
    EQUICHAR0,
    EQUICHARP,
    INF,
    PADIC,
    parse_backend,
    residue_roots,
)

__all__ = [
    "Backend",
    "FieldElement",
    "EQUICHAR0",
    "EQUICHARP",
    "INF",
    "PADIC",
    "parse_backend",
    "residue_roots",
    "BerkdynError",
    "DivisionByZero",
    "ExtensionBound",
    "IncompatibleBackends",
    "Inconclusive",
    "InfinityOperand",
    "Mismatch",
    "NegativeValuation",
    "NonzeroMass",
    "NotBernoulli",
    "ParamDomain",
    "PrecisionExhausted",
    "TypeIAtom",
    "TypeIOperand",
]

__version__ = "0.1.0"
