"""Exception hierarchy shared by all modules."""


class BerkdynError(Exception):
    """Base class for all library-specific errors."""


class DivisionByZero(BerkdynError):
    pass


class IncompatibleBackends(BerkdynError):
    pass


class NegativeValuation(BerkdynError):
    pass


class PrecisionExhausted(BerkdynError):
    """An operation consumed all tracked significance."""


class ExtensionBound(BerkdynError):
    """A root or digit lives in a residue extension beyond k_max (or is not
    representable in the backend, or in the CLI literal syntax, at all)."""


class InfinityOperand(BerkdynError):
    pass


class TypeIOperand(BerkdynError):
    pass


class NonzeroMass(BerkdynError):
    pass


class TypeIAtom(BerkdynError):
    pass


class NotBernoulli(BerkdynError):
    pass


class ParamDomain(BerkdynError):
    pass


class Mismatch(BerkdynError):
    """Cross-validation defect report."""


class Inconclusive(BerkdynError):
    """Detection budget exhausted without a verdict."""
