"""Points of the Berkovich projective line and the tree/metric structure.

Representable points: type I (a field element, or the point at infinity) and
type II (a closed ball with rational log-radius).  Log-radii are carried in
valuation scale: logr = -log_base(radius), so smaller balls have larger logr.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InfinityOperand, PrecisionExhausted, TypeIOperand
from .fields import Backend, FieldElement, INF
from . import polys

TYPE_I = "I"
TYPE_II = "II"
INFTY = "inf"


class BerkPoint:
    __slots__ = ("variant", "backend", "value", "logr", "_hash")

    def __init__(self, variant, backend, value=None, logr=None):
        self.variant = variant
        self.backend = backend
        self._hash = None  # points are immutable: hashed once, on demand
        if variant == TYPE_II:
            logr = Fraction(logr)
            value = value.truncate_below(logr)
        self.value = value
        self.logr = logr

    # -- constructors ---------------------------------------------------

    @staticmethod
    def type_i(x: FieldElement) -> "BerkPoint":
        return BerkPoint(TYPE_I, x.backend, value=x)

    @staticmethod
    def infinity(backend: Backend) -> "BerkPoint":
        return BerkPoint(INFTY, backend)

    @staticmethod
    def type_ii(center: FieldElement, logr) -> "BerkPoint":
        return BerkPoint(TYPE_II, center.backend, value=center, logr=logr)

    @staticmethod
    def canonical(backend: Backend) -> "BerkPoint":
        return BerkPoint(TYPE_II, backend, value=backend.zero(), logr=0)

    # -- predicates -----------------------------------------------------

    @property
    def is_infinity(self):
        return self.variant == INFTY

    @property
    def is_type_i(self):
        return self.variant == TYPE_I

    @property
    def is_type_ii(self):
        return self.variant == TYPE_II

    def diam_val(self):
        """Valuation-scale log of diam: logr for balls, +inf for points."""
        if self.variant == TYPE_II:
            return self.logr
        if self.variant == TYPE_I:
            return INF
        raise InfinityOperand("diam at infinity")

    def logabs(self):
        """Valuation of |S| = sup of |z| over the ball."""
        if self.variant == TYPE_I:
            return self.value.valuation()
        if self.variant == TYPE_II:
            return min(self.value.valuation_lower_bound(), self.logr)
        raise InfinityOperand("|S| at infinity")

    # -- equality -------------------------------------------------------

    def _key(self):
        if self.variant == INFTY:
            return (INFTY, self.backend)
        if self.variant == TYPE_I:
            return (TYPE_I, self.value)
        return (TYPE_II, self.value, self.logr)

    def __eq__(self, other):
        if not isinstance(other, BerkPoint):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        if self.variant == INFTY:
            return "INFINITY"
        if self.variant == TYPE_I:
            return f"TYPE_I({self.value})"
        return f"TYPE_II({self.value}, {self.logr})"

    def sort_key(self):
        """Canonical deterministic ordering for reports."""
        if self.variant == INFTY:
            return (2, "", "")
        if self.variant == TYPE_I:
            return (0, repr(self.value), "")
        return (1, str(self.logr), repr(self.value))

    # -- JSON -----------------------------------------------------------

    def to_json(self):
        if self.variant == INFTY:
            return {"t": "inf"}
        if self.variant == TYPE_I:
            return {"t": "I", "v": self.value.literal()}
        return {"t": "II", "c": self.value.literal(), "logr": str(self.logr)}

    @staticmethod
    def from_json(backend: Backend, obj) -> "BerkPoint":
        t = obj["t"]
        if t == "inf":
            return BerkPoint.infinity(backend)
        if t == "I":
            return BerkPoint.type_i(backend.parse_literal(obj["v"]))
        return BerkPoint.type_ii(
            backend.parse_literal(obj["c"]), Fraction(obj["logr"])
        )


# ---------------------------------------------------------------------------
# seminorm evaluation


def seminorm_eval(S: BerkPoint, P) -> Fraction:
    """Valuation-scale seminorm of a polynomial at S; the norm is
    base^(-result).  +inf means the seminorm vanishes."""
    P = polys.trim(P)
    if not P:
        return INF
    if S.variant == TYPE_I:
        return polys.evaluate(P, S.value).valuation()
    if S.variant == TYPE_II:
        shifted = polys.recenter(P, S.value)
        return polys.gauss_valuation(shifted, S.logr)
    raise InfinityOperand("seminorm at infinity is defined via 1/z charts")


# ---------------------------------------------------------------------------
# tree order, join, metrics


def _center_dist(S: BerkPoint, T: BerkPoint):
    """Valuation of the difference of centers/values of two affine points."""
    diff = S.value - T.value
    try:
        return diff.valuation()
    except PrecisionExhausted:
        if S._key() == T._key():
            return INF
        raise


def order_leq(S: BerkPoint, T: BerkPoint) -> bool:
    """Ball containment B_S ⊆ B_T; INFINITY is the maximal element."""
    if T.variant == INFTY:
        return True
    if S.variant == INFTY:
        return False
    ls = S.diam_val()
    lt = T.diam_val()
    if ls < lt:
        return False
    if S.variant == TYPE_I and T.variant == TYPE_I:
        return S == T
    return _center_dist(S, T) >= lt


def join(S: BerkPoint, T: BerkPoint) -> BerkPoint:
    """Least upper bound: the smallest ball containing both."""
    if S.variant == INFTY or T.variant == INFTY:
        return BerkPoint.infinity(S.backend)
    if S._key() == T._key():
        return S
    w = min(S.diam_val(), T.diam_val(), _center_dist(S, T))
    if w == INF:
        return S
    return BerkPoint.type_ii(S.value, w)


def sup_pair(S: BerkPoint, T: BerkPoint):
    """Valuation of diam(S ∨ T)."""
    if S.variant == INFTY or T.variant == INFTY:
        raise InfinityOperand("sup_pair needs affine points")
    if S._key() == T._key():
        return S.diam_val()
    return min(S.diam_val(), T.diam_val(), _center_dist(S, T))


def hyperbolic_distance(S: BerkPoint, T: BerkPoint) -> Fraction:
    """d_H in valuation units (exact rational); TYPE_II points only."""
    if S.variant != TYPE_II or T.variant != TYPE_II:
        raise TypeIOperand("d_H is finite only between type-II points here")
    w = sup_pair(S, T)
    return (S.logr - w) + (T.logr - w)


def _base(backend: Backend) -> float:
    return float(backend.p) if backend.kind in ("padic", "equicharp") else math.e


def sphere_distance(S: BerkPoint, T: BerkPoint) -> float:
    """The spherical metric d_P, evaluated as a float."""
    if S == T:
        return 0.0
    b = _base(S.backend)

    def maxnorm(point):
        # max{1, |S|} = b^(-min(0, logabs))
        return b ** float(-min(0, point.logabs()))

    def diam(point):
        d = point.diam_val()
        return 0.0 if d == INF else b ** float(-d)

    if S.variant == INFTY and T.variant == INFTY:
        return 0.0
    if S.variant == INFTY:
        S, T = T, S
    if T.variant == INFTY:
        return 2.0 / maxnorm(S) - diam(S) / maxnorm(S) ** 2
    w = sup_pair(S, T)
    supn = b ** float(-w)
    return (
        2.0 * supn / (maxnorm(S) * maxnorm(T))
        - diam(S) / maxnorm(S) ** 2
        - diam(T) / maxnorm(T) ** 2
    )


def median(S: BerkPoint, T: BerkPoint, U: BerkPoint) -> BerkPoint:
    """The unique point on all three pairwise segments."""
    j1 = join(S, T)
    j2 = join(S, U)
    j3 = join(T, U)
    # two of the joins coincide and dominate the third; the median is minimal
    for cand in (j1, j2, j3):
        if order_leq(cand, j1) and order_leq(cand, j2) and order_leq(cand, j3):
            return cand
    # comparable fallbacks (e.g. one input between the others)
    best = j1
    for cand in (j2, j3):
        if order_leq(cand, best):
            best = cand
    return best


def gromov_product(S: BerkPoint, T: BerkPoint, S0: BerkPoint):
    """⟨S,T⟩_{S0} = d_H(median(S,T,S0), S0); +inf iff S = T in P¹."""
    if S0.variant != TYPE_II:
        raise TypeIOperand("base point of a Gromov product must be type II")
    m = median(S, T, S0)
    if m.variant != TYPE_II:
        return INF
    return hyperbolic_distance(m, S0)


def segment_point(a: BerkPoint, b: BerkPoint, t: Fraction) -> BerkPoint:
    """Point on [a, b] at fraction t of d_H arc length (both ends type II)."""
    if a.variant != TYPE_II or b.variant != TYPE_II:
        raise TypeIOperand("segment parameterization needs type-II endpoints")
    t = Fraction(t)
    total = hyperbolic_distance(a, b)
    target = total * t
    w = sup_pair(a, b)
    up_from_a = a.logr - w  # distance from a up to the join
    if target <= up_from_a:
        return BerkPoint.type_ii(a.value, a.logr - target)
    return BerkPoint.type_ii(b.value, b.logr - (total - target))
