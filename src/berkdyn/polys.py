"""Polynomials over a valued-field backend: exact coefficient lists
(ascending), Taylor recentering, Newton polygons, and the piecewise-linear
Gauss-norm calculus used by ball images and preimages.  One lower-hull
routine gives both the Newton polygons and the breakpoints of the seminorm
equation of the fiber search, whose solutions inside a linear piece carry
the piece's slope."""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionExhausted
from .fields import Backend, FieldElement, INF


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero_to_precision() and coeffs[-1].is_exact:
        coeffs.pop()
    return coeffs


def degree(coeffs):
    coeffs = trim(coeffs)
    return len(coeffs) - 1 if coeffs else -1


def constant(bk: Backend, value) -> list:
    return [bk.from_rational(value)]


def from_rationals(bk: Backend, values) -> list:
    return trim([bk.from_rational(v) for v in values])


def add(a, b):
    if not a:
        return list(b)
    if not b:
        return list(a)
    bk = _backend(a, b)
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else bk.zero()
        y = b[i] if i < len(b) else bk.zero()
        out.append(x + y)
    return out


def neg(a):
    return [-c for c in a]


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    bk = _backend(a, b)
    out = [bk.zero()] * (len(a) + len(b) - 1)
    # a product with an exact zero factor is an exact zero and adds nothing
    b_terms = [(j, y) for j, y in enumerate(b) if not is_exact_zero(y)]
    for i, x in enumerate(a):
        if is_exact_zero(x):
            continue
        for j, y in b_terms:
            out[i + j] = out[i + j] + x * y
    return out


def is_exact_zero(c):
    """Zero with no precision bound: not merely zero to working precision."""
    return c.prec is None and c.is_zero_to_precision()


def scale(a, c: FieldElement):
    return [x * c for x in a]


def evaluate(a, z: FieldElement):
    if not a:
        return z.backend.zero()
    acc = z.backend.zero()
    for c in reversed(a):
        acc = acc * z + c
    return acc


def derivative(a):
    out = []
    for i, c in enumerate(a):
        if i == 0:
            continue
        out.append(c * c.backend.from_int(i))
    return out


def compose(a, b):
    """a(b(z)) by Horner."""
    bk = _backend(a, b if b else a)
    if not a:
        return []
    acc = [a[-1]]
    for c in reversed(a[:-1]):
        acc = add(mul(acc, b), [c])
    return acc


def recenter(a, center: FieldElement):
    """Coefficients of P(center + h) via repeated synthetic division."""
    if is_exact_zero(center):
        return list(a)  # the division by h leaves every coefficient as it is
    work = list(a)
    out = []
    for _ in range(len(a)):
        rem, work = _synth_div(work, center)
        out.append(rem)
        if not work:
            break
    return out + [center.backend.zero()] * (len(a) - len(out))


def _synth_div(coeffs, a):
    """Divide by (z - a): returns (remainder, quotient ascending)."""
    if not coeffs:
        return a.backend.zero(), []
    acc = a.backend.zero()
    out = []
    for c in reversed(coeffs):
        acc = acc * a + c
        out.append(acc)
    rem = out[-1]
    quot = out[:-1]
    quot.reverse()
    return rem, quot


def divmod_poly(a, b):
    """Polynomial division (exact field arithmetic)."""
    bk = _backend(a, b)
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    inv_lead = b[-1].inverse()
    q = [bk.zero()] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and r:
        c = r[-1] * inv_lead
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[i + d] = r[i + d] - c * y
        r = trim(r)
        # inexact leading junk can survive subtraction; drop terms that are
        # zero to their working precision
        while r and r[-1].is_zero_to_precision():
            r.pop()
            r = trim(r)
    return q, r


def gcd_poly(a, b):
    """Monic gcd by Euclid; intended for exact coefficients."""
    a, b = trim(a), trim(b)
    while b:
        _, r = divmod_poly(a, b)
        if r and all(c.is_zero_to_precision() for c in r):
            r = []
        a, b = b, r
    if a:
        a = scale(a, a[-1].inverse())
    return a


def _backend(a, b):
    for c in list(a) + list(b):
        return c.backend
    raise ValueError("no coefficients to infer backend from")


# ---------------------------------------------------------------------------
# Newton polygon


def newton_polygon(coeffs):
    """Lower convex hull of (i, valuation(c_i)) over nonzero coefficients.

    Returns a list of segments (slope: Fraction, width: int, i_start, i_end),
    ordered by increasing slope.  Root valuations are the negated slopes,
    with multiplicity = width.
    """
    pts = []
    for i, c in enumerate(coeffs):
        if c.is_zero_to_precision():
            if c.is_exact:
                continue
            raise PrecisionExhausted(
                f"coefficient {i} is zero to precision {c.prec}; polygon ambiguous"
            )
        pts.append((i, c.valuation()))
    hull = _lower_hull(pts)
    return [
        (Fraction(y2 - y1, x2 - x1), x2 - x1, x1, x2)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]


def _lower_hull(pts):
    """Vertices of the lower convex hull of the points (i, val), listed by
    increasing i."""
    hull = pts[:1]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = pt
            # keep hull lower-convex: drop middle point if above the chord
            if (y2 - y1) * (x3 - x2) >= (y3 - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def gauss_valuation(coeffs, t):
    """min_i (valuation(c_i) + i*t) — the seminorm valuation of the
    polynomial on the ball of log-radius t centered at 0.  A coefficient
    known only to be zero to precision prec counts when prec + i*t lies below
    the minimum over the known ones."""
    best = unknown = INF
    for i, c in enumerate(coeffs):
        if c.is_zero_to_precision():
            if not c.is_exact:
                unknown = min(unknown, c.prec + i * t)
            continue
        val = c.valuation() + i * t
        if val < best:
            best = val
    if unknown < best:
        raise PrecisionExhausted("seminorm dominated by an unknown coefficient")
    return best


def solve_seminorm_ratio(num, den, target, lo, hi):
    """All t in [lo, hi] with psi(t) = gauss_valuation(num, t) -
    gauss_valuation(den, t) == target, as pairs (t, slope).  Each seminorm
    is the minimum of v + i*t over the vertices (i, v) of the lower hull of
    its known coefficients, so psi is linear between its breakpoints: lo, hi
    and the hull edges' negated slopes in (lo, hi).  Inside a piece each
    seminorm is attained by one coefficient, and slope is psi'(t); at a
    breakpoint it is None.  Interval solutions contribute their endpoints.
    An unknown coefficient is checked at every breakpoint, as
    gauss_valuation checks it: on a piece the known minimum is linear and
    the unknown one concave, so one that dominates anywhere in [lo, hi]
    dominates at a breakpoint."""
    num, den = trim(num), trim(den)
    if not num or not den:
        return []
    breaks = {Fraction(lo), Fraction(hi)}
    sides = []
    for coeffs in (num, den):
        known = [(i, c.valuation()) for i, c in enumerate(coeffs) if not c.is_zero_to_precision()]
        hull = _lower_hull(known)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            t = Fraction(y1 - y2, x2 - x1)
            if lo < t < hi:
                breaks.add(t)
        unknown = [
            (i, c.prec) for i, c in enumerate(coeffs) if c.is_zero_to_precision() and not c.is_exact
        ]
        sides.append((hull, unknown))

    def seminorm(hull, unknown, t):
        best = min((v + i * t for i, v in hull), default=INF)
        if unknown and min(prec + i * t for i, prec in unknown) < best:
            raise PrecisionExhausted("seminorm dominated by an unknown coefficient")
        return best

    breaks = sorted(breaks)
    values = [seminorm(*sides[0], t) - seminorm(*sides[1], t) for t in breaks]
    sols = []
    for t0, t1, y0, y1 in zip(breaks, breaks[1:], values, values[1:]):
        if y0 == y1:
            if y0 == target:
                sols.extend([(t0, None), (t1, None)])
        elif min(y0, y1) <= target <= max(y0, y1):
            # linear on [t0, t1]
            slope = Fraction(y1 - y0) / (t1 - t0)  # an integer: i - j
            t = t0 + (target - y0) / slope
            # (lo > hi leaves one interval [hi, lo] that is not a piece)
            sols.append((t, int(slope) if t0 < t < t1 and lo <= hi else None))
    if len(breaks) == 1 and values[0] == target:
        sols.append((breaks[0], None))
    out = []
    for t, slope in sorted(sols, key=lambda sol: sol[0]):
        if not out or out[-1][0] != t:
            out.append((t, slope))
    return out
