"""Polynomials over a valued-field backend: exact coefficient lists
(ascending), Taylor recentering, Newton polygons, and the piecewise-linear
Gauss-norm calculus used by ball images and preimages."""

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
    return not c.terms and c.prec is None


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
        v = c.valuation_lower_bound()
        if c.is_zero_to_precision():
            if c.is_exact:
                continue
            raise PrecisionExhausted(
                f"coefficient {i} is zero to precision {c.prec}; polygon ambiguous"
            )
        pts.append((i, c.valuation()))
    if len(pts) < 2:
        return []
    hull = [pts[0]]
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
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        segments.append((slope, x2 - x1, x1, x2))
    return segments


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


def _min_line_breaks(coeffs, lo, hi):
    """Breakpoints of t -> min_i(val c_i + i t) on [lo, hi]."""
    lines = []
    for i, c in enumerate(coeffs):
        if c.is_zero_to_precision():
            continue
        lines.append((c.valuation(), i))
    breaks = {Fraction(lo), Fraction(hi)}
    for a1, m1 in lines:
        for a2, m2 in lines:
            if m1 < m2:
                t = Fraction(a1 - a2, m2 - m1)
                if lo < t < hi:
                    breaks.add(t)
    return sorted(breaks)


def solve_seminorm_ratio(num, den, target, lo, hi):
    """All t in [lo, hi] with gauss_valuation(num,t) - gauss_valuation(den,t)
    == target.  Piecewise-linear exact solve; interval solutions contribute
    their endpoints."""
    num, den = trim(num), trim(den)
    if not num or not den:
        return []
    breaks = sorted(set(_min_line_breaks(num, lo, hi)) | set(_min_line_breaks(den, lo, hi)))
    sols = []

    def psi(t):
        return gauss_valuation(num, t) - gauss_valuation(den, t)

    for t0, t1 in zip(breaks, breaks[1:]):
        y0, y1 = psi(t0), psi(t1)
        if y0 == y1:
            if y0 == target:
                sols.extend([t0, t1])
            continue
        # linear on [t0, t1]
        if min(y0, y1) <= target <= max(y0, y1):
            t = t0 + (t1 - t0) * Fraction(target - y0, y1 - y0)
            sols.append(t)
    if len(breaks) == 1:
        t0 = breaks[0]
        if psi(t0) == target:
            sols.append(t0)
    out = []
    for t in sorted(sols):
        if not out or out[-1] != t:
            out.append(t)
    return out
