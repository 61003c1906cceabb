"""Root finding for polynomials over the valued-field backends.

The workhorse is Newton-polygon digit descent.  Its step, `digit_children`, is
shared with ratmap's type-II fiber descent: each polygon segment of
G = F(z + h) gives the valuation of a batch of roots, and the lifted roots of
its residue polynomial give their next digits.  The two descents differ only
in order (depth-first here, breadth-first for fibers), budget, and what they
do with an unliftable branch: raise ExtensionBound here unless partial, skip
it for fibers.  A root that separates is refined by Newton/Hensel steps.  A
descent that finds deg F simple roots proves F squarefree.  Over PADIC and
laurentq a degree bound on exponent denominators prunes branches that hold no
root in the tower, so a descent that cannot split F raises ExtensionBound,
which is final.  Otherwise multiplicities come from the gcd recursion
F -> gcd(F, F'), which is characteristic-safe."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ExtensionBound, PrecisionExhausted
from .fields import (
    Backend,
    EQUICHARP,
    FieldElement,
    INF,
    PADIC,
    UnsplitRoots,
    residue_roots,
)
from . import polys
from . import residue as rs

_MAX_DESCENT_STEPS = 500


def lift_residue(bk: Backend, theta: rs.ResidueElement) -> FieldElement:
    """Canonical lift of a residue element to a valuation-0 (or 0) element.
    The UnsplitRoots mark of residue_roots stands for digits it cannot lift."""
    if not isinstance(theta, UnsplitRoots):
        if theta.is_zero():
            return bk.zero()
        if theta.field.is_rational:
            return bk.from_rational(theta.value)
        if bk.kind != PADIC:
            return bk.from_term(Fraction(0), theta)
        if theta.field.k == 1:
            return bk.from_int(theta.value[0])
    raise ExtensionBound(
        "residue digit lies in a proper extension of the residue field; "
        "not liftable in this backend"
    )


def pth_root_element(x: FieldElement) -> FieldElement:
    """The p-th root in an equicharacteristic-p series field (Frobenius is
    bijective there: take p-th roots of coefficients and divide exponents)."""
    bk = x.backend
    if bk.kind != EQUICHARP:
        raise ValueError("p-th roots of elements only in characteristic p")
    terms = {(i, e * bk.p): c.pth_root() for (i, e), c in x.terms.items()}
    prec = None if x.prec is None else Fraction(x.prec, bk.p)
    return FieldElement(bk, terms, prec)


def common_residue_field(elts):
    """The smallest residue field holding every element of elts."""
    fields = [e.field for e in elts if not e.field.is_rational]
    if not fields:
        return elts[0].field
    k = 1
    for f in fields:
        k = lcm(k, f.k)
    return rs.ResidueField(fields[0].p, k)


def ball_residue_poly(C, v, level):
    """Residue polynomial of C along the ball of log-radius v (centered where
    C was recentered): coefficient i reduces C_i * pi^(i*v - level), where
    level is the seminorm S_v(C) that the caller has computed."""
    C = list(C)
    if level == INF:
        return []
    res = []
    for i, c in enumerate(C):
        if c.is_zero_to_precision():
            if not c.is_exact and c.prec + i * v <= level:
                raise PrecisionExhausted("ball residue coefficient unknown")
            res.append(None)
            continue
        if c.valuation() + i * v > level:
            res.append(None)
        else:
            res.append(c.leading_residue())
    field = common_residue_field([r for r in res if r is not None])
    out = []
    for r in res:
        if r is None:
            out.append(field.zero())
        elif r.field == field or r.field.is_rational:
            out.append(r)
        else:
            out.append(rs.embed_element(r, field))
    return rs.rpoly_trim(out)


def _leading_key(c: FieldElement):
    """The key of the leading term of c.  Keys are reduced and PADIC keeps
    0 <= i < e, so terms of one element have distinct valuations and val c
    names the leading key: (i, e) with i/e = val c for the series backends,
    and the fractional part of val c for PADIC, whose coefficient then
    carries p^floor(val c)."""
    v = c.valuation()
    if c.backend.kind == PADIC:
        v = v % 1
    return v.numerator, v.denominator


def leading_term(c: FieldElement) -> FieldElement:
    """The term of least valuation of c, as an exact element."""
    key = _leading_key(c)
    return FieldElement(c.backend, {key: c.terms[key]}, None)


def segment_residue_poly(G, seg):
    """Residue polynomial of a Newton-polygon segment of G.

    Returns (coeffs over a common residue field, root valuation v).  Roots u
    of the residue polynomial are the leading digits of roots h = u*pi^v + ...
    of G, with matching multiplicities.  The segment is G[i0..i1] seen on the
    ball of log-radius v = -slope, whose level is the segment's line: the
    valuation of its first coefficient."""
    slope, _, i0, i1 = seg
    return ball_residue_poly(G[i0 : i1 + 1], -slope, G[i0].valuation()), -slope


def digit_children(G, segs, depth, bk: Backend):
    """One digit step of the root and fiber descents.  For each segment of
    `segs`, the Newton polygon of G = F(z + h), of root valuation v > depth,
    and each root theta of its residue polynomial, yields (seg, digit, v, mu)
    with digit = lift(theta) * pi^v and mu the multiplicity of theta.  A
    segment or digit that cannot be lifted yields the caught ExtensionBound
    instead.  Only residue levels that lift_residue can lift are split: over
    PADIC that is F_p, and a further level holding roots is an UnsplitRoots."""
    split_k = bk.k if bk.kind == PADIC else bk.k_max
    for seg in segs:
        if -seg[0] <= depth:
            continue
        try:
            res_poly, v = segment_residue_poly(G, seg)
            branches = residue_roots(res_poly, k_max=bk.k_max, split_k=split_k)
        except ExtensionBound as e:
            yield e
            continue
        for theta, mu in branches:
            try:
                digit = lift_residue(bk, theta) * bk.uniformizer_pow(v)
            except ExtensionBound as e:
                yield e
                continue
            yield seg, digit, v, mu


def _taylor_head(F, z):
    """Constant and linear coefficients of F(z + h)."""
    rem, quot = polys._synth_div(F, z)
    c1, _ = polys._synth_div(quot, z)
    return rem, c1


def squarefree_roots(F, prec, partial=False):
    """All roots of a squarefree polynomial (nonzero constant term), each to
    additive precision `prec` (exact roots are returned exact).

    With partial=True, branches whose digits need an unrepresentable residue
    extension, or that the tower bound below prunes, are skipped instead of
    raising ExtensionBound.  An exact F with a repeated root yields it once,
    so fewer than deg F roots, or raises.

    Tower bound.  Over PADIC and laurentq, with every coefficient of F
    exact, let e0 be the lcm of the key denominators of F's coefficients and
    n = deg F.  A digit child whose centre needs exponent denominator E with
    E / gcd(E, e0) > n holds no root of F in the tower, so it is treated as
    an unliftable digit.  Proof, writing L_D = Q_p(p^(1/D)) (for laurentq
    read Q((t^(1/D))) and t for p), K0 = L_e0:
    - A tower root a lies in some L_D, and M = K0(a) has degree
      m = e0 * j over the base, with j = [M : K0] <= n.
    - L_D / M is totally ramified of degree r = D / m, so the norm
      N = N_{L_D/M}(p^(1/D)) has N^D = p^r: (N / p^(1/m))^m = N^m / p is an
      r-th root of unity, and N = p^(1/m) * zeta with zeta in mu(L_D).
    - mu(L_D) = mu(Q_p).  L_D has residue field F_p (Q for laurentq, whose
      series have no roots of unity beyond +-1), and roots of unity of order
      prime to p reduce injectively into it, so only p-power roots of unity
      could be new, and those contain zeta_p (i when p = 2):
      - p odd: Q_p(zeta_p) = Q_p((-p)^(1/(p-1))) has ramification index
        p - 1, so p - 1 divides D, and (-p)^(1/(p-1)) / p^(1/(p-1)) would
        be a root of unity in L_D of order prime to p whose (p-1)-th power
        is -1, not 1;
      - p = 2: i lies in L_q, q = 2^a the 2-part of D, because L_D has odd
        degree over it.  The different of L_q / Q_2 has exponent
        q - 1 + v_L(q) = q - 1 + aq, and that of Q_2(i) / Q_2 has exponent
        q in L_q, so L_q / Q_2(i), of degree q/2, would have different
        exponent aq - 1, above its bound q/2 - 1 + v_L(q/2) = aq - q/2 - 1.
    - So zeta, and then p^(1/m), lies in M, and M = L_m by degrees.  The
      descent toward a starts at 0 in L_m, and each digit is a rational
      times p^v with v = v(a - z) in (1/m)Z, so every centre on the way lies
      in L_m: its E divides m = e0 * j, and E / gcd(E, e0) <= j <= n.
    laurentfp stays outside the bound: its digits may lie in F_(p^k), k > 1,
    so L_D / M need not be totally ramified, and Artin-Schreier roots such
    as those of z^p - z - 1/t need unbounded denominators.
    """
    F = polys.trim(F)
    bk = F[0].backend
    d = polys.degree(F)
    if d < 1:
        return []
    prec = Fraction(prec)
    if d == 1 and F[0].is_exact and F[1].is_exact:
        # one exact division; Newton steps on truncated iterates would only
        # reach it when its expansion ends below prec
        return [-F[0] / F[1]]
    roots = []
    # e0 of the tower bound (docstring); None where the bound does not hold
    e0 = None
    if bk.kind != EQUICHARP and all(c.is_exact for c in F):
        e0 = lcm(*(e for c in F for _, e in c.terms))
    # work items: (approximation z, digit depth reached, residue multiplicity)
    stack = [(bk.zero(), -INF, d)]
    steps = 0
    while stack:
        z, depth, mult = stack.pop()
        steps += 1
        if steps > _MAX_DESCENT_STEPS:
            raise PrecisionExhausted("root descent exceeded its step budget")
        try:
            _descend_node(F, z, depth, mult, prec, partial, bk, roots, stack, e0)
        except PrecisionExhausted:
            # phantom branches (roots outside the representable field) can
            # run out of digits; in partial mode they are simply dropped
            if not partial:
                raise
    return roots


def _descend_node(F, z, depth, mult, prec, partial, bk, roots, stack, e0):
    """Process one node of the digit-descent tree: record an exact or
    precise-enough root, or push one more digit of every branch."""
    # the first two coefficients of G = F(z + h) decide; c1 is formed only
    # where it is read, and G is recentred in full only for _isolates_root
    # and for the next digit
    c0, quot = polys._synth_div(F, z)
    G = None
    if c0.is_zero_to_precision() and not c0.is_exact:
        G = polys.recenter(F, z)
    if c0.is_zero_to_precision() and (c0.is_exact or _isolates_root(G)):
        # z is a root: exact, or to the precision that isolates it
        if c0.is_exact:
            roots.append(z)
        else:
            roots.append(_finalize(F, z, min(prec, c0.prec - G[1].valuation())))
            G = [bk.zero()] + G[1:]  # the other roots: as if z were exact
        if mult == 1:
            return
        # the cluster holds further roots beyond this one; descend
        mult -= 1
    else:
        if depth >= prec:
            if mult == 1:
                roots.append(_finalize(F, z, prec))
                return
            raise PrecisionExhausted(
                "distinct roots closer together than the requested precision"
            )
        if mult == 1:
            c1 = polys._synth_div(quot, z)[0]
            if not c1.is_zero_to_precision() and c0.valuation() > 2 * c1.valuation_lower_bound():
                roots.append(_newton_refine(F, z, prec, c0, c1))
                return
    # one more digit: polygon of F(z + h), segments deeper than `depth`
    if G is None:
        G = polys.recenter(F, z)
    progressed = skipped = False
    for child in digit_children(G, polys.newton_polygon(G), depth, bk):
        if not isinstance(child, ExtensionBound):
            _, digit, v, mu = child
            E = lcm(v.denominator, *(e for _, e in z.terms))
            if e0 is None or E // gcd(E, e0) <= len(F) - 1:
                stack.append((z + digit, v, mu))
                progressed = True
                continue
            child = ExtensionBound(
                f"no root in the tower: a digit needs exponent denominator "
                f"E={E} > n*gcd(E, e0) with e0={e0}, n={len(F) - 1}"
            )
        if not partial:
            raise child
        skipped = True
    if not progressed and not skipped:
        raise PrecisionExhausted("no further digits found for a root")


def _isolates_root(G) -> bool:
    """With G[0] zero only to its precision, does G hold exactly one root of
    valuation >= G[0].prec - val G[1]?  It does when (1, val G[1]) is a
    vertex of the Newton polygon for every G[0] of valuation >= G[0].prec,
    bounding the other coefficients' valuations from below."""
    c1 = G[1]
    if c1.is_zero_to_precision():
        return False
    v1 = c1.valuation()
    w = G[0].prec - v1
    return all(
        w > (v1 - c.valuation_lower_bound()) / (j - 1) for j, c in enumerate(G[2:], 2)
    )


def _mark_approx(z: FieldElement, prec: Fraction) -> FieldElement:
    return z.truncate_below(prec)._with_prec(prec)


def _ratrec(w: int, M: int):
    """Rational reconstruction: a/b with small |a|, b and a = w*b mod M."""
    from math import gcd, isqrt

    bound = isqrt(M // 2)
    r0, r1 = M, w % M
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        return None
    if t1 < 0:
        return -r1, -t1
    return r1, t1


def _promote_exact(F, approx: FieldElement):
    """Try to recognize a digit-truncated root as an exact element (small
    rationals in each tower slot), verifying by exact evaluation."""
    import math as _math

    bk = approx.backend
    if approx.prec is None:
        return approx
    cand_terms = {}
    if bk.kind == PADIC:
        from .fields import _vp

        for (i, e), r in approx.terms.items():
            off = Fraction(i, e)
            a = _vp(r, bk.p)
            m = _math.floor(approx.prec - off - a)
            if m <= 1:
                cand_terms[(i, e)] = r
                continue
            unit = r / Fraction(bk.p) ** a
            w = (unit.numerator * pow(unit.denominator, -1, bk.p ** m)) % (bk.p ** m)
            rec = _ratrec(w, bk.p ** m)
            if rec is None:
                cand_terms[(i, e)] = r
            else:
                cand_terms[(i, e)] = Fraction(rec[0], rec[1]) * Fraction(bk.p) ** a
    else:
        cand_terms = dict(approx.terms)
    cand = FieldElement(bk, cand_terms, None)
    val = polys.evaluate(F, cand)
    if val.is_zero_to_precision() and val.is_exact:
        return cand
    return None


def _finalize(F, z: FieldElement, prec: Fraction) -> FieldElement:
    marked = _mark_approx(z, prec)
    exact = _promote_exact(F, marked)
    return exact if exact is not None else marked


def _newton_refine(F, z, prec, c0, c1):
    """Quadratic refinement once the simple-root (Hensel) condition holds;
    c0 and c1 are the constant and linear coefficients of F(z + h).

    Each iterate known to `prec` is truncated below it and kept exact: the
    answer depends only on z mod pi^prec, and untruncated exact steps double
    the size of z's rationals.  So over the series fields the step c0/c1 is
    computed only to absolute precision prec.  An exact iterate that is the
    root is returned exact."""
    for _ in range(200):
        if c0.is_zero_to_precision() and c0.is_exact:
            return z
        v1 = c1.valuation()
        if c0.is_zero_to_precision():
            # F is inexact: the root is z to c0's precision over c1
            return _finalize(F, z, min(prec, c0.prec - v1))
        w = c0.valuation() - v1
        if w >= prec:
            return _finalize(F, z, prec)
        if z.backend.kind == PADIC:
            # c1 is inverted exactly, as an element of a number field (or
            # by the Newton path of inverse, for large e, to its budget)
            z = z - c0 / c1
        else:
            # a series inverse stops at its budget: c0/c1 is needed to
            # absolute precision prec, so c1 to relative precision prec - w
            z = z - _known_to(c0, prec + v1) / _known_to(c1, prec - w + v1)
        if z.is_exact or z.prec >= prec:
            z = z.truncate_below(prec)
        c0, c1 = _taylor_head(F, z)
    raise PrecisionExhausted("Newton refinement did not reach target precision")


def _known_to(c: FieldElement, prec) -> FieldElement:
    """c as known only below prec, or below its own precision if lower."""
    return c._with_prec(prec if c.prec is None else min(c.prec, prec))


def roots_with_mult(F, prec=None, partial=False):
    """All roots of F in the backend's field with multiplicities.

    Returns [(root, mult)] with sum of mults == deg F whenever the polynomial
    splits over the representable field; raises ExtensionBound otherwise.
    With partial=True the representable roots are returned and the rest are
    silently dropped.  Roots are exact when possible, else correct to additive
    precision `prec` (default: the backend's working precision).  A root of
    an F with inexact coefficients carries its own precision, which may be
    lower than `prec`: the data fixes it only so far."""
    found = _roots_impl(F, prec, partial)
    if not partial:
        total = sum(m for _, m in found)
        if total != polys.degree(polys.trim(F)):
            raise ExtensionBound(
                "polynomial does not split over the representable field: "
                f"found {total} of {polys.degree(polys.trim(F))} roots"
            )
    return found


def _roots_impl(F, prec, partial):
    F = polys.trim(F)
    if not F:
        raise ValueError("zero polynomial")
    bk = F[0].backend
    if prec is None:
        prec = bk.precision
    out = []
    # strip roots at the origin
    ord0 = 0
    while ord0 < len(F) and F[ord0].is_zero_to_precision() and F[ord0].is_exact:
        ord0 += 1
    if ord0:
        out.append((bk.zero(), ord0))
        F = F[ord0:]
    if polys.degree(F) < 1:
        return out
    dF = polys.derivative(F)
    if bk.kind == EQUICHARP and polys.trim(dF) == []:
        # F(z) = H(z^p): take p-th roots of the roots of H
        H = [F[i] for i in range(0, len(F), bk.p)]
        for r, m in _roots_impl(H, Fraction(prec) * bk.p, partial):
            if r.is_zero_to_precision():
                continue  # origin already stripped
            out.append((pth_root_element(r), m * bk.p))
        return out
    # deg F simple roots prove F squarefree; only a descent that finds fewer
    # (or raises) is settled by gcd(F, F')
    failure, simple = None, []
    try:
        simple = squarefree_roots(F, prec, partial)
    except ExtensionBound as e:
        if not partial:
            raise  # a root outside the representable field: F does not split
        failure = e
    except PrecisionExhausted as e:
        failure = e
    if len(simple) == polys.degree(F):
        return _merge(out + [(r, 1) for r in simple])
    g = polys.gcd_poly(F, dF)
    if polys.degree(g) < 1:
        if failure is not None:
            raise failure
        return _merge(out + [(r, 1) for r in simple])
    S, rem = polys.divmod_poly(F, g)
    if not all(c.is_zero_to_precision() for c in rem):
        # gcd_poly stops at a remainder that is zero only to the precision
        # budget, so g can be spurious; the descent's outcome stands
        if failure is not None:
            raise failure
        raise PrecisionExhausted(
            "gcd(F, F') lost precision: it does not divide F, and F "
            f"has {len(simple)} simple roots, not {polys.degree(F)}"
        )
    simple = [(r, 1) for r in squarefree_roots(S, prec, partial)]
    repeated = _roots_impl(g, prec, partial)
    # the origin is handled above
    return _merge(
        out + simple + [(r, m) for r, m in repeated if not r.is_zero_to_precision()]
    )


def _merge(pairs):
    merged = []
    for r, m in pairs:
        for i, (s, ms) in enumerate(merged):
            if (r - s).is_zero_to_precision():
                merged[i] = (s, ms + m)
                break
        else:
            merged.append((r, m))
    return merged
