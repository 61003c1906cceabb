"""Rational maps acting on the Berkovich projective line.

A map is a coprime pair of polynomials (numerator, denominator) over one of
the valued-field backends.  The action on type-II points is computed exactly
by one rule, which holds whether or not the ball contains a pole: the
seminorm of R - w on the ball B(a, v) is phi(w) = S_v(P - w*Q) - S_v(Q), and
R maps the ball onto zeta(b, u) exactly when u is the maximum of phi and b
attains it.  The image center is found digit by digit from w = R(a), or 0
when a is a pole (R(a) attains the maximum when the ball holds no pole), and
the residue pair of (P - b*Q, Q) along the ball, reduced, gives the local
degree.

Fibers of type-II points zeta(b, u) are found by a breadth-first digit
descent on R - b.  Each node z works on one recentred pair (A_z, Q_z), with
A_z = P_z - b*Q_z (P_z itself when b is exactly 0), and follows the roots of
G = A_z*Q_z, which is (num - b*den)*den recentred at z.  It runs on
`roots.Descent`, the driver of the root descent too, which owns the digit
step and the skipped branches.  The candidate radii at z are the t
with psi(t) = S_t(A_z) - S_t(Q_z) = u, solved on the lower hulls of the two
coefficient-valuation sets.  With exact coefficients a radius strictly
inside a linear piece of psi is a fiber point of multiplicity |psi'(t)|, with
no image test: there each seminorm is attained by one coefficient, so R - b
reduces to c*X^s, s = psi'(t) != 0, and b attains phi = u.  Breakpoint radii
and inexact data take the image test.  A node D(z, r) of the descent is
skipped, with its whole subtree, when its image under R - b provably misses
zeta(0, u): a closed disc without a pole maps onto a closed disc D(c, u'), so
it misses when u' > u or val c < u'; a disc with a pole but no root of A_z is
tested the same way through 1/(R - b), against zeta(0, -u).  Sub-discs map
into the image of their disc, so no fiber point is lost, and the points
found, their order and their multiplicities are those of the full descent.

Over Q_p a fiber ball around roots outside the tower Q_p(p^(1/E)) would be
chased by a wild chain: single children from width-p segments whose residue
polynomial is a p-th power, E growing p-fold and the depths converging.  A
node whose coefficients certify such a chain (`_wild_chain_misses`) bounds
the depths by the cluster's tower distance L, which no tower point attains;
its child is skipped unless the seminorm equation has a solution in [v, L),
so the fiber's missing mass raises ExtensionBound, or is dropped under
partial=True, instead of exhausting the precision budget.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    DivisionByZero,
    ExtensionBound,
    ParamDomain,
    PrecisionExhausted,
)
from .berkovich import BerkPoint
from .fields import Backend, EQUICHARP, FieldElement, INF, PADIC
from . import polys
from . import residue as rs
from .roots import (
    Descent,
    ball_residue_poly,
    common_residue_field,
    leading_term,
    lift_residue,
    roots_with_mult,
)

_MAX_CENTER_STEPS = 400


class RationalMap:
    """R = num/den with num, den coprime polynomials, deg R >= 1."""

    def __init__(self, num, den, simplify=True):
        num = polys.trim(list(num))
        den = polys.trim(list(den))
        if not den:
            raise DivisionByZero("denominator is the zero polynomial")
        if not num:
            den = [den[-1].backend.one()]  # the zero map, in lowest terms
        if simplify and num:
            g = polys.gcd_poly(num, den)
            if polys.degree(g) >= 1:
                num, _ = polys.divmod_poly(num, g)
                den, _ = polys.divmod_poly(den, g)
        # normalize: monic denominator (or monic numerator for polynomials)
        lead = den[-1]
        num = polys.scale(num, lead.inverse())
        den = polys.scale(den, lead.inverse())
        self.num = num
        self.den = den
        self.backend = den[-1].backend
        # one-entry slots: (center, (num, den) recentered there) and
        # (type-II point, its image)
        self._recenter_slot = None
        self._image_slot = None

    def _recentered(self, a: FieldElement):
        """(num, den) recentered at a.  A fiber search asks for one center
        several times in a row, so the last center and its pair are kept;
        the lists are shared between callers and must never be mutated."""
        slot = self._recenter_slot
        if slot is not None and slot[0] == a:
            return slot[1]
        pair = (polys.recenter(self.num, a), polys.recenter(self.den, a))
        self._recenter_slot = (a, pair)
        return pair

    @property
    def degree(self) -> int:
        return max(polys.degree(self.num), polys.degree(self.den))

    def __repr__(self):
        return f"RationalMap(num={self.num}, den={self.den})"

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_rationals(bk: Backend, num, den) -> "RationalMap":
        return RationalMap(polys.from_rationals(bk, num), polys.from_rationals(bk, den))

    @staticmethod
    def parse(text: str, bk: Backend, consts=None) -> "RationalMap":
        num, den = _parse_map_literal(text, bk, consts or {})
        return RationalMap(num, den)

    # -- basic transforms ----------------------------------------------

    def source_inverted(self) -> "RationalMap":
        """The map z -> R(1/z)."""
        d = self.degree
        bk = self.backend
        num = [bk.zero()] * (d - polys.degree(self.num)) + list(reversed(self.num))
        den = [bk.zero()] * (d - polys.degree(self.den)) + list(reversed(self.den))
        return RationalMap(num, den)

    def target_inverted(self) -> "RationalMap":
        """The map z -> 1/R(z)."""
        if not self.num:
            raise DivisionByZero("cannot invert the zero map")
        return RationalMap(self.den, self.num)

    def compose(self, other: "RationalMap") -> "RationalMap":
        """self after other: z -> self(other(z))."""
        bk = self.backend
        p, q = other.num, other.den
        d = max(polys.degree(self.num), polys.degree(self.den))
        # homogenize: num = sum a_i p^i q^(d-i), same for den
        powers_p = [[bk.one()]]
        powers_q = [[bk.one()]]
        for _ in range(d):
            powers_p.append(polys.mul(powers_p[-1], p))
            powers_q.append(polys.mul(powers_q[-1], q))

        def homog(coeffs):
            out = []
            for i, c in enumerate(coeffs):
                term = polys.scale(polys.mul(powers_p[i], powers_q[d - i]), c)
                out = polys.add(out, term)
            return out

        return RationalMap(homog(self.num), homog(self.den))

    def iterate(self, n: int) -> "RationalMap":
        if n < 1:
            raise ParamDomain("iterate needs n >= 1")
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out

    # -- evaluation -----------------------------------------------------

    def eval_type1(self, x: FieldElement) -> BerkPoint:
        pv = polys.evaluate(self.num, x) if self.num else self.backend.zero()
        qv = polys.evaluate(self.den, x)
        if qv.is_zero_to_precision():
            if not qv.is_exact:
                raise PrecisionExhausted("denominator vanishes to working precision")
            return BerkPoint.infinity(self.backend)
        return BerkPoint.type_i(pv / qv)

    # -- images of points ----------------------------------------------

    def image_point(self, S: BerkPoint) -> BerkPoint:
        """The image R(S) of any representable point."""
        if S.is_infinity:
            return self.source_inverted().eval_type1(self.backend.zero())
        if S.is_type_i:
            return self.eval_type1(S.value)
        return self._type2_image(S)[0]

    def _type2_image(self, S: BerkPoint):
        """(R(S), residue pair) of a type-II point.  The fiber search asks for
        the local degree of each ball whose image it has just matched, and
        the local degree reads that pair, so the last point is kept."""
        slot = self._image_slot
        if slot is None or slot[0] != S:
            slot = self._image_slot = (S, *self._reduction(S.value, S.logr))
        return slot[1:]

    def _reduction(self, a, v):
        """The image zeta(w, phi) of the ball B(a, v) and the residue pair
        (res(P - w*Q), res(Q)) along the ball, whose reduced quotient is the
        reduction of R there.  w maximizes phi(w) = S(P - w*Q) - S(Q), the
        seminorm of R - w on the ball, whose maximum is the image radius;
        while phi(w) is below it, R - w reduces to a constant d and the next
        digit of w is d.  In a ball without a pole the start w = R(a) is
        already optimal."""
        bk = self.backend
        P_a, Q_a = self._recentered(a)
        q0 = Q_a[0]
        p0 = P_a[0] if P_a else bk.zero()
        if q0.is_zero_to_precision() or polys.is_exact_zero(p0):
            # a pole at the center: start at 0; R(a) = 0: A = P_a already
            w, A = bk.zero(), P_a
        else:
            w = p0 / q0
            A = polys.sub(P_a, polys.scale(Q_a, w))
            A = [bk.zero()] + A[1:]  # constant term vanishes by design
        s_q = polys.gauss_valuation(Q_a, v)
        res_q = ball_residue_poly(Q_a, v, s_q)
        for _ in range(_MAX_CENTER_STEPS):
            s_a = polys.gauss_valuation(A, v)
            phi = s_a - s_q
            if phi == INF:
                raise PrecisionExhausted("image radius not determined (constant map?)")
            res_a, res_q = _align_res_pair(ball_residue_poly(A, v, s_a), res_q)
            d = _proportionality(res_a, res_q)
            if d is None:
                return BerkPoint.type_ii(w, phi), (res_a, res_q)
            step = lift_residue(bk, d) * bk.uniformizer_pow(phi)
            w = w + step
            A = polys.sub(A, polys.scale(Q_a, step))
        raise PrecisionExhausted("image center descent exceeded its budget")

    @staticmethod
    def _ball_contains_pole(Q_a, v) -> bool:
        """Does B(a, v) contain a root of the denominator?  (Q_a recentered)."""
        q0 = Q_a[0]
        if q0.is_zero_to_precision():
            if q0.is_exact:
                return True
            raise PrecisionExhausted("denominator at center known only approximately")
        tail = polys.gauss_valuation([Q_a[0].backend.zero()] + Q_a[1:], v)
        return tail <= q0.valuation()

    # -- degrees --------------------------------------------------------

    def topological_degree(self) -> int:
        """Number of preimages of a generic point (degree divided by the
        inseparability factor in characteristic p)."""
        num, den = self.num, self.den
        bk = self.backend
        if bk.kind != EQUICHARP:
            return self.degree
        p = bk.p
        while True:
            # R is a function of z^p iff both parts are (coprimality)
            if any(
                i % p and not c.is_zero_to_precision()
                for poly in (num, den)
                for i, c in enumerate(poly)
            ):
                return max(polys.degree(num), polys.degree(den))
            num = [num[i] for i in range(0, len(num), p)]
            den = [den[i] for i in range(0, len(den), p)]

    def local_degree(self, S: BerkPoint) -> int:
        """Multiplicity of R at the point S."""
        if S.is_infinity:
            inv = self.source_inverted()
            return inv.local_degree(BerkPoint.type_i(self.backend.zero()))
        if S.is_type_i:
            return self._local_degree_type1(S.value)
        return self._local_degree_type2(S)

    def _local_degree_type1(self, x: FieldElement) -> int:
        y = self.eval_type1(x)
        if y.is_infinity:
            return self.target_inverted()._local_degree_type1(x)
        N = polys.sub(self.num, polys.scale(self.den, y.value))
        shifted = polys.recenter(N, x)
        for i in range(1, len(shifted)):
            c = shifted[i]
            if not c.is_zero_to_precision():
                return i
            if not c.is_exact:
                raise PrecisionExhausted("local degree not determined")
        raise PrecisionExhausted("no nonvanishing derivative found")

    def _local_degree_type2(self, S: BerkPoint) -> int:
        res_n, res_q = self._type2_image(S)[1]
        field = res_n[0].field
        g = rs.rpoly_gcd(res_n, res_q, field)
        if rs.rpoly_degree(g) >= 1:
            res_n, _ = rs.rpoly_divmod(res_n, g, field)
            res_q, _ = rs.rpoly_divmod(res_q, g, field)
        return max(rs.rpoly_degree(res_n), rs.rpoly_degree(res_q))

    # -- preimages ------------------------------------------------------

    def preimages(self, T: BerkPoint, partial=False):
        """The fiber over T with local multiplicities: [(point, mult)], with
        sum of mults == degree unless partial=True and the fiber needs an
        unrepresentable extension."""
        try:
            if T.is_type_ii:
                pairs = self._preimages_type2(T, partial)
            else:
                pairs = self._preimages_type1(T, partial)
        finally:
            # the slots serve one search and are not kept past it: a map
            # holds no data from its searches, and a repeated search redoes
            # its own work
            self._recenter_slot = self._image_slot = None
        if not partial and sum(m for _, m in pairs) != self.degree:
            raise ExtensionBound(
                "fiber is not fully representable: found multiplicity "
                f"{sum(m for _, m in pairs)} of {self.degree}"
            )
        return pairs

    def _preimages_type1(self, T: BerkPoint, partial):
        bk = self.backend
        out = []
        if T.is_infinity:
            A = self.den
        else:
            A = polys.sub(self.num, polys.scale(self.den, T.value))
        degA = polys.degree(A)
        if degA < self.degree:
            # the fiber meets infinity with the degree drop as multiplicity
            out.append((BerkPoint.infinity(bk), self.degree - max(degA, 0)))
        if degA >= 1:
            for r, m in roots_with_mult(A, partial=partial):
                out.append((BerkPoint.type_i(r), m))
        return out

    def _preimages_type2(self, T: BerkPoint, partial):
        bk = self.backend
        b, u = T.value, T.logr
        found = {}  # fiber points in the order found
        # with exact coefficients every A_z, Q_z below is exact: type-II
        # centres and the queued centres are
        exact = all(c.is_exact for c in self.num + self.den)
        hi = Fraction(bk.precision)
        # breadth-first: fiber components on sibling branches are found (and
        # the total-multiplicity break taken) before any single branch chases
        # a type-I root through many digits
        descent = Descent(bk, self.degree)
        for z, depth, _ in descent.walk(_MAX_CENTER_STEPS, "fiber descent exceeded its budget"):
            P_z, Q_z = self._recentered(z)
            A_z = P_z if polys.is_exact_zero(b) else polys.sub(P_z, polys.scale(Q_z, b))
            if depth != -INF:
                try:
                    if self._disc_misses(A_z, Q_z, depth, u):
                        continue
                except PrecisionExhausted:
                    pass  # undecided: search the disc
            # (num - b*den)*den recentred at z, formed before the break as F
            # was: perfbench's equilibrium-chain, whose fibers end at their
            # first node, traces polys.mul as one of the layers it exercises
            G = polys.mul(polys.trim(A_z) or [bk.one()], Q_z)
            lo = depth if depth != -INF else -hi
            # R(B(z, t)) = zeta(b, u) makes the seminorm of R - b on the ball,
            # S_t(A_z) - S_t(Q_z), equal to u, poles or not
            for t, slope in polys.solve_seminorm_ratio(A_z, Q_z, u, lo, hi):
                cand = BerkPoint.type_ii(z, t)
                if cand in found:
                    continue
                if exact and slope:
                    # inside a piece A_z and Q_z reduce to monomials, so R - b
                    # reduces to c*X^slope: b attains phi = u, and the local
                    # degree is |slope|
                    found[cand] = abs(slope)
                elif self.image_point(cand) == T:
                    found[cand] = self.local_degree(cand)
            if sum(found.values()) >= self.degree:
                break
            if depth >= hi:
                continue

            def prune(segs, seg, digit, centre):
                if centre.prec is not None:
                    # the center needs more digits than the precision budget
                    # tracks; any deeper fiber point is out of reach
                    if partial:
                        return True
                    raise PrecisionExhausted("fiber center exhausted the precision budget")
                # a certified wild chain: its fiber points are unrepresentable
                return (
                    seg is segs[0]
                    and bk.kind == PADIC
                    and _wild_chain_misses(G, segs, digit, A_z, Q_z, u, bk.p)
                )

            descent.expand(z, depth, G, prune)
        return list(found.items())

    def _disc_misses(self, A_z, Q_z, depth, u) -> bool:
        """Is zeta(0, u) provably outside the image of the closed Berkovich
        disc D(z, depth) under R - b = A_z/Q_z, that is, the target zeta(b, u)
        outside its image under R?  N = q0*A_z - a0*Q_z is R - b - (R(z) - b)
        with denominators cleared; it equals q0*P_z - p0*Q_z, so the image
        radius does not depend on b.  A disc without a pole maps onto the
        closed disc D(a0/q0, u') with u' = S(N) - 2 val q0; a disc with a pole
        but no root of A_z is mapped by 1/(R - b) = Q_z/A_z onto
        D(q0/a0, S(N) - 2 val a0), which is tested against 1/zeta(0, u) =
        zeta(0, -u).  Raises PrecisionExhausted when the data cannot decide."""
        bk = self.backend
        a0 = A_z[0] if A_z else bk.zero()
        q0 = Q_z[0]
        N = polys.sub(polys.scale(A_z, q0), polys.scale(Q_z, a0))
        g = polys.gauss_valuation([bk.zero()] + N[1:], depth)
        if not self._ball_contains_pole(Q_z, depth):
            vq = q0.valuation()
            img = g - 2 * vq
            return img > u or a0.valuation() - vq < img
        if not A_z or self._ball_contains_pole(A_z, depth):
            return False  # a pole and a root of A_z: the image joins 0 to infinity
        va = a0.valuation()
        img = g - 2 * va
        return img > -u or q0.valuation() - va < img

    # -- reduction ------------------------------------------------------

    def reduced_pair(self):
        """Joint normalization and reduction of (num, den) at the Gauss point:
        scale both by a single power of the uniformizer so min valuation is 0,
        then reduce coefficients."""
        bk = self.backend
        vmin = min(
            polys.gauss_valuation(self.num, Fraction(0)) if self.num else INF,
            polys.gauss_valuation(self.den, Fraction(0)),
        )
        scale = bk.uniformizer_pow(-vmin)
        red_n = [(c * scale).reduce() for c in self.num]
        red_d = [(c * scale).reduce() for c in self.den]
        return rs.rpoly_trim(red_n), rs.rpoly_trim(red_d)

    def good_reduction_check(self) -> bool:
        """Good reduction at the canonical point: the reduced pair keeps the
        full degree and stays coprime."""
        red_n, red_d = _align_res_pair(*self.reduced_pair())
        if max(rs.rpoly_degree(red_n), rs.rpoly_degree(red_d)) != self.degree:
            return False
        if not red_n or not red_d:
            return False
        field = (red_n + red_d)[0].field
        g = rs.rpoly_gcd(red_n, red_d, field)
        return rs.rpoly_degree(g) < 1

    # -- exceptional points --------------------------------------------

    def exceptional_points(self):
        """Type-I points whose two-step backward orbit is just themselves.
        At most two for degree >= 2."""
        if self.degree < 2:
            raise ParamDomain("exceptional points need degree >= 2")
        R2 = self.compose(self)
        d2 = R2.degree
        bk = self.backend
        out = []
        # infinity: totally invariant under R^2 iff R^2 is a polynomial
        if polys.degree(R2.den) == 0 and polys.degree(R2.num) == d2:
            out.append(BerkPoint.infinity(bk))
        # affine x: fixed under R^2 with num2 - x*den2 == c*(z - x)^(d2)
        fix_poly = polys.sub(R2.num, polys.mul([bk.zero(), bk.one()], R2.den))
        if polys.degree(fix_poly) >= 1:
            for x, _m in roots_with_mult(fix_poly, partial=True):
                N = polys.sub(R2.num, polys.scale(R2.den, x))
                if polys.degree(N) != d2:
                    continue
                shifted = polys.recenter(N, x)
                if all(c.is_zero_to_precision() for c in shifted[:-1]):
                    pt = BerkPoint.type_i(x)
                    if pt not in out:
                        out.append(pt)
        return out


# ---------------------------------------------------------------------------
# residue helpers for ball-level computations


def _align_res_pair(a, b):
    """Embed two residue coefficient lists into a common field."""
    both = [e for e in list(a) + list(b) if not e.field.is_rational]
    if not both:
        return list(a), list(b)
    field = common_residue_field(both)
    out_a = [e if e.field == field else rs.embed_element(e, field) for e in a]
    out_b = [e if e.field == field else rs.embed_element(e, field) for e in b]
    return out_a, out_b


def _proportionality(res_a, res_q):
    """If res_a == d * res_q for a constant residue d, return d, else None;
    the two lists are over one field (`_align_res_pair`).  Each list is a
    residue polynomial at its own seminorm level, so each is nonzero: a
    ratio d is found, and it is nonzero."""
    n = max(len(res_a), len(res_q))
    field = (res_a + res_q)[0].field
    za = list(res_a) + [field.zero()] * (n - len(res_a))
    zq = list(res_q) + [field.zero()] * (n - len(res_q))
    d = None
    for x, y in zip(za, zq):
        if y.is_zero():
            if not x.is_zero():
                return None
            continue
        ratio = x / y
        if d is None:
            d = ratio
        elif d != ratio:
            return None
    return d


# ---------------------------------------------------------------------------
# wild chains of the type-II fiber descent


def _wild_chain_misses(G, segs, a, A_z, Q_z, u, p) -> bool:
    """Can the fiber descent over Q_p skip the child z + a pushed from the
    first segment of G = A_z*Q_z = F(z + h), because every fiber point below
    it needs a center outside the tower Q_p(p^(1/E))?  False unless proven.

    Hypotheses.  G is exact, its Newton polygon `segs` starts with [0, p] of
    slope -v, and a = lift(theta) * p^v is that segment's digit.  Write
    c_i = g_i / g_p, rho for the root valuation of the next segment (none:
    -inf), L = val c_1 / (p - 1) and delta = L - v.  The node is certified
    when
      (1) 0 < delta and (p - 1 + 1/p) * delta <= 1;
      (2) v - rho >= p * delta;
      (3) val c_i + i*v >= p*L for 1 < i < p;
      (4) val(c_0 + a^p) >= p*L;
      (5) val(c_1 - lam) >= val c_1 + delta for a monomial lam = r * p^val(c_1),
          r rational (tested with lam = lead g_1 / lead g_p).

    Step.  The child z' = z + a is certified with the same L and rho and
    v' = L - delta/p.  Expand G(a + k) = sum g'_m k^m, c'_m = g'_m / g'_p, and
    bound each term of c'_m = sum_i binom(i, m) c_i a^(i-m), using
    val c_i >= -(i - p)*rho for i > p (convexity of the polygon).  Then
    N = c'_p = 1 + eta with val eta >= v - rho.  In c'_0 the term c_1 a has
    valuation (p-1)L + v = p*v', and c_0 + a^p, c_i a^i (i != 0, 1, p) are
    >= p*L by (4), (3), (2).  In c'_1 = c_1 + ..., the other terms are
    >= (p-1)L + delta/p by (3), by (1) for p*a^(p-1) (valuation 1 + (p-1)v)
    and by (2).
    So val c'_1 = (p-1)L and (5) holds at z' with the same lam.  For
    1 < m < p, val c'_m + m*v' >= p*L by (3), by (1) for binom(p, m) a^(p-m)
    and by (2).  These c'_m lie strictly above the chord from (0, p*v') to
    (p, 0); roots outside the cluster keep valuation <= rho < v'.  So [0, p] is
    the first segment of G(a + k), of slope -v', and its residue polynomial
    is y^p + q = (y + q)^p over F_p: one child a' = lift(-q) * p^v'.  For (4) at
    z', write c'_0 + N a'^p as (c_0 + a^p) + (lam*a + a'^p) + (c_1 - lam)*a +
    sum c_i a^i (i != 0, 1, p) + eta*a'^p.  lam*a + a'^p = (r*lift(theta) +
    lift(-q)^p) * p^(p*v') with an integer multiple of p in front, since
    q = r*theta in F_p, so it is >= 1 + p*v' >= p*L by (1).  The other terms
    are >= p*L by (4), (5), (3), (2).  (1)-(3) hold at z' since v' > v and
    delta' < delta.

    Lemma.  From a certified node the descent toward the cluster would be an
    infinite chain of single children at depths v_k = L - delta/p^k, each
    keeping the p roots of the first segment (the cluster).  For each
    cluster root alpha:
    - no tower point c has v(alpha - c) >= L.  Otherwise c lies in some
      Q_p(p^(1/D)).  Every center on the path from 0 to alpha is the previous
      one plus lift * p^w, where w = v(alpha - center) = v(c - center) < L.
      So by induction all centers lie in Q_p(p^(1/D)), and every v_k lies in
      (1/D)Z, which fails for large k;
    - its cluster mates lie at distance >= v_k for every k, so >= L.

    The fiber below z'.  A fiber point zeta(c, t) there has c in the tower
    with v(c - z') > v, and t > v.  (t = v is zeta(z, v), which z searches
    itself.)  Its disc holds a root of F = (num - b*den)*den: a disc without
    a pole maps onto the disc of its image point, which holds b.  So the
    disc holds a cluster root alpha, zeta(c, t) = zeta(alpha, t), and
    t <= v(c - alpha) < L.  On [v, L) the seminorm of R - b at zeta(alpha, t)
    is Phi(t) = Phi_z(v) + s*(t - v), where Phi_z(t) = S_t(A_z) - S_t(Q_z)
    and s = m_A - m_Q counts the cluster roots of A = num - b*den minus
    those of den.  Roots r outside the cluster have v(alpha - r) <= rho < v,
    and cluster roots lie at distance >= L.  s is the slope of Phi_z on
    [rho, v], where no root valuation lies.  If Phi(t) = u has no solution in
    [v, L), the subtree of z' holds no representable fiber point, and the
    child is skipped.  An unliftable digit is skipped the same way.

    s != 0.  m_A + m_Q = p, so s = 0 needs p = 2 and m_A = m_Q = 1.  Then
    A_z has one root alpha in the disc v(h) > rho, and every automorphism
    over K = Q_p(z, b, coefficients of R) keeps valuations, so fixes alpha:
    alpha lies in K, a tower field, against the lemma.
    """
    slope, width, i0, _ = segs[0]
    if i0 or width != p or not all(c.is_exact for c in G):
        return False
    v = -slope
    vp = G[p].valuation()
    L = (G[1].valuation() - vp) / (p - 1)
    delta = L - v
    if not 0 < delta <= 1 / (p - 1 + Fraction(1, p)):
        return False
    rho = -segs[1][0] if len(segs) > 1 else None
    if rho is not None and v - rho < p * delta:
        return False
    level = vp + p * L
    if any(G[i].valuation() + i * v < level for i in range(2, p)):
        return False
    if (G[0] + G[p] * a ** p).valuation() < level:
        return False
    lam = leading_term(G[1]) / leading_term(G[p])
    if (G[1] - lam * G[p]).valuation() < G[1].valuation() + delta:
        return False

    def phi(t):
        return polys.gauss_valuation(A_z, t) - polys.gauss_valuation(Q_z, t)

    t0 = rho if rho is not None else v - 1
    phi_v = phi(v)
    s = (phi_v - phi(t0)) / (v - t0)
    return not v <= v + (u - phi_v) / s < L


# ---------------------------------------------------------------------------
# map-literal parser


# numbers are integers only, so "/" is always the division operator
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^]))"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParamDomain(f"bad map literal near {text[pos:pos+10]!r}")
        pos = m.end()
        if m.group("num"):
            out.append(("num", int(m.group("num"))))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", None))
    return out


class _Frac:
    """A rational function as a (num, den) coefficient pair during parsing."""

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        self.n = n
        self.d = d

    def __add__(self, o):
        return _Frac(
            polys.add(polys.mul(self.n, o.d), polys.mul(o.n, self.d)),
            polys.mul(self.d, o.d),
        )

    def __sub__(self, o):
        return self + _Frac(polys.neg(o.n), o.d)

    def __mul__(self, o):
        return _Frac(polys.mul(self.n, o.n), polys.mul(self.d, o.d))

    def __truediv__(self, o):
        if polys.trim(o.n) == []:
            raise DivisionByZero("division by zero in map literal")
        return _Frac(polys.mul(self.n, o.d), polys.mul(self.d, o.n))

    def __pow__(self, k):
        if k < 0:
            return _Frac(self.d, self.n) ** (-k)
        bk = self.d[0].backend
        out = _Frac([bk.one()], [bk.one()])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


class _Parser:
    def __init__(self, tokens, bk, consts):
        self.toks = tokens
        self.i = 0
        self.bk = bk
        self.consts = consts

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def one(self):
        return _Frac([self.bk.one()], [self.bk.one()])

    def parse_expr(self):
        if self.peek() == ("op", "-"):
            self.next()
            node = self.one() * _Frac([-self.bk.one()], [self.bk.one()]) * self.parse_term()
        else:
            node = self.parse_term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.next()[1]
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.next()[1]
            rhs = self.parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor(self):
        node = self.parse_atom()
        while self.peek() == ("op", "^"):
            self.next()
            kind, val = self.next()
            if kind != "num":
                raise ParamDomain("exponent must be an integer")
            node = node ** val
        return node

    def parse_atom(self):
        kind, val = self.next()
        if kind == "num":
            return _Frac([self.bk.from_int(val)], [self.bk.one()])
        if kind == "name":
            if val == "z":
                return _Frac([self.bk.zero(), self.bk.one()], [self.bk.one()])
            if val in self.consts:
                c = self.consts[val]
                if not isinstance(c, FieldElement):
                    c = self.bk.parse_literal(str(c))
                return _Frac([c], [self.bk.one()])
            raise ParamDomain(f"unknown symbol {val!r} in map literal")
        if (kind, val) == ("op", "("):
            node = self.parse_expr()
            if self.next() != ("op", ")"):
                raise ParamDomain("unbalanced parentheses in map literal")
            return node
        raise ParamDomain(f"unexpected token {val!r} in map literal")


def _parse_map_literal(text, bk, consts):
    parser = _Parser(_tokenize(text), bk, consts)
    node = parser.parse_expr()
    if parser.peek()[0] != "end":
        raise ParamDomain("trailing input in map literal")
    return node.n, node.d
