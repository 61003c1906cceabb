"""Rational-map tests.

Oracles:
- parser: compare against direct Fraction arithmetic at sample points;
- ball images: sample type-I points of the source ball, push them through the
  map, and check they fill out exactly the claimed image ball;
- metric: degree-1 maps are tree isometries, so hyperbolic distances must be
  preserved exactly;
- fibers: every reported preimage must map back to the target, multiplicities
  must sum to the degree;
- pruned fiber descent: disc images against the tree order, with zeros and
  poles known by construction; Moebius fibers against the inverse map; fibers
  of 1/P against fibers of the polynomial P; fibers of R against fibers of
  1/R over the inverted target;
- wild chains: tower distances worked out by hand and checked by an integer
  digit search, fiber centres by sympy valuations in Q[x]/(x^E - p), and
  fibers of polynomials whose roots lie in the tower, by construction or by a
  sympy Newton-polygon certificate, found in full.
"""

import math
import random
from fractions import Fraction as F

import pytest

from berkdyn import (
    Backend,
    DivisionByZero,
    EQUICHARP,
    ExtensionBound,
    INF,
    PADIC,
    ParamDomain,
    PrecisionExhausted,
)
from berkdyn import polys
from berkdyn import ratmap
from berkdyn.berkovich import BerkPoint, hyperbolic_distance, order_leq, seminorm_eval
from berkdyn.fields import FieldElement
from berkdyn.measures import AtomicMeasure, pushforward
from berkdyn.ratmap import RationalMap
from berkdyn.roots import roots_with_mult

B2 = Backend(PADIC, p=2)
B3 = Backend(PADIC, p=3)
B5 = Backend(PADIC, p=5)
BF2 = Backend(EQUICHARP, p=2)
BF3 = Backend(EQUICHARP, p=3)


def centre_field_degree(S):
    """The degree of the largest residue field among S's centre coefficients."""
    return max((c.field.k for c in S.value.terms.values()), default=1)


def random_map(bk, rng, maxdeg=3, integer=False):
    """A random rational map of degree >= 1 with rational coefficients."""
    while True:
        def rand_poly():
            deg = rng.randint(0, maxdeg)
            lo, hi = (-9, 9)
            coeffs = [
                F(rng.randint(lo, hi), 1 if integer else rng.randint(1, 4))
                for _ in range(deg + 1)
            ]
            return coeffs

        try:
            R = RationalMap.from_rationals(bk, rand_poly(), rand_poly())
        except DivisionByZero:
            continue
        if R.degree >= 1:
            return R


def sample_ball(S, rng, count):
    bk = S.backend
    p = bk.p or 5
    out = [S.value]
    for _ in range(count):
        unit = bk.from_int(rng.randint(1, p - 1))
        for _ in range(rng.randint(0, 3)):
            q = F(rng.randint(1, 6), rng.choice([1, 2, 3]))
            unit = unit + bk.from_int(rng.randint(0, p - 1)) * bk.uniformizer_pow(q)
        shrink = rng.choice([0, 0, 0, 1, F(1, 2)])
        out.append(S.value + unit * bk.uniformizer_pow(S.logr + shrink))
    return out


class TestParser:
    def test_against_fraction_oracle(self):
        rng = random.Random(109)
        text = "(z^3 - 2*z + 1)/(3*z^2 + z)"

        def oracle(z):
            return F(z ** 3 - 2 * z + 1) / F(3 * z ** 2 + z)

        R = RationalMap.parse(text, B5)
        for _ in range(20):
            z = rng.randint(1, 50)
            got = R.eval_type1(B5.from_int(z))
            assert got.value.as_rational() == oracle(z)

    def test_constants(self):
        R = RationalMap.parse("(z^3)/(1+(a*z)^5)", B3, consts={"a": F(1, 3)})
        assert R.degree == 5
        got = R.eval_type1(B3.from_int(3)).value.as_rational()
        assert got == F(27, 2)

    def test_unary_minus_and_powers(self):
        R = RationalMap.parse("-z^2 + 1", B2)
        assert R.eval_type1(B2.from_int(3)).value.as_rational() == -8

    def test_errors(self):
        with pytest.raises(ParamDomain):
            RationalMap.parse("z + w", B2)
        with pytest.raises(ParamDomain):
            RationalMap.parse("(z", B2)
        with pytest.raises(ParamDomain):
            RationalMap.parse("z^z", B2)

    def test_common_factor_cancelled(self):
        R = RationalMap.parse("(z^2 - 1)/(z - 1)", B3)
        assert R.degree == 1

    @pytest.mark.parametrize(
        "text",
        [
            "z^2/3",
            "z^3/9+z",
            "z/2/3",
            "z^2 /3",
            "1/2*z",
            "(z+1)/3/z",
            "2/3*z^2 - z/4",
            "-z^2/4 + 1/2",
            "(z^3/9 + z)/(z^2/2 - 1)",
        ],
    )
    def test_division_against_sympy(self, text):
        # "/" is always the operator, left-associative like sympy's parse
        sympy = pytest.importorskip("sympy")
        from sympy.parsing.sympy_parser import (
            convert_xor,
            parse_expr,
            standard_transformations,
        )

        z = sympy.Symbol("z")
        expr = parse_expr(text, transformations=standard_transformations + (convert_xor,))
        num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
        R = RationalMap.parse(text, B5)
        assert R.degree == max(sympy.degree(num, z), sympy.degree(den, z))
        for x in range(1, 12):
            want = expr.subs(z, x)
            got = R.eval_type1(B5.from_int(x)).value.as_rational()
            assert got == F(int(want.p), int(want.q))


class TestImages:
    def test_squaring_examples(self):
        Rz2 = RationalMap.parse("z^2", B2)
        assert Rz2.image_point(BerkPoint.canonical(B2)) == BerkPoint.canonical(B2)
        assert Rz2.image_point(
            BerkPoint.type_ii(B2.zero(), 1)
        ) == BerkPoint.type_ii(B2.zero(), 2)
        # away from 0 the squaring is 1-1 on small balls: radius adds val(2a)
        assert Rz2.image_point(
            BerkPoint.type_ii(B2.one(), 3)
        ) == BerkPoint.type_ii(B2.one(), 4)

    def test_inversion_examples(self):
        Rinv = RationalMap.parse("1/z", B2)
        assert Rinv.image_point(BerkPoint.canonical(B2)) == BerkPoint.canonical(B2)
        assert Rinv.image_point(
            BerkPoint.type_ii(B2.zero(), 1)
        ) == BerkPoint.type_ii(B2.zero(), -1)
        assert Rinv.image_point(
            BerkPoint.type_ii(B2.one(), 2)
        ) == BerkPoint.type_ii(B2.one(), 2)

    def test_infinity(self):
        Rz2 = RationalMap.parse("z^2", B2)
        assert Rz2.image_point(BerkPoint.infinity(B2)).is_infinity
        assert RationalMap.parse("1/z", B2).image_point(
            BerkPoint.infinity(B2)
        ) == BerkPoint.type_i(B2.zero())

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_sampling_oracle_60(self, bk):
        """Push sampled ball points through the map: all must land in the
        image ball, and the image diameter must be attained."""
        rng = random.Random(113)
        done = 0
        while done < 60:
            R = random_map(bk, rng)
            S = BerkPoint.type_ii(
                bk.from_rational(F(rng.randint(-8, 8), rng.randint(1, 4))),
                F(rng.randint(-3, 6)),
            )
            T = R.image_point(S)
            w, u = T.value, T.logr
            # algebraic oracle: the image seminorm of each test function
            # y - c must match the Gauss valuation of (P - c*Q)/Q on the
            # source ball (the multiplicative-seminorm definition)
            consts = [w, w + bk.uniformizer_pow(u), bk.from_int(rng.randint(-9, 9))]
            den_val = seminorm_eval(S, R.den)
            for c in consts:
                A = polys.sub(R.num, polys.scale(R.den, c))
                expected = seminorm_eval(S, A) - den_val
                assert min(u, (w - c).valuation_lower_bound()) == expected
            # sampling oracle: with no pole in the ball, every value lands in
            # the closed image ball.  (The diameter itself need not be
            # attained at representable points: the residue field is finite,
            # so a root can shadow an entire residue class.)
            Q_a = polys.recenter(R.den, S.value)
            if not R._ball_contains_pole(Q_a, S.logr):
                for z in sample_ball(S, rng, 30):
                    img = R.eval_type1(z)
                    assert not img.is_infinity
                    assert (img.value - w).valuation_lower_bound() >= u
            done += 1

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_moebius_isometry_100(self, bk):
        rng = random.Random(127)
        done = 0
        while done < 100:
            R = random_map(bk, rng, maxdeg=1)
            if R.degree != 1:
                continue
            S = BerkPoint.type_ii(
                bk.from_rational(F(rng.randint(-8, 8), rng.randint(1, 3))),
                F(rng.randint(-4, 6), rng.choice([1, 2])),
            )
            T = BerkPoint.type_ii(
                bk.from_rational(F(rng.randint(-8, 8), rng.randint(1, 3))),
                F(rng.randint(-4, 6), rng.choice([1, 2])),
            )
            assert hyperbolic_distance(
                R.image_point(S), R.image_point(T)
            ) == hyperbolic_distance(S, T)
            done += 1

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_composition_functoriality_100(self, bk):
        rng = random.Random(131)
        for _ in range(100):
            R1 = random_map(bk, rng, maxdeg=2)
            R2 = random_map(bk, rng, maxdeg=2)
            S = BerkPoint.type_ii(
                bk.from_rational(F(rng.randint(-6, 6), rng.randint(1, 3))),
                F(rng.randint(-3, 5)),
            )
            comp = R1.compose(R2)
            assert comp.image_point(S) == R1.image_point(R2.image_point(S))
            # multiplicativity of local degrees along the composition
            assert comp.local_degree(S) == R1.local_degree(
                R2.image_point(S)
            ) * R2.local_degree(S)


class TestLocalDegree:
    def test_squaring(self):
        for bk in (B2, B3):
            Rz2 = RationalMap.parse("z^2", bk)
            assert Rz2.local_degree(BerkPoint.canonical(bk)) == 2
            assert Rz2.local_degree(BerkPoint.type_ii(bk.zero(), 1)) == 2
            assert Rz2.local_degree(BerkPoint.type_i(bk.zero())) == 2
            assert Rz2.local_degree(BerkPoint.infinity(bk)) == 2
            assert Rz2.local_degree(BerkPoint.type_i(bk.one())) == 1
        # small balls off 0: injective for p=3, 2-1 for p=2 (|2| < 1)
        assert RationalMap.parse("z^2", B3).local_degree(
            BerkPoint.type_ii(B3.one(), 1)
        ) == 1
        assert RationalMap.parse("z^2", B2).local_degree(
            BerkPoint.type_ii(B2.one(), 1)
        ) == 2

    def test_critical_type1(self):
        R = RationalMap.parse("z^3 - 3*z", B5)
        # derivative 3z^2 - 3 vanishes at 1
        assert R.local_degree(BerkPoint.type_i(B5.one())) == 2
        assert R.local_degree(BerkPoint.type_i(B5.zero())) == 1


class TestDegrees:
    def test_topological_char0(self):
        assert RationalMap.parse("z^4", B2).topological_degree() == 4

    def test_frobenius_factor(self):
        assert RationalMap.parse("z^2", BF2).topological_degree() == 1
        assert RationalMap.parse("z^4", BF2).topological_degree() == 1
        R = RationalMap.parse("z^2+t*z", BF2, consts={"t": "[(1,1)]"})
        assert R.topological_degree() == 2
        # z^6/(z^2+1) over char 3: not a function of z^3
        R = RationalMap.parse("(z^6)/(z^2+1)", BF3)
        assert R.topological_degree() == 6

    def test_frobenius_composed(self):
        # (z^2 + t)^2 -like: a function of z^2 once but not twice
        R = RationalMap.parse("z^4 + t*z^2", BF2, consts={"t": "[(1,1)]"})
        assert R.topological_degree() == 2


class TestPreimages:
    def test_type1_fiber(self):
        Rz2 = RationalMap.parse("z^2", B2)
        pre = Rz2.preimages(BerkPoint.type_i(B2.from_int(4)))
        assert sorted((p.value.as_rational(), m) for p, m in pre) == [
            (F(-2), 1),
            (F(2), 1),
        ]
        pre = Rz2.preimages(BerkPoint.infinity(B2))
        assert pre == [(BerkPoint.infinity(B2), 2)]
        pre = Rz2.preimages(BerkPoint.type_i(B2.zero()))
        assert pre == [(BerkPoint.type_i(B2.zero()), 2)]

    def test_type2_fiber_splits(self):
        Rz2 = RationalMap.parse("z^2", B2)
        pre = Rz2.preimages(BerkPoint.type_ii(B2.one(), 3))
        assert sorted(
            (p.value.as_rational(), p.logr, m) for p, m in pre
        ) == [(F(1), F(2), 1), (F(3), F(2), 1)]

    def test_type2_fiber_through_branch_point(self):
        pre = RationalMap.parse("z^2", B2).preimages(BerkPoint.type_ii(B2.zero(), 2))
        assert pre == [(BerkPoint.type_ii(B2.zero(), 1), 2)]

    def test_unsplittable_type1_but_fine_type2(self):
        # the type-I fiber of 0 needs a quadratic extension, but the fiber of
        # the canonical point is the canonical point itself
        R = RationalMap.parse("z^2+1", B3)
        pre = R.preimages(BerkPoint.canonical(B3))
        assert pre == [(BerkPoint.canonical(B3), 2)]

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_fiber_invariants_random(self, bk):
        rng = random.Random(137)
        done = 0
        while done < 40:
            R = random_map(bk, rng, maxdeg=3, integer=True)
            T = BerkPoint.type_ii(
                bk.from_int(rng.randint(-6, 6)), F(rng.randint(-2, 4))
            )
            try:
                pre = R.preimages(T)
            except ExtensionBound:
                continue
            assert sum(m for _, m in pre) == R.degree
            assert len(pre) <= R.topological_degree()
            for S, m in pre:
                assert R.image_point(S) == T
                assert m == R.local_degree(S)
            done += 1

    @pytest.mark.parametrize(
        "num,den,c,u",
        [
            ([-8, 4, 3, 2], [-7, -8, -9], 2, F(2, 3)),
            ([-2, 9, 0, -2], [3, -3, -1], 2, F(1, 2)),
            ([-1], [5, 3, 4], 2, 1),
            ([3, -7, 8, -8], [-1], 2, 2),
        ],
    )
    def test_laurentfp_fibers_through_extension_fields(self, num, den, c, u):
        # image centres computed in F_(3^k) must equal the target's centre in
        # F_3; each fiber point is checked without FieldElement equality:
        # fresh maps give its image radius, centre distance and local degree
        T = BerkPoint.type_ii(BF3.from_int(c), u)
        fiber = RationalMap.from_rationals(BF3, num, den).preimages(T)
        assert sum(m for _, m in fiber) == RationalMap.from_rationals(BF3, num, den).degree
        assert any(centre_field_degree(S) > 1 for S, _ in fiber)
        for S, m in fiber:
            image = RationalMap.from_rationals(BF3, num, den).image_point(S)
            assert image.logr == u and (image.value - T.value).valuation() >= u
            assert RationalMap.from_rationals(BF3, num, den).local_degree(S) == m
        for (S1, _), (S2, _) in zip(fiber, fiber[1:]):
            assert S1.logr != S2.logr or (S1.value - S2.value).valuation() < S1.logr

    @pytest.mark.xfail(
        strict=True,
        raises=PrecisionExhausted,
        reason="known defect: the Artin-Schreier roots of z^p - z = 1/t need "
        "unbounded exponent denominators, and the descent ends in 'polygon "
        "ambiguous' instead of a proved ExtensionBound (ROADMAP item 5)",
    )
    @pytest.mark.parametrize("bk,text", [(BF2, "z^2+z"), (BF3, "z^3-z")], ids=["p2", "p3"])
    def test_artin_schreier_fiber_is_extension_bound(self, bk, text):
        R = RationalMap.parse(text, bk)
        with pytest.raises(ExtensionBound):
            R.preimages(BerkPoint.type_i(bk.uniformizer_pow(-1)))


class TestGenericRadii:
    """A fiber radius inside a linear piece of psi(t) = S_t(A_z) - S_t(Q_z)
    is a fiber point of multiplicity |psi'(t)| with no image descent."""

    R0 = "(z^5-243)/z^2"

    @staticmethod
    def count_reductions(monkeypatch):
        calls = []
        reduction = RationalMap._reduction
        monkeypatch.setattr(
            RationalMap, "_reduction", lambda R, a, v: calls.append(v) or reduction(R, a, v)
        )
        return calls

    @pytest.mark.parametrize("u", [F(-3), F(0), F(1), F(2), F(5, 2)])
    def test_power_map_fiber_closed_form(self, monkeypatch, u):
        # psi(t) = min(5, 5t) - 2t is 3t below t = 1 and 5 - 2t above it, so
        # for u < 3 the fiber of zeta(0, u) is zeta(0, u/3) x3, zeta(0, (5-u)/2) x2
        calls = self.count_reductions(monkeypatch)
        fiber = RationalMap.parse(self.R0, B3).preimages(BerkPoint.type_ii(B3.zero(), u))
        assert fiber == [
            (BerkPoint.type_ii(B3.zero(), u / 3), 3),
            (BerkPoint.type_ii(B3.zero(), (5 - u) / 2), 2),
        ]
        assert calls == []

    @pytest.mark.parametrize("u", [F(-3), F(0), F(5, 2)])
    def test_inexact_map_keeps_the_image_test(self, monkeypatch, u):
        exact = RationalMap.parse(self.R0, B3)
        num = list(exact.num)
        num[0] = num[0] + FieldElement(B3, {}, F(30))  # -243 + O(3^30)
        inexact = RationalMap(num, exact.den, simplify=False)
        T = BerkPoint.type_ii(B3.zero(), u)
        fiber = exact.preimages(T)
        calls = self.count_reductions(monkeypatch)
        assert inexact.preimages(T) == fiber
        assert len(calls) == 2  # one image test per fiber point


class TestReduction:
    def test_good_cases(self):
        assert RationalMap.parse("z^2", B2).good_reduction_check()
        assert RationalMap.parse("(z^2+1)/z", B3).good_reduction_check()
        assert RationalMap.parse("(z^2+1)/(z+3)", B3).good_reduction_check()

    def test_bad_cases(self):
        assert not RationalMap.parse("(z^2)/2", B2).good_reduction_check()
        assert not RationalMap.parse("3*z^2 + z", B3).good_reduction_check()
        # common root after reduction
        assert not RationalMap.parse("(z^2 + 3)/(z + 3*z^2)", B3).good_reduction_check()

    def test_good_reduction_fixes_canonical_point(self):
        rng = random.Random(139)
        for _ in range(50):
            R = random_map(B3, rng, maxdeg=3, integer=True)
            S0 = BerkPoint.canonical(B3)
            if R.good_reduction_check():
                assert R.image_point(S0) == S0
                assert R.local_degree(S0) == R.degree


class TestExceptional:
    def test_polynomial(self):
        exc = RationalMap.parse("z^2 - 2", B5).exceptional_points()
        assert exc == [BerkPoint.infinity(B5)]

    def test_power_map(self):
        exc = RationalMap.parse("z^3", B2).exceptional_points()
        assert BerkPoint.infinity(B2) in exc
        assert BerkPoint.type_i(B2.zero()) in exc
        assert len(exc) == 2

    def test_inverted_power_map(self):
        # 0 and infinity swap; both are exceptional via the second iterate
        exc = RationalMap.parse("1/(z^2)", B2).exceptional_points()
        assert len(exc) == 2

    def test_generic_map_has_none(self):
        assert RationalMap.parse("(z^2+1)/(z+3)", B3).exceptional_points() == []


class TestRepeatedQueries:
    """One map queried again and again answers exactly as fresh maps do."""

    R0 = "(z^5 - 243)/z^2"

    def test_alternating_centers_match_fresh_maps(self):
        R = RationalMap.parse(self.R0, B3)
        can = BerkPoint.canonical(B3)
        S = BerkPoint.type_ii(B3.zero(), F(1, 2))
        near_one = BerkPoint.type_ii(B3.one(), 1)
        near_minus_one = BerkPoint.type_ii(B3.from_int(-1), F(1, 2))
        queries = [
            ("image_point", S),
            ("local_degree", near_one),
            ("local_degree", S),
            ("preimages", near_minus_one),
            ("preimages", can),
            ("image_point", near_minus_one),
            ("image_point", S),
            ("local_degree", near_minus_one),
            ("preimages", can),
            ("image_point", near_one),
            ("local_degree", S),
        ]
        for name, point in queries:
            fresh = RationalMap.parse(self.R0, B3)
            assert getattr(R, name)(point) == getattr(fresh, name)(point)
            if name == "preimages":
                # a failed search in between must not leave a stale answer
                with pytest.raises(ExtensionBound):
                    R.preimages(near_one)
        # the README closed forms, asked once more of the same map
        assert R.image_point(S) == BerkPoint.type_ii(B3.zero(), F(3, 2))
        assert R.local_degree(S) == 3
        assert R.preimages(can) == [
            (BerkPoint.type_ii(B3.zero(), 0), 3),
            (BerkPoint.type_ii(B3.zero(), F(5, 2)), 2),
        ]

    def test_fiber_multiplicities_are_fresh_local_degrees(self):
        # criterion-06-style maps over p=3; fibers that do not resolve over
        # this tower are skipped by their typed error
        rng = random.Random(6001)
        resolved = 0
        for _ in range(30):
            num = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            den = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            if not any(num) or not any(den):
                continue
            T = BerkPoint.type_ii(B3.from_int(rng.randint(-6, 6)), F(rng.randint(-2, 4)))
            R = RationalMap.from_rationals(B3, num, den)
            try:
                fiber = R.preimages(T)
            except ExtensionBound:
                continue
            resolved += 1
            for S, m in fiber:
                assert m == RationalMap.from_rationals(B3, num, den).local_degree(S)
        assert resolved >= 10


def factored_map(bk, rng, n_zeros, n_poles):
    """lead * prod(z - zero) / prod(z - pole) with distinct rational zeros
    and poles, so which of them a ball holds is known without the map."""
    pts = set()
    while len(pts) < n_zeros + n_poles:
        pts.add(F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) * bk.p ** rng.randint(0, 1))
    pts = sorted(pts)
    rng.shuffle(pts)
    zeros, poles = pts[:n_zeros], pts[n_zeros:]
    num = [bk.from_int(rng.randint(1, 9))]
    for x in zeros:
        num = polys.mul(num, [-bk.from_rational(x), bk.one()])
    den = [bk.one()]
    for x in poles:
        den = polys.mul(den, [-bk.from_rational(x), bk.one()])
    return RationalMap(num, den), zeros, poles


def holds(S, xs):
    """Does the Berkovich disc below S contain one of the rationals xs?"""
    return any(order_leq(BerkPoint.type_i(S.backend.from_rational(x)), S) for x in xs)


def sub_ball(S, rng):
    """A random type-II point of the closed Berkovich disc below S."""
    bk = S.backend
    shift = bk.from_int(rng.randint(0, 8)) * bk.uniformizer_pow(S.logr)
    return BerkPoint.type_ii(S.value + shift, S.logr + F(rng.randint(0, 4), rng.choice([1, 2])))


def disc_misses(R, S, T):
    P_a, Q_a = R._recentered(S.value)
    A_a = polys.sub(P_a, polys.scale(Q_a, T.value))
    return R._disc_misses(A_a, Q_a, S.logr, T.logr)


def reference_disc_misses(P_z, Q_z, depth, b, u):
    """The earlier pruning rule, kept as a reference: a disc with a pole but
    no zero of R is tested through 1/R, with a case split on val b."""
    bk = Q_z[0].backend
    p0 = P_z[0] if P_z else bk.zero()
    q0 = Q_z[0]
    N = polys.sub(polys.scale(P_z, q0), polys.scale(Q_z, p0))
    g = polys.gauss_valuation([bk.zero()] + N[1:], depth)
    has_pole = RationalMap._ball_contains_pole
    if not has_pole(Q_z, depth):
        vq = q0.valuation()
        img = g - 2 * vq
        return img > u or (b * q0 - p0).valuation() - vq < img
    if not P_z or has_pole(P_z, depth):
        return False
    vb, vp = b.valuation(), p0.valuation()
    img = g - 2 * vp
    if vb >= u:
        return img > -u or q0.valuation() - vp < img
    return img > u - 2 * vb or (b * q0 - p0).valuation() - vb - vp < img


class TestFiberPruning:
    """The fiber search skips a disc when its image cannot hold the target.
    Oracles: image_point and the tree order, with zeros and poles known by
    construction, and fibers of maps whose fibers are known otherwise."""

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_disc_images_and_pruning_decision(self, bk):
        rng = random.Random(601)
        inv = RationalMap.parse("1/z", bk)
        checked = {"pole-free": 0, "pole-only": 0}
        while min(checked.values()) < 40:
            R, zeros, poles = factored_map(bk, rng, rng.randint(1, 2), rng.randint(1, 2))
            S = BerkPoint.type_ii(
                bk.from_rational(F(rng.randint(-9, 9), rng.choice([1, 2]))),
                F(rng.randint(-2, 3), rng.choice([1, 2])),
            )
            if not holds(S, poles):
                kind, chart, to_chart = "pole-free", R, lambda X: X
            elif not holds(S, zeros):
                kind, chart, to_chart = "pole-only", R.target_inverted(), inv.image_point
            else:
                continue  # a zero and a pole: the image is the whole line
            image = chart.image_point(S)
            subs = [sub_ball(S, rng) for _ in range(4)]
            for sub in subs:
                assert order_leq(chart.image_point(sub), image)
            # targets inside the image (images of sub-balls) are never
            # pruned; random targets are pruned exactly when outside it
            targets = [R.image_point(sub) for sub in subs] + [
                BerkPoint.type_ii(
                    bk.from_int(rng.randint(-9, 9)), F(rng.randint(-3, 5), rng.choice([1, 2]))
                )
                for _ in range(4)
            ]
            for T in targets:
                assert disc_misses(R, S, T) == (not order_leq(to_chart(T), image))
            checked[kind] += 1

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_rule_on_r_minus_b_prunes_at_least_the_reference(self, bk):
        # M = R + b has its b-points at the zeros of R, so which of them a
        # disc holds is known by construction, and M - b = R.  Every disc the
        # reference rule prunes is pruned; every pruned disc misses the
        # target: a disc without a pole maps onto the disc below M(S), one
        # with a pole but no b-point is mapped by 1/(M - b) = 1/R onto the
        # disc below (1/R)(S), which must miss 1/zeta(0, u) = zeta(0, -u)
        rng = random.Random(601)
        pruned = {"pole-free": 0, "pole-only": 0, "reference": 0}
        for _ in range(120):
            R, zeros, poles = factored_map(bk, rng, rng.randint(1, 2), rng.randint(1, 2))
            S = BerkPoint.type_ii(
                bk.from_rational(F(rng.randint(-9, 9), rng.choice([1, 2]))),
                F(rng.randint(-2, 3), rng.choice([1, 2])),
            )
            for _ in range(4):
                b = bk.from_int(rng.randint(-9, 9))
                u = F(rng.randint(-3, 5), rng.choice([1, 2]))
                M = RationalMap(polys.add(R.num, polys.scale(R.den, b)), R.den)
                T = BerkPoint.type_ii(b, u)
                P_z, Q_z = M._recentered(S.value)
                new = disc_misses(M, S, T)
                if reference_disc_misses(P_z, Q_z, S.logr, b, u):
                    pruned["reference"] += 1
                    assert new
                if not new:
                    continue
                if not holds(S, poles):
                    pruned["pole-free"] += 1
                    assert not order_leq(T, M.image_point(S))
                else:
                    pruned["pole-only"] += 1
                    assert not holds(S, zeros)
                    inverted = BerkPoint.type_ii(bk.zero(), -u)
                    assert not order_leq(inverted, R.target_inverted().image_point(S))
        assert min(pruned.values()) >= 20, pruned

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_pruned_fibers_equal_unpruned_fibers(self, bk, monkeypatch):
        # criterion 06's maps: pruning changes no point, multiplicity, order
        # or error message of the fiber search
        rng = random.Random(6001)

        def outcome(R, T):
            try:
                return R.preimages(T)
            except ExtensionBound as exc:
                return str(exc)

        cases = []
        while len(cases) < 12:
            num = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            den = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            if not any(num) or not any(den):
                continue
            if RationalMap.from_rationals(bk, num, den).degree < 1:
                continue
            T = BerkPoint.type_ii(bk.from_int(rng.randint(-6, 6)), F(rng.randint(-2, 4)))
            cases.append((num, den, T))
        pruned = [outcome(RationalMap.from_rationals(bk, n, d), T) for n, d, T in cases]
        monkeypatch.setattr(RationalMap, "_disc_misses", lambda *args: False)
        full = [outcome(RationalMap.from_rationals(bk, n, d), T) for n, d, T in cases]
        assert pruned == full
        assert sum(isinstance(o, list) for o in full) >= 6

    @staticmethod
    def moebius_cases(bk, polar):
        """Random (M, T, inverse image of T) with M(z) = (az+b)/(cz+d), c != 0;
        polar selects the cases whose fiber ball holds the pole of M."""
        rng = random.Random(607)
        out = []
        while len(out) < 40:
            a, b, c, d = (F(rng.randint(-9, 9)) for _ in range(4))
            if not c or a * d == b * c:
                continue
            M = RationalMap.from_rationals(bk, [b, a], [d, c])
            M_inv = RationalMap.from_rationals(bk, [-b, d], [a, -c])
            T = BerkPoint.type_ii(
                bk.from_rational(F(rng.randint(-9, 9), rng.choice([1, 2, 3]))),
                F(rng.randint(-3, 4), rng.choice([1, 2])),
            )
            S = M_inv.image_point(T)
            if holds(S, [-d / c]) == polar:
                out.append((M, T, S))
        return out

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_moebius_fiber_is_inverse_image(self, bk):
        for M, T, S in self.moebius_cases(bk, polar=False):
            assert M.preimages(T) == [(S, 1)]

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_moebius_fiber_through_the_pole(self, bk):
        for M, T, S in self.moebius_cases(bk, polar=True):
            assert M.preimages(T) == [(S, 1)]

    @staticmethod
    def reciprocal_cases(bk, polar):
        """Random (1/P, T, fiber of 1/T under P) with P split over Q; polar
        selects the cases where a fiber ball holds a zero of P."""
        rng = random.Random(613)
        inv = RationalMap.parse("1/z", bk)
        out = []
        while len(out) < 15:
            Pmap, zeros, _ = factored_map(bk, rng, rng.randint(1, 3), 0)
            T = BerkPoint.type_ii(
                bk.from_rational(F(rng.randint(-9, 9), rng.choice([1, 2, 3]))),
                F(rng.randint(-3, 4), rng.choice([1, 2])),
            )
            try:
                want = Pmap.preimages(inv.image_point(T))
            except ExtensionBound:
                continue  # no oracle: the polynomial fiber itself is out of reach
            if any(holds(S, zeros) for S, _ in want) == polar:
                out.append((Pmap.target_inverted(), T, dict(want)))
        return out

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_reciprocal_of_polynomial(self, bk):
        for R, T, want in self.reciprocal_cases(bk, polar=False):
            assert dict(R.preimages(T)) == want

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_reciprocal_of_polynomial_through_a_pole(self, bk):
        for R, T, want in self.reciprocal_cases(bk, polar=True):
            assert dict(R.preimages(T)) == want

    def test_gauss_fiber_through_a_pole(self):
        # 1/(z+3) reduces to 1/z, so the Gauss point is its own fiber,
        # although the Gauss ball holds the pole -3
        R = RationalMap.parse("1/(z+3)", B3)
        gauss = BerkPoint.canonical(B3)
        assert R.preimages(gauss) == [(gauss, 1)]

    def test_fibers_agree_in_both_target_charts(self):
        # criterion 06's corpus (seed 6001), each map as drawn and conjugated
        # by z -> -z: the fiber of T under R is the fiber of 1/T under 1/R,
        # whether the descent meets the poles of R or the zeros; and a
        # resolved fiber pushes forward to deg * delta_T
        rng = random.Random(6001)
        inv = RationalMap.parse("1/z", B3)

        def fiber(R, T):
            try:
                return dict(R.preimages(T))
            except ExtensionBound:
                return None

        items = []
        while len(items) < 2 * 55:
            num = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            den = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            if not any(num) or not any(den):
                continue
            if RationalMap.from_rationals(B3, num, den).degree < 1:
                continue
            c, logr = rng.randint(-6, 6), F(rng.randint(-2, 4))
            # -R(-z), the conjugate by z -> -z, takes the target zeta(-c, r)
            neg_num = [-x if i % 2 == 0 else x for i, x in enumerate(num)]
            neg_den = [x if i % 2 == 0 else -x for i, x in enumerate(den)]
            for n, d, b in [(num, den, c), (neg_num, neg_den, -c)]:
                items.append((n, d, BerkPoint.type_ii(B3.from_int(b), logr)))
        resolved = 0
        for num, den, T in items:
            R = RationalMap.from_rationals(B3, num, den)
            got = fiber(R, T)
            assert got == fiber(R.target_inverted(), inv.image_point(T)), (num, den, T)
            if got is not None:
                resolved += 1
                pushed = pushforward(R, AtomicMeasure(got.items()))
                assert pushed == AtomicMeasure.dirac(T, R.degree)
        assert resolved >= 54

    def test_pole_subtrees_are_not_descended(self, monkeypatch):
        # without pruning this fiber recenters 993 times, chasing the poles
        # digit by digit to the precision budget
        R = RationalMap.parse("(4+5*z)/(-4+z+5*z^2+9*z^3-6*z^4)", B3)
        T = BerkPoint.type_ii(B3.from_int(-5), 1)
        calls = []
        recenter = polys.recenter
        monkeypatch.setattr(
            ratmap.polys, "recenter", lambda a, c: calls.append(1) or recenter(a, c)
        )
        with pytest.raises(ExtensionBound, match="found multiplicity 2 of 4"):
            R.preimages(T)
        assert 0 < len(calls) <= 100


def coords_mul(x, y, p, D):
    """x * y in Z[pi] / (pi^D - p), on integer coordinate lists."""
    out = [0] * D
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            k = i + j
            out[k % D] += s * t * p ** (k // D)
    return out


def coords_valuation(x, p, D):
    """Valuation of sum x_j pi^j, pi^D = p, in units of 1/D (None for 0):
    the terms have distinct valuations mod 1."""
    vals = []
    for j, c in enumerate(x):
        if c:
            vals.append(D * _vp_int(c, p) + j)
    return min(vals, default=None)


def _vp_int(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def tower_points_within(poly, d, p, D):
    """Points c of Z_p[p^(1/D)] within distance d of a root of the monic
    integer polynomial `poly` (ascending), when its roots are pairwise at
    distance >= d: then v(poly(c)) >= deg * min(d, v(c - root)), so a digit
    search over c mod pi^ceil(d*D) with v(poly(c_k)) >= deg * min(d*D, k)
    (units of 1/D) at each length k finds all of them."""
    n = len(poly) - 1

    def value(c):
        acc = [0] * D
        for a in reversed(poly):
            acc = coords_mul(acc, c, p, D)
            acc[0] += a
        return acc

    frontier = [[0] * D]
    for k in range(math.ceil(d * D)):
        grown = []
        for c in frontier:
            for digit in range(p):
                c2 = list(c)
                c2[k % D] += digit * p ** (k // D)
                v = coords_valuation(value(c2), p, D)
                if v is None or v >= n * min(d * D, k + 1):
                    grown.append(c2)
        frontier = grown
    return frontier


def vp_at(expr, c, E=1):
    """v_p(expr(c)) for a PADIC element c = sum r * p^(i/e), computed with
    sympy in Q[x] / (x^E - p), x = p^(1/E), where 1, x, ..., x^(E-1) have
    valuations of distinct fractional parts.  expr is in z and, when its
    coefficients lie in the tower, in x with this E (E is made a multiple of
    c's denominators)."""
    sympy = pytest.importorskip("sympy")
    p = c.backend.p
    E = math.lcm(E, *(e for _, e in c.terms))
    x, z = sympy.symbols("x z")
    cx = sum(sympy.Rational(r.numerator, r.denominator) * x ** (i * E // e)
             for (i, e), r in c.terms.items())
    rem = sympy.Poly(sympy.rem(sympy.expand(expr.subs(z, cx)), x ** E - p, x), x)
    return min(
        F(sympy.multiplicity(p, coeff)) + F(j, E) for (j,), coeff in rem.terms()
    )


class TestWildChains:
    """Type-II fibers around roots outside the tower Q_p(p^(1/E)), whose
    descent is a wild chain: one child per node, width-p polygon segments,
    depths converging to the roots' tower distance L.

    Worked out by hand:
    - (z-1)^3 - 6 over Q_3: the roots are 1 + b*w^j with b^3 = 6, w^3 = 1,
      v(b) = 1/3 and v(1 - w) = 1/2 ((1 - w)^2 = -3w), so they are pairwise
      5/6 apart.  Toward a root, S_t((z-1)^3 - 6) = 3t for t <= 5/6.  The
      descent's depths are 2/3, 7/9, 22/27, ... -> 5/6, so L = 5/6.
    - z^2 - 3 over Q_2: (sqrt3 - 1)(sqrt3 + 1) = 2 with both factors of one
      valuation, so v(sqrt3 - 1) = 1/2; +-sqrt3 are 2*sqrt3 apart, at
      distance 1, and S_t(z^2 - 3) = 2t for t <= 1.  The depths are 1/2,
      3/4, 7/8, ... -> 1, so L = 1.
    So the fiber of zeta(0, u) is one point of full multiplicity at radius
    u/deg while u/deg < L; at u/deg = L it would need a tower point at
    distance L from a root, and beyond L it splits into points around
    single roots.  `test_no_tower_point_at_the_tower_distance` checks that
    no tower point of small degree lies at distance L."""

    CASES = [("(z-1)^3-6", B3, F(5, 6)), ("z^2-3", B2, F(1))]

    @pytest.mark.parametrize(
        "text,bk,targets",
        [("(z-1)^3-6", B3, [F(2), F(12, 5)]), ("z^2-3", B2, [F(1), F(3, 2), F(7, 4)])],
    )
    def test_fibers_below_the_tower_distance(self, text, bk, targets):
        sympy = pytest.importorskip("sympy")
        R = RationalMap.parse(text, bk)
        deg = R.degree
        for u in targets:
            T = BerkPoint.type_ii(bk.zero(), u)
            for partial in (False, True):
                fiber = R.preimages(T, partial=partial)
                assert [(S.logr, m) for S, m in fiber] == [(u / deg, deg)]
            (S, _), = fiber
            assert vp_at(sympy.sympify(text.replace("^", "**")), S.value) >= deg * S.logr
            assert R.image_point(S) == T

    @pytest.mark.parametrize("text,bk,L", CASES)
    def test_no_fiber_at_or_beyond_the_tower_distance(self, text, bk, L):
        R = RationalMap.parse(text, bk)
        for u in (R.degree * L, F(3)):
            T = BerkPoint.type_ii(bk.zero(), u)
            with pytest.raises(ExtensionBound, match=f"found multiplicity 0 of {R.degree}"):
                R.preimages(T)
            assert R.preimages(T, partial=True) == []

    @pytest.mark.parametrize(
        "poly,p,L,degrees,reached",
        [
            ([-7, 3, -3, 1], 3, F(5, 6), range(1, 13), (9, F(7, 9))),  # (z-1)^3 - 6
            ([-3, 0, 1], 2, F(1), range(1, 17), (8, F(7, 8))),  # z^2 - 3
        ],
    )
    def test_no_tower_point_at_the_tower_distance(self, poly, p, L, degrees, reached):
        # a digit search with integers only, independent of the library:
        # no point of Q_p(p^(1/D)) lies at distance L from a root, and the
        # descent's depths are reached (positive control)
        for D in degrees:
            assert tower_points_within(poly, L, p, D) == [], D
        D, depth = reached
        assert tower_points_within(poly, depth, p, D)

    # fiber-sweep's phantom items (criterion 06's corpus and its conjugates
    # by z -> -z over Q_3), and a fiber over Q_2 whose descent took 4 s
    PHANTOMS = [
        (B3, [0, 2], [-7, -9, -3, -3], 1, -2),
        (B3, [0, 2], [-7, 9, -3, 3], -1, -2),
        (B3, [7, -3, 3, 2], [-1, 0, -9, 7], 1, 3),
        (B3, [-7, -3, -3, 2], [-1, 0, -9, -7], -1, 3),
        (B2, [F(-3, 8)], [0, 0, F(-3, 8), 1], 14, 4),
    ]

    @pytest.mark.parametrize("bk,num,den,c,u", PHANTOMS)
    def test_phantom_fibers_are_extension_bound(self, bk, num, den, c, u):
        R = RationalMap.from_rationals(bk, num, den)
        T = BerkPoint.type_ii(bk.from_int(c), u)
        with pytest.raises(ExtensionBound, match="fiber is not fully representable"):
            R.preimages(T)
        for S, m in R.preimages(T, partial=True):
            assert R.image_point(S) == T
            assert m == R.local_degree(S)

    @staticmethod
    def tower_element(bk, rng, v, E):
        """A random point of Q_p(p^(1/E)) of valuation v."""
        x = bk.from_int(rng.randint(1, bk.p - 1)) * bk.uniformizer_pow(v)
        for _ in range(rng.randint(0, 3)):
            shift = F(rng.randint(1, 3 * E), E)
            x = x + bk.from_int(rng.randint(1, bk.p - 1)) * bk.uniformizer_pow(v + shift)
        return x

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_clusters_of_tower_roots_are_never_cut(self, bk):
        # P = prod (z - r) over tower points r: p roots m + s_j at one
        # distance from m (a cluster, as in a wild chain), and maybe one
        # more.  A fiber point of zeta(0, u) is a ball around a root of P, so
        # every such fiber is representable and must be found in full.
        rng = random.Random(7)
        for _ in range(60):
            E = rng.choice([1, 2, 3, 4, 6, 8, 9])
            m = self.tower_element(bk, rng, F(rng.randint(-2, 2), rng.choice([1, 2, 3])), E)
            d = F(rng.randint(0, 3 * E), E)
            zeros = [m + self.tower_element(bk, rng, d, E) for _ in range(bk.p)]
            zeros += [self.tower_element(bk, rng, F(rng.randint(-2, 1)), E)
                      for _ in range(rng.randint(0, 1))]
            P = [bk.one()]
            for r in zeros:
                P = polys.mul(P, [-r, bk.one()])
            R = RationalMap(P, [bk.one()])
            T = BerkPoint.type_ii(bk.zero(), F(rng.randint(-4, 4 * E * bk.p), E))
            fiber = R.preimages(T)
            assert sum(m for _, m in fiber) == R.degree
            for S, _ in fiber:
                assert R.image_point(S) == T

    @pytest.mark.parametrize(
        "bk,E,coeffs,u,fiber",
        [
            # z^2 + (2^(1/4) + 2^(5/8)) z + 2 - 2^(1/2)/2: condition (5)
            (B2, 8, [{0: 2, 4: F(-1, 2)}, {2: 1, 5: 1}, {0: 1}], F(1, 2), [(F(1, 4), 2)]),
            # z^3 + 6 z^2 + (18*3^(1/6) + 6*3^(2/3)) z + 54 - 24*3^(1/2): (3)
            (B3, 12, [{0: 54, 6: -24}, {2: 18, 8: 6}, {0: 6}, {0: 1}], F(5, 2), [(1, 1)] * 3),
        ],
    )
    def test_certificate_conditions_guard_chains_that_split(self, bk, E, coeffs, u, fiber):
        # Each polynomial starts like a wild chain, and the certificate
        # without the condition named cuts it (found by random search); but
        # it splits in Q_p(p^(1/E)), x = p^(1/E), so its fiber of zeta(0, u)
        # is representable and must be found.  Certificate of the roots,
        # independent of the descent, with sympy: at each approximate root
        # r, (1, v(P'(r))) is a vertex of the Newton polygon of P(r + y),
        # whose width-1 first segment then holds a root in Q_p(p^(1/E)) at
        # distance >= v(P(r)) - v(P'(r)) from r; these roots are distinct.
        sympy = pytest.importorskip("sympy")
        x, z = sympy.symbols("x z")
        P = [sum((bk.from_rational(F(r)) * bk.uniformizer_pow(F(j, E)) for j, r in c.items()),
                 bk.zero()) for c in coeffs]
        expr = sum(sum(F(r) * x**j for j, r in c.items()) * z**i for i, c in enumerate(coeffs))
        taylor = [sympy.diff(expr, z, k) / math.factorial(k) for k in range(len(P))]
        # a few digits suffice, and E = 12 roots to full precision take 14 s
        roots = [FieldElement(bk, r.terms, None) for r, _ in roots_with_mult(P, prec=8)]
        reach = []
        assert len(roots) == len(P) - 1
        for r in roots:
            v = [vp_at(g, r, E) for g in taylor]
            assert v[0] - v[1] > max((v[1] - v[k]) / (k - 1) for k in range(2, len(P)))
            reach.append(v[0] - v[1])
        for i, j in [(i, j) for i in range(len(roots)) for j in range(i)]:
            assert (roots[i] - roots[j]).valuation() < min(reach[i], reach[j])
        R = RationalMap(P, [bk.one()])
        got = R.preimages(BerkPoint.type_ii(bk.zero(), u))
        assert [(S.logr, m) for S, m in got] == fiber
        for S, _ in got:
            assert vp_at(expr, S.value, E) >= u
            assert R.image_point(S) == BerkPoint.type_ii(bk.zero(), u)

    @pytest.mark.parametrize(
        "bk,num,den,c,u,nodes",
        [(B2, [F(-3, 8)], [0, 0, F(-3, 8), 1], 14, 4, 8), (B2, [-3, 0, 1], [1], 0, 2, 2)],
    )
    def test_wild_chains_stop_early(self, monkeypatch, bk, num, den, c, u, nodes):
        # descent nodes, counted as the distinct centres (num, den) is
        # recentred at; a wild chain followed to the precision budget takes
        # 47 and 41 recentrings
        calls = []
        recentered = RationalMap._recentered
        monkeypatch.setattr(
            RationalMap, "_recentered", lambda R, a: calls.append(a) or recentered(R, a)
        )
        R = RationalMap.from_rationals(bk, num, den)
        with pytest.raises(ExtensionBound):
            R.preimages(BerkPoint.type_ii(bk.from_int(c), u))
        assert len(set(calls)) == nodes
