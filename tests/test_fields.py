"""Valued-field backend tests: worked examples plus randomized invariants.

The valuation oracle for rationals is independent brute force (factor
numerator/denominator); randomized properties use a fixed seed so failures
are reproducible.
"""

import math
import random
from fractions import Fraction as F

import pytest

from berkdyn import (
    Backend,
    ExtensionBound,
    INF,
    NegativeValuation,
    PADIC,
    PrecisionExhausted,
    EQUICHAR0,
    EQUICHARP,
    parse_backend,
    residue_roots,
)
from berkdyn import fields as fl
from berkdyn import residue as rs


def brute_valuation(q: F, p: int):
    """Oracle: count factors of p in numerator minus denominator."""
    if q == 0:
        return INF
    v = 0
    n = abs(q.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


B2 = Backend(PADIC, p=2)
B3 = Backend(PADIC, p=3)
B5 = Backend(PADIC, p=5)
BQ = Backend(EQUICHAR0)
BF2 = Backend(EQUICHARP, p=2)
BF3 = Backend(EQUICHARP, p=3)


def random_element(bk, rng, exact_rational=False):
    if bk.kind == PADIC or exact_rational:
        num = rng.randint(-50, 50)
        den = rng.randint(1, 50)
        shift = rng.randint(-3, 3)
        q = F(num, den) * F(bk.p if bk.kind == PADIC else 1) ** shift if bk.kind == PADIC else F(num, den)
        x = bk.from_rational(q)
        if bk.kind == PADIC and rng.random() < 0.3:
            x = x * bk.uniformizer_pow(F(rng.randint(0, 3), rng.choice([1, 2, 3])))
        return x
    # series backends: a few random terms
    x = bk.zero()
    for _ in range(rng.randint(1, 4)):
        q = F(rng.randint(-6, 8), rng.choice([1, 1, 2, 3]))
        c = rng.randint(-6, 6)
        x = x + bk.from_rational(c) * bk.uniformizer_pow(q)
    return x


class TestValuation:
    def test_padic_square(self):
        assert B3.from_int(9).valuation() == 2

    def test_zero(self):
        for bk in (B3, BQ, BF2):
            assert bk.zero().valuation() == INF

    def test_rational_oracle_example(self):
        q = F(3, 4)
        assert B2.from_rational(q).valuation() == brute_valuation(q, 2) == -2

    def test_rational_oracle_random(self):
        rng = random.Random(7)
        for _ in range(300):
            q = F(rng.randint(-500, 500), rng.randint(1, 500))
            for bk in (B2, B3, B5):
                assert bk.from_rational(q).valuation() == brute_valuation(q, bk.p)

    @pytest.mark.parametrize("bk", [B2, B3, BQ, BF2, BF3])
    def test_multiplicativity_1000(self, bk):
        rng = random.Random(11)
        for _ in range(1000):
            x = random_element(bk, rng)
            y = random_element(bk, rng)
            vx, vy = x.valuation(), y.valuation()
            if vx == INF or vy == INF:
                assert (x * y).valuation() == INF
            else:
                assert (x * y).valuation() == vx + vy

    @pytest.mark.parametrize("bk", [B2, B3, BQ, BF2, BF3])
    def test_ultrametric_distinct_1000(self, bk):
        rng = random.Random(13)
        done = 0
        while done < 1000:
            x = random_element(bk, rng)
            y = random_element(bk, rng)
            vx, vy = x.valuation(), y.valuation()
            if vx == vy:
                continue
            assert (x + y).valuation() == min(vx, vy)
            done += 1

    def test_lower_bound_equals_valuation_as_fraction(self):
        # expected values: exponent of p in the leading coefficient plus the
        # offset of its tower slot
        mixed = (
            B3.from_int(27) * B3.uniformizer_pow(F(1, 3))
            + B3.from_rational(F(1, 9)) * B3.uniformizer_pow(F(1, 2))
            + B3.from_int(3)
        )
        carry = B3.uniformizer_pow(F(2, 3)) * B3.uniformizer_pow(F(2, 3))
        inexact = fl.FieldElement(B3, {(0, 1): F(2, 9), (1, 2): F(1)}, F(5))
        cases = [
            (B3.from_int(3), F(1)),
            (mixed, -2 + F(1, 2)),
            (carry, F(2, 3) + F(2, 3)),
            (inexact, F(-2)),
        ]
        for x, expected in cases:
            lower = x.valuation_lower_bound()
            assert type(lower) is F and lower == expected
            v = x.valuation()
            assert type(v) is F and v == expected
            assert x.valuation_lower_bound() == expected
        assert carry.terms == {(1, 3): F(3)}

    def test_zero_to_precision_lower_bound_is_prec(self):
        x = fl.FieldElement(B3, {(0, 1): F(1)}, F(7, 2))
        z = x - x
        assert z.is_zero_to_precision()
        assert z.valuation_lower_bound() == F(7, 2)
        assert type(z.valuation_lower_bound()) is F
        with pytest.raises(PrecisionExhausted):
            z.valuation()


class TestArithmetic:
    def test_inverse_pair(self):
        assert (B5.from_rational(F(1, 5)) * B5.from_int(5)).as_rational() == 1

    def test_series_cancellation(self):
        x = BQ.one() + BQ.uniformizer_pow(1) + BQ.from_int(-1)
        assert x.valuation() == 1

    def test_integer_addition(self):
        s = B2.from_int(2) + B2.from_int(4)
        assert s.as_rational() == 6
        assert s.valuation() == 1

    def test_division_by_zero(self):
        from berkdyn import DivisionByZero

        with pytest.raises(DivisionByZero):
            B2.one() / B2.zero()

    def test_incompatible_backends(self):
        from berkdyn import IncompatibleBackends

        with pytest.raises(IncompatibleBackends):
            B2.one() + B3.one()

    def test_precision_budget_distinguishes_backends(self):
        # arithmetic truncates at each backend's own budget, so elements and
        # points of backends that differ only in precision must not mix
        from berkdyn import IncompatibleBackends
        from berkdyn.berkovich import BerkPoint

        low, high = Backend(PADIC, p=3, precision=5), Backend(PADIC, p=3, precision=40)
        assert low != high and Backend(PADIC, p=3, precision=5) == low
        x, y = low.from_int(2), high.from_int(2)
        assert x != y
        assert BerkPoint.type_i(x) != BerkPoint.type_i(y)
        assert BerkPoint.type_ii(x, 1) != BerkPoint.type_ii(y, 1)
        assert BerkPoint.infinity(low) != BerkPoint.infinity(high)
        with pytest.raises(IncompatibleBackends):
            x + y

    def test_series_compare_by_value_across_coefficient_fields(self):
        # 2 + g*t in F_9((t)) minus g*t leaves 2 stored in F_9; it is F_3's 2
        from berkdyn.berkovich import BerkPoint

        g = rs.ResidueField(3, 2).generator()
        gt = BF3.from_term(1, g)
        two, wide = BF3.from_int(2), (BF3.from_int(2) + gt) - gt
        assert fl._cfield(wide).k == 2 and fl._cfield(two).k == 1
        assert wide == two and hash(wide) == hash(two)
        assert wide != BF3.one() and gt != BF3.uniformizer_pow(1)
        assert len({two, wide, BF3.one()}) == 2
        assert BerkPoint.type_ii(wide, F(2, 3)) == BerkPoint.type_ii(two, F(2, 3))
        assert BerkPoint.type_i(wide) == BerkPoint.type_i(two)
        # F_9 and F_27 have no common field within k_max; F_3 is in both
        g3 = rs.ResidueField(3, 3).generator()
        g3t = BF3.from_term(1, g3)
        assert (BF3.from_int(2) + g3t) - g3t == wide
        assert gt != g3t

    @pytest.mark.parametrize("bk", [B2, B3, BQ, BF2, BF3])
    def test_cached_hash_is_the_hash_of_a_fresh_equal_element(self, bk):
        # the first hash is kept; it must equal the hash that an equal
        # element built afresh (or by other arithmetic) computes
        from berkdyn.berkovich import BerkPoint

        rng = random.Random(23)
        for _ in range(50):
            x, y = random_element(bk, rng), random_element(bk, rng)
            h = hash(x)
            assert hash(x) == h
            fresh = fl.FieldElement(bk, dict(x.terms), x.prec)
            other = (x + y) - y
            assert fresh == x == other
            assert hash(fresh) == h == hash(other)
            inexact = fl.FieldElement(bk, dict(x.terms), F(9))
            assert hash(inexact) == hash(fl.FieldElement(bk, dict(inexact.terms), F(9)))
            S = BerkPoint.type_ii(x, F(rng.randint(-2, 4)))
            hS = hash(S)
            assert hash(S) == hS == hash(BerkPoint.type_ii(fresh, S.logr))
            assert hash(BerkPoint.type_i(x)) == hash(BerkPoint.type_i(other))

    def test_cached_hash_across_coefficient_fields(self):
        # laurentfp: F_3's 2 and F_9's embedded 2 are equal; whichever is
        # hashed first, a cached hash matches the other's fresh hash
        from berkdyn.berkovich import BerkPoint

        g = rs.ResidueField(3, 2).generator()
        gt = BF3.from_term(1, g)
        wide = (BF3.from_int(2) + gt) - gt
        h = hash(wide)
        assert hash(wide) == h == hash(BF3.from_int(2))
        two = BF3.from_int(2)
        h = hash(two)
        assert hash(two) == h == hash((BF3.from_int(2) + gt) - gt)
        S = BerkPoint.type_ii(wide, F(2, 3))
        hS = hash(S)
        assert hash(S) == hS == hash(BerkPoint.type_ii(BF3.from_int(2), F(2, 3)))

    @pytest.mark.parametrize("bk", [B2, B3, BQ, BF2, BF3])
    def test_field_axioms_random(self, bk):
        rng = random.Random(17)
        for _ in range(100):
            x = random_element(bk, rng)
            y = random_element(bk, rng)
            z = random_element(bk, rng)
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == bk.zero()
            try:
                if not y.is_zero():
                    q = x / y
                    if q.is_exact:
                        assert q * y == x
                    else:
                        err = q * y - x
                        assert err.valuation_lower_bound() >= q.prec + y.valuation()
            except fl.PrecisionExhausted:
                pass

    def test_padic_tower_inverse(self):
        x = B3.one() + B3.uniformizer_pow(F(1, 2))
        assert (x * x.inverse()) == B3.one()
        y = B2.uniformizer_pow(F(3, 4)) + B2.from_int(5)
        assert (y * y.inverse()) == B2.one()

    @pytest.mark.parametrize("bk", [B2, B3])
    @pytest.mark.parametrize("e", [9, 47])
    def test_padic_newton_inverse_claims_no_more_than_it_has(self, bk, e):
        # e > 8 takes the Newton path; for e = 47 the 40-term cap cuts the
        # inverse at 40/47, and its precision must say so
        x = bk.one() + bk.uniformizer_pow(F(1, e))
        y = x.inverse()
        assert not y.is_exact
        assert (x * y - bk.one()).valuation_lower_bound() >= y.prec

    @pytest.mark.parametrize("bk", [BQ, BF3])
    def test_series_binomial_inverse_closed_form(self, bk):
        # 1/(c0 t^a + c1 t^(a+b)) = sum_k (-c1)^k / c0^(k+1) t^(kb-a) for
        # kb < 40: at most 40 terms, so known to the whole budget
        rng = random.Random(19)
        for _ in range(30):
            a = F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            b = rng.randint(1, 9)
            c0, c1 = rng.choice([1, 2]), rng.choice([-1, 1, 2])
            x = bk.from_rational(c0) * bk.uniformizer_pow(a) + bk.from_rational(c1) * bk.uniformizer_pow(a + b)
            want = bk.zero()
            for k in range(0, (bk.precision - 1) // b + 1):
                want = want + bk.from_rational(F((-c1) ** k, c0 ** (k + 1))) * bk.uniformizer_pow(k * b - a)
            y = x.inverse()
            assert y.prec == bk.precision - a
            assert y == fl.FieldElement(bk, want.terms, y.prec)


class TestReduce:
    def test_examples(self):
        assert B3.from_int(7).reduce() == B3.residue_field().from_int(1)
        assert B3.from_int(3).reduce().is_zero()
        x = BQ.from_int(2) + BQ.from_int(5) * BQ.uniformizer_pow(1)
        assert x.reduce().value == F(2)

    def test_negative_valuation(self):
        with pytest.raises(NegativeValuation):
            B3.from_rational(F(1, 3)).reduce()

    @pytest.mark.parametrize("bk", [B2, B3, BQ, BF3])
    def test_homomorphism_500(self, bk):
        rng = random.Random(23)
        done = 0
        while done < 500:
            x = random_element(bk, rng)
            y = random_element(bk, rng)
            if x.valuation() < 0 or y.valuation() < 0:
                continue
            assert (x + y).reduce() == x.reduce() + y.reduce()
            assert (x * y).reduce() == x.reduce() * y.reduce()
            done += 1


class TestUniformizerPow:
    def test_integer_power(self):
        assert B2.uniformizer_pow(1).as_rational() == 2

    def test_series_fractional(self):
        x = BQ.uniformizer_pow(F(3, 2))
        assert x.valuation() == F(3, 2)

    def test_formal_square_root(self):
        x = B3.uniformizer_pow(F(1, 2))
        assert x.valuation() == F(1, 2)
        assert (x * x).as_rational() == 3

    def test_multiplicative_random(self):
        rng = random.Random(29)
        for bk in (B2, BQ, BF2):
            for _ in range(50):
                q1 = F(rng.randint(-8, 8), rng.randint(1, 4))
                q2 = F(rng.randint(-8, 8), rng.randint(1, 4))
                assert bk.uniformizer_pow(q1) * bk.uniformizer_pow(q2) == bk.uniformizer_pow(q1 + q2)


class TestTermKeys:
    """Every backend keys its terms by reduced pairs (i, e) for pi^(i/e)."""

    @pytest.mark.parametrize("bk", [BQ, BF3], ids=["laurentq", "laurentfp3"])
    def test_series_keys_reduced(self, bk):
        from berkdyn.roots import pth_root_element

        t = bk.uniformizer_pow(1)
        half = bk.uniformizer_pow(F(1, 2))
        assert half * half == t
        assert hash(half * half) == hash(t)
        assert bk.uniformizer_pow(F(1, 3)) * bk.uniformizer_pow(F(2, 3)) == t
        if bk.kind == EQUICHARP:
            assert pth_root_element(half) == bk.uniformizer_pow(F(1, 6))
            assert pth_root_element(bk.uniformizer_pow(3)) == t

    @pytest.mark.parametrize("bk", [B3, BQ, BF3], ids=["padic3", "laurentq", "laurentfp3"])
    def test_literal_roundtrip_negative_fractional_exponent(self, bk):
        x = bk.from_int(2) * bk.uniformizer_pow(F(-2, 3)) + bk.one() + bk.uniformizer_pow(F(5, 2))
        assert x.valuation() == F(-2, 3)
        assert bk.parse_literal(x.literal()) == x


class TestResidueRoots:
    def test_f3_squares(self):
        rf = B3.residue_field()
        roots = residue_roots([rf.from_int(-1), rf.zero(), rf.one()])
        values = sorted(r.value[0] for r, _ in roots)
        assert values == [1, 2]
        assert all(m == 1 for _, m in roots)

    def test_f2_needs_f4(self):
        rf = rs.ResidueField(2, 1)
        roots = residue_roots([rf.one(), rf.one(), rf.one()])
        assert len(roots) == 2
        assert all(m == 1 for _, m in roots)
        assert all(r.field.k == 2 for r, _ in roots)

    def test_rational_roots_at_zero(self):
        # x^2 (x - 1)(2x + 3): the roots at 0 are split off first
        sympy = pytest.importorskip("sympy")
        rf = rs.ResidueField(0)
        x = sympy.symbols("x")
        expr = x**2 * (x - 1) * (2 * x + 3)
        coeffs = [rf.from_fraction(F(int(c))) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
        got = {r.value: m for r, m in residue_roots(coeffs)}
        assert got == {F(str(r)): m for r, m in sympy.roots(expr, x).items()}

    def test_rational_no_sqrt2(self):
        rf = rs.ResidueField(0)
        with pytest.raises(ExtensionBound):
            residue_roots([rf.from_int(-2), rf.zero(), rf.one()])

    def test_resubstitution_random(self):
        rng = random.Random(31)
        for p in (2, 3):
            rf = rs.ResidueField(p, 1)
            for _ in range(50):
                deg = rng.randint(1, 4)
                coeffs = [rf.from_int(rng.randint(0, p - 1)) for _ in range(deg)]
                coeffs.append(rf.one())
                try:
                    roots = residue_roots(coeffs)
                except ExtensionBound:
                    continue
                for root, mult in roots:
                    big = root.field
                    emb = [rs.embed_element(c, big) for c in coeffs]
                    assert rs.rpoly_eval(emb, root).is_zero()
                    assert mult >= 1
                assert sum(m for _, m in roots) <= deg


class TestBackendSpec:
    def test_parse_roundtrip(self):
        bk = parse_backend("padic:p=3,prec=40")
        assert bk.kind == PADIC and bk.p == 3 and bk.precision == 40
        bk = parse_backend("laurentq:prec=10")
        assert bk.kind == EQUICHAR0 and bk.precision == 10
        bk = parse_backend("laurentfp:p=2,k=1,prec=40")
        assert bk.kind == EQUICHARP and bk.p == 2 and bk.k == 1

    @pytest.mark.parametrize(
        "spec",
        ["padic:p=3,k=2", "padic:p=3,pre=10", "laurentq:p=3", "laurentq:k=2", "laurentfp:p=2,q=4"],
    )
    def test_rejects_keys_the_backend_does_not_take(self, spec):
        with pytest.raises(ValueError, match="takes no key"):
            parse_backend(spec)

    @pytest.mark.parametrize(
        "kind,p,k",
        [(EQUICHAR0, 3, 1), (EQUICHAR0, None, 2), (PADIC, 3, 2), (EQUICHARP, 3, 0)],
    )
    def test_backend_checks_its_own_arguments(self, kind, p, k):
        with pytest.raises(ValueError):
            Backend(kind, p=p, k=k)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend spec"):
            parse_backend("weird:p=3")

    def test_literals(self):
        x = B3.parse_literal("3/4")
        assert x.as_rational() == F(3, 4)
        y = BQ.parse_literal("[(0,2),(3/2,1)]")
        assert y == BQ.from_int(2) + BQ.uniformizer_pow(F(3, 2))
        assert BQ.parse_literal(y.literal()) == y

    def test_truncate_below_is_canonical(self):
        rng = random.Random(37)
        for bk in (B2, B3):
            for _ in range(100):
                x = random_element(bk, rng)
                v = F(rng.randint(-4, 6), rng.choice([1, 2, 3]))
                t = x.truncate_below(v)
                diff = x - t
                assert diff.valuation_lower_bound() >= v
                # truncating twice changes nothing
                assert t.truncate_below(v) == t
                # each slot holds p-adic digits 0..p-1 below v - i/e only
                for (i, e), c in t.terms.items():
                    assert 0 < c < F(bk.p) ** math.ceil(v - F(i, e))
                    assert c.denominator == bk.p ** -min(brute_valuation(c, bk.p), 0)


class TestPadicAgainstSympy:
    """p-adic tower arithmetic checked in Q[x]/(x^E - p) with sympy, where
    x stands for p^(1/E) and E is the lcm of the operands' key denominators.
    An element's value there is the sum of c * x^(i*E/e), its valuation the
    least v_p(coefficient of x^j) + j/E (x^E - p is Eisenstein)."""

    @staticmethod
    def draw(rng, bk):
        """An exact element as (q, c) pairs: exponents of either sign with
        denominator 1-8, coefficients whose denominators may hold p."""
        e = rng.choice([1, 2, 3, 4, 6, 8])
        return [
            (F(rng.randint(-2 * e, 3 * e), e),
             F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.choice([1, 2, 5, bk.p, bk.p ** 2, 3 * bk.p])))
            for _ in range(rng.randint(1, 5))
        ]

    @staticmethod
    def to_sympy(x, E, p):
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        expr = sum(sympy.Rational(c.numerator, c.denominator) * X ** (i * (E // e))
                   for (i, e), c in x.terms.items())
        return sympy.rem(sympy.Poly(expr, X, domain="QQ"), sympy.Poly(X ** E - p, X, domain="QQ"))

    @staticmethod
    def sympy_valuation(poly, E, p):
        sympy = pytest.importorskip("sympy")
        vals = [F(sympy.multiplicity(p, abs(c.p))) - sympy.multiplicity(p, c.q) + F(j, E)
                for (j,), c in poly.terms() if c]
        return min(vals) if vals else INF

    @pytest.mark.parametrize("bk", [B2, B3, Backend(PADIC, p=101)], ids=["p2", "p3", "p101"])
    def test_arithmetic_matches_the_quotient_ring(self, bk):
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        rng = random.Random(41)
        p = bk.p
        for _ in range(40):
            xs, ys = self.draw(rng, bk), self.draw(rng, bk)
            x = sum((bk.from_term(q, c) for q, c in xs), bk.zero())
            y = sum((bk.from_term(q, c) for q, c in ys), bk.zero())
            E = math.lcm(*(q.denominator for q, _ in xs + ys))
            mod = sympy.Poly(X ** E - p, X, domain="QQ")
            sx, sy = self.to_sympy(x, E, p), self.to_sympy(y, E, p)
            assert x.valuation() == self.sympy_valuation(sx, E, p)
            assert (x * y).is_exact and (x + y).is_exact
            assert self.to_sympy(x * y, E, p) == sympy.rem(sx * sy, mod)
            assert self.to_sympy(x + y, E, p) == sx + sy
            assert self.to_sympy(x - y, E, p) == sx - sy
            if x.is_zero_to_precision():
                continue
            inv = x.inverse()
            # one term, or e <= 8 and exact: the inverse is exact
            assert inv.is_exact
            assert self.to_sympy(inv, E, p) == sympy.invert(sx, mod)

    @pytest.mark.parametrize("bk", [B2, B3, Backend(PADIC, p=101)], ids=["p2", "p3", "p101"])
    def test_one_value_built_four_ways(self, bk):
        rng = random.Random(43)
        for _ in range(40):
            pairs = self.draw(rng, bk)
            by_term = sum((bk.from_term(q, c) for q, c in pairs), bk.zero())
            literal = bk.parse_literal("[" + ",".join(f"({q},{c})" for q, c in pairs) + "]")
            u = bk.from_term(F(rng.randint(-3, 3), rng.choice([1, 2, 3])), F(rng.randint(1, 9), rng.randint(1, 9)))
            by_arith = (by_term * u + u) * u.inverse() - bk.one()
            by_dict = fl.FieldElement(bk, dict(by_term.terms), None)
            values = [by_term, literal, by_arith, by_dict]
            assert all(v == by_term for v in values)
            assert len({hash(v) for v in values}) == 1
            assert len({v._key() for v in values}) == 1
