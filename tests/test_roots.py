"""Root-finder tests.  Oracle: build polynomials as explicit products of
linear factors with known roots, then ask the solver to recover them."""

import random
from fractions import Fraction as F

import pytest

from berkdyn import Backend, ExtensionBound, PADIC, EQUICHAR0, EQUICHARP
from berkdyn import polys
from berkdyn.roots import pth_root_element, roots_with_mult

B2 = Backend(PADIC, p=2)
B3 = Backend(PADIC, p=3)
B5 = Backend(PADIC, p=5)
BQ = Backend(EQUICHAR0)
BF2 = Backend(EQUICHARP, p=2)
BF3 = Backend(EQUICHARP, p=3)


def poly_from_roots(bk, root_mults, lead=1):
    P = polys.from_rationals(bk, [lead])
    for r, m in root_mults:
        lin = [(-r) if hasattr(r, "backend") else bk.from_rational(-r), bk.one()]
        if not hasattr(r, "backend"):
            lin[0] = bk.from_rational(-r)
        else:
            lin[0] = -r
        for _ in range(m):
            P = polys.mul(P, lin)
    return P


class TestExactRationalRoots:
    def test_simple(self):
        P = poly_from_roots(B3, [(1, 1), (2, 1), (F(1, 2), 1)])
        got = roots_with_mult(P)
        assert sorted((r.as_rational(), m) for r, m in got) == [
            (F(1, 2), 1),
            (F(1), 1),
            (F(2), 1),
        ]

    def test_multiplicities(self):
        P = poly_from_roots(B3, [(0, 2), (3, 3)])
        got = sorted((r.as_rational(), m) for r, m in roots_with_mult(P))
        assert got == [(F(0), 2), (F(3), 3)]

    @pytest.mark.parametrize("bk", [B2, B3, BQ])
    def test_random_products_100(self, bk):
        rng = random.Random(107)
        for _ in range(100):
            chosen = {}
            for _ in range(rng.randint(1, 3)):
                r = F(rng.randint(-6, 6), rng.randint(1, 4))
                chosen[r] = chosen.get(r, 0) + rng.randint(1, 2)
            P = poly_from_roots(bk, sorted(chosen.items()))
            got = roots_with_mult(P)
            assert sorted((r.as_rational(), m) for r, m in got) == sorted(
                chosen.items()
            )
            assert sum(m for _, m in got) == polys.degree(P)

    def test_scaled_leading_coefficient(self):
        P = poly_from_roots(B2, [(4, 1), (F(1, 4), 1)], lead=F(3, 5))
        got = sorted((r.as_rational(), m) for r, m in roots_with_mult(P))
        assert got == [(F(1, 4), 1), (F(4), 1)]


class TestTowerRoots:
    def test_sqrt_p(self):
        P = polys.from_rationals(B3, [-3, 0, 1])
        got = roots_with_mult(P)
        assert len(got) == 2
        for r, m in got:
            assert m == 1
            assert r.valuation() == F(1, 2)
            assert polys.evaluate(P, r).is_zero()

    def test_cube_root(self):
        P = polys.from_rationals(B2, [-2, 0, 0, 1])
        got = roots_with_mult(P, partial=True)
        # only the root with digits in the prime field is representable; the
        # other two need a cube root of unity
        assert any(r.valuation() == F(1, 3) for r, _ in got)
        for r, _ in got:
            assert polys.evaluate(P, r).is_zero()

    def test_mixed_tower_root(self):
        r = B5.one() + B5.uniformizer_pow(F(1, 2))
        P = polys.mul([-r, B5.one()], polys.from_rationals(B5, [-1, 1]))
        got = roots_with_mult(P)
        assert sorted(str(x) for x, _ in got) == sorted([str(r), str(B5.one())])


class TestApproximateRoots:
    def test_hensel_sqrt(self):
        # 2 is a square in the 7-adics
        P = polys.from_rationals(B7 := Backend(PADIC, p=7), [-2, 0, 1])
        got = roots_with_mult(P, prec=12)
        assert len(got) == 2
        for r, m in got:
            assert m == 1
            assert polys.evaluate(P, r).valuation_lower_bound() >= 12

    def test_series_sqrt(self):
        # sqrt(1 + t) as a power series
        c = -(BQ.one() + BQ.uniformizer_pow(1))
        P = [c, BQ.zero(), BQ.one()]
        got = roots_with_mult(P, prec=9)
        assert len(got) == 2
        for r, m in got:
            assert polys.evaluate(P, r).valuation_lower_bound() >= 9

    def test_close_roots_separate(self):
        # roots differ only at depth 5
        P = poly_from_roots(B2, [(1, 1), (1 + F(32), 1)])
        got = roots_with_mult(P, prec=10)
        assert sorted((r.as_rational(), m) for r, m in got) == [
            (F(1), 1),
            (F(33), 1),
        ]


class TestCharP:
    def test_inseparable_square(self):
        # z^2 - t = (z - t^(1/2))^2 in characteristic 2
        P = [-BF2.uniformizer_pow(1), BF2.zero(), BF2.one()]
        got = roots_with_mult(P)
        assert len(got) == 1
        r, m = got[0]
        assert m == 2 and r.valuation() == F(1, 2)

    def test_fourth_power(self):
        # z^4 + t^2 = (z^2 + t)^2 = (z + t^(1/2))^4 in characteristic 2
        P = [BF2.uniformizer_pow(2), BF2.zero(), BF2.zero(), BF2.zero(), BF2.one()]
        got = roots_with_mult(P)
        assert len(got) == 1
        r, m = got[0]
        assert m == 4 and r.valuation() == F(1, 2)
        assert polys.evaluate(P, r).is_zero()

    def test_residue_extension_roots(self):
        # z^2 + z + 1 splits over GF(4); constants from the extension residue
        # field are representable series coefficients
        P = [BF2.one(), BF2.one(), BF2.one()]
        got = roots_with_mult(P)
        assert len(got) == 2
        for r, m in got:
            assert m == 1
            assert polys.evaluate(P, r).is_zero()

    @pytest.mark.parametrize(
        "low,high",
        [
            ([4, 0, 0, 4, 1], [4, 6, 0, 0, 1]),
            ([6, 0, 0, 5, 1], [6, 2, 0, 0, 1]),
            ([2, 0, 0, 2, 1], [3, 2, 0, 0, 1]),
        ],
    )
    def test_squarefree_product_with_lossy_gcd(self, low, high):
        # Products of two irreducible quartics over F_7, one scaled to roots
        # of valuation -1, the other to +1.  gcd(P, P') loses a remainder
        # that is zero only to the precision budget and comes out linear.
        bk = Backend(EQUICHARP, p=7)
        P = [bk.one()]
        for f, s in [(low, -1), (high, 1)]:
            P = polys.mul(P, [bk.from_int(c) * bk.uniformizer_pow(s * (4 - i)) for i, c in enumerate(f)])
        got = roots_with_mult(P)
        assert [m for _, m in got] == [1] * 8
        assert sorted(r.valuation() for r, _ in got) == [-1] * 4 + [1] * 4
        for r, _ in got:
            assert r.is_exact and polys.evaluate(P, r).is_zero()

    def test_pth_root_element_squares_back(self):
        x = BF3.one() + BF3.from_int(2) * BF3.uniformizer_pow(F(5, 2))
        r = pth_root_element(x)
        assert r * r * r == x


class TestUnrepresentable:
    def test_sqrt_nonresidue(self):
        # 2 is not a square modulo 3
        P = polys.from_rationals(B3, [-2, 0, 1])
        with pytest.raises(ExtensionBound):
            roots_with_mult(P)

    def test_partial_split_keeps_good_roots(self):
        # (z - 1)(z^2 - 2) over the 3-adics: asking for all roots fails, and
        # that is reported rather than silently dropped
        P = polys.mul(
            polys.from_rationals(B3, [-1, 1]), polys.from_rationals(B3, [-2, 0, 1])
        )
        with pytest.raises(ExtensionBound):
            roots_with_mult(P)
