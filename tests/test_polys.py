"""Polynomial-layer tests: division, recentering, Newton polygons, and the
piecewise-linear Gauss-valuation solver, checked against brute-force oracles."""

import random
from fractions import Fraction as F

import pytest

from berkdyn import Backend, PADIC, EQUICHAR0, EQUICHARP, PrecisionExhausted
from berkdyn import polys
from berkdyn.fields import FieldElement

B2 = Backend(PADIC, p=2)
B3 = Backend(PADIC, p=3)
BQ = Backend(EQUICHAR0)
BF2 = Backend(EQUICHARP, p=2)


def random_poly(bk, rng, maxdeg=5):
    deg = rng.randint(0, maxdeg)
    coeffs = []
    for _ in range(deg + 1):
        if bk.kind == EQUICHARP:
            q = F(rng.randint(-20, 20))
        else:
            q = F(rng.randint(-20, 20), rng.randint(1, 10))
        coeffs.append(bk.from_rational(q))
    return polys.trim(coeffs)


def big_o(bk, prec):
    """The inexact zero O(pi^prec)."""
    return FieldElement(bk, {}, F(prec))


def synthetic_recenter(a, center):
    """P(center + h) by repeated synthetic division, with no shortcut."""
    work, out = list(a), []
    while work:
        rem, work = polys._synth_div(work, center)
        out.append(rem)
    return out + [center.backend.zero()] * (len(a) - len(out))


class TestSparseFastPaths:
    """The shortcuts for exact zeros against the general code and against
    plain Fraction arithmetic."""

    @pytest.mark.parametrize("bk", [B3, BQ, BF2])
    def test_recenter_at_exact_zero_is_synthetic_division(self, bk):
        rng = random.Random(61)
        for _ in range(100):
            a = random_poly(bk, rng)
            # some coefficients known only to finite precision, some zero
            a = [
                c + big_o(bk, rng.randint(1, 6)) if rng.random() < 0.3
                else bk.zero() if rng.random() < 0.2 else c
                for c in a
            ]
            assert polys.recenter(a, bk.zero()) == synthetic_recenter(a, bk.zero())
            # an inexact zero is not a shortcut
            center = big_o(bk, rng.randint(1, 4))
            assert polys.recenter(a, center) == synthetic_recenter(a, center)

    @pytest.mark.parametrize("bk", [B3, BQ, BF2])
    def test_sparse_mul_is_the_dense_fraction_product(self, bk):
        rng = random.Random(67)
        # over F_p a denominator divisible by p has no reduction
        max_den = 1 if bk.kind == EQUICHARP else 4

        def sparse(n):
            return [F(rng.randint(-9, 9), rng.randint(1, max_den)) if rng.random() < 0.5
                    else F(0) for _ in range(n)]

        for _ in range(150):
            a, b = sparse(rng.randint(1, 7)), sparse(rng.randint(1, 7))
            dense = [F(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    dense[i + j] += x * y
            got = polys.mul(polys.from_rationals(bk, a), polys.from_rationals(bk, b))
            assert polys.trim(got) == polys.from_rationals(bk, dense)

    def test_exact_zero_times_inexact_adds_nothing(self):
        # the skipped products are exact zeros: the sum keeps every precision
        rng = random.Random(71)
        for _ in range(100):
            a = [B3.zero() if rng.random() < 0.4 else B3.from_int(rng.randint(-9, 9))
                 for _ in range(rng.randint(1, 5))]
            b = [B3.from_int(rng.randint(-9, 9)) + big_o(B3, rng.randint(1, 5))
                 for _ in range(rng.randint(1, 5))]
            a, b = polys.trim(a), polys.trim(b)
            if not a or not b:
                continue
            dense = [B3.zero()] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    dense[i + j] = dense[i + j] + x * y
            assert polys.mul(a, b) == dense


class TestRingOps:
    @pytest.mark.parametrize("bk", [B2, BQ, BF2])
    def test_divmod_identity_random(self, bk):
        rng = random.Random(41)
        for _ in range(100):
            a = random_poly(bk, rng)
            b = random_poly(bk, rng)
            if polys.degree(b) < 0:
                continue
            q, r = polys.divmod_poly(a, b)
            back = polys.add(polys.mul(q, b), r)
            assert polys.trim(polys.sub(back, a)) == []
            assert polys.degree(r) < polys.degree(b)

    @pytest.mark.parametrize("bk", [B2, B3, BQ])
    def test_recenter_evaluates_correctly(self, bk):
        rng = random.Random(43)
        for _ in range(100):
            a = random_poly(bk, rng)
            c = bk.from_rational(F(rng.randint(-9, 9), rng.randint(1, 5)))
            h = bk.from_rational(F(rng.randint(-9, 9), rng.randint(1, 5)))
            shifted = polys.recenter(a, c)
            assert polys.evaluate(shifted, h) == polys.evaluate(a, c + h)

    def test_gcd_of_square(self):
        a = polys.from_rationals(B2, [1, 1])  # 1 + z
        sq = polys.mul(a, a)
        g = polys.gcd_poly(sq, polys.derivative(sq))
        # gcd is the repeated factor, made monic
        assert polys.degree(g) == 1
        assert polys.evaluate(g, B2.from_int(-1)).is_zero()

    def test_compose(self):
        # (z^2)(z+1) = z^2 + 2z + 1
        inner = polys.from_rationals(B3, [1, 1])
        outer = polys.from_rationals(B3, [0, 0, 1])
        comp = polys.compose(outer, inner)
        assert [c.as_rational() for c in comp] == [1, 2, 1]


class TestNewtonPolygon:
    def test_known_example(self):
        # z^4 - z^2 + 2 over the 2-adics: slopes -1/2 (width 2) and 0 (width 2)
        P = polys.from_rationals(B2, [2, 0, -1, 0, 1])
        segs = polys.newton_polygon(P)
        assert [(s, w) for s, w, *_ in segs] == [(F(-1, 2), 2), (F(0), 2)]

    def test_split_linear_factors(self):
        # (z - 3)(z - 1)(z - 1/3) over the 3-adics: slopes -1, 0, 1
        a = polys.from_rationals(B3, [-3, 1])
        b = polys.from_rationals(B3, [-1, 1])
        c = polys.from_rationals(B3, [F(-1, 3), 1])
        P = polys.mul(polys.mul(a, b), c)
        segs = polys.newton_polygon(P)
        assert [(s, w) for s, w, *_ in segs] == [(F(-1), 1), (F(0), 1), (F(1), 1)]

    def test_widths_sum(self):
        rng = random.Random(47)
        for _ in range(100):
            P = random_poly(B2, rng, maxdeg=6)
            if polys.degree(P) < 1:
                continue
            ord0 = 0
            while ord0 < len(P) and P[ord0].is_zero_to_precision():
                ord0 += 1
            segs = polys.newton_polygon(P[ord0:])
            assert sum(w for _, w, *_ in segs) == polys.degree(P) - ord0


class TestGaussValuation:
    def test_is_min_affine(self):
        P = polys.from_rationals(B3, [3, 0, 1])
        assert polys.gauss_valuation(P, F(0)) == 0
        assert polys.gauss_valuation(P, F(1)) == 1
        assert polys.gauss_valuation(P, F(1, 2)) == 1

    @pytest.mark.parametrize("bk", [B2, B3, BQ])
    def test_multiplicative_200(self, bk):
        # Gauss's lemma: the sup-norm on a ball is multiplicative
        rng = random.Random(53)
        for _ in range(200):
            f = random_poly(bk, rng, maxdeg=4)
            g = random_poly(bk, rng, maxdeg=4)
            if not f or not g:
                continue
            t = F(rng.randint(-4, 8), rng.randint(1, 3))
            assert polys.gauss_valuation(polys.mul(f, g), t) == polys.gauss_valuation(
                f, t
            ) + polys.gauss_valuation(g, t)


    def test_unknown_coefficient_in_either_order(self):
        # O(3^5) bounds its term below by 5 + i*t: it decides nothing while
        # that bound is at least the minimum over the known coefficients
        one, unknown = B3.one(), big_o(B3, 5)
        for coeffs in ([unknown, one], [one, unknown]):
            assert polys.gauss_valuation(coeffs, F(0)) == 0
        assert polys.gauss_valuation([unknown, one], F(5)) == 5  # a tie is decided
        with pytest.raises(PrecisionExhausted):
            polys.gauss_valuation([unknown, one], F(6))  # 5 < 0 + 6
        with pytest.raises(PrecisionExhausted):
            polys.gauss_valuation([one, unknown], F(-6))  # 5 - 6 < 0


class TestSeminormRatioSolver:
    def test_linear_case(self):
        num = polys.from_rationals(B2, [0, 1])
        den = polys.from_rationals(B2, [1])
        assert polys.solve_seminorm_ratio(num, den, F(3, 2), 0, 5) == [(F(3, 2), 1)]

    def test_resubstitution_random(self):
        rng = random.Random(59)
        for _ in range(200):
            num = random_poly(B3, rng, maxdeg=4)
            den = random_poly(B3, rng, maxdeg=4)
            if not num or not den:
                continue
            lo, hi = F(-3), F(6)
            target = F(rng.randint(-8, 8), rng.randint(1, 2))
            sols = polys.solve_seminorm_ratio(num, den, target, lo, hi)
            for t, _slope in sols:
                assert lo <= t <= hi
                got = polys.gauss_valuation(num, t) - polys.gauss_valuation(den, t)
                assert got == target

    def test_no_missed_solutions_on_grid(self):
        rng = random.Random(61)
        for _ in range(50):
            num = random_poly(B2, rng, maxdeg=3)
            den = random_poly(B2, rng, maxdeg=3)
            if not num or not den:
                continue
            lo, hi = F(0), F(4)
            target = F(rng.randint(-6, 6))
            sols = {t for t, _slope in polys.solve_seminorm_ratio(num, den, target, lo, hi)}
            # scan a fine grid: every exact hit must be reported
            for k in range(0, 49):
                t = lo + (hi - lo) * F(k, 48)
                diff = polys.gauss_valuation(num, t) - polys.gauss_valuation(den, t)
                if diff == target:
                    ordered = sorted(sols)
                    bracketed = any(
                        s1 <= t <= s2 for s1, s2 in zip(ordered, ordered[1:])
                    )
                    assert t in sols or bracketed

    EPS = F(1, 10**6)  # far below the gaps between the small rationals here

    @staticmethod
    def psi(num, den, t):
        return polys.gauss_valuation(num, t) - polys.gauss_valuation(den, t)

    def one_sided_slopes(self, f, t):
        return (f(t) - f(t - self.EPS)) / self.EPS, (f(t + self.EPS) - f(t)) / self.EPS

    def test_slope_is_psi_prime_inside_a_piece_and_none_at_a_break(self):
        rng = random.Random(67)
        lo, hi = F(-3), F(6)
        seen = {"slope": 0, "none": 0}
        for _ in range(300):
            num = random_poly(B3, rng, maxdeg=4)
            den = random_poly(B3, rng, maxdeg=4)
            if not num or not den:
                continue
            psi = lambda t: self.psi(num, den, t)  # noqa: E731
            if rng.random() < 0.5:
                target = F(rng.randint(-8, 8), rng.randint(1, 2))
            else:  # a value psi takes at an integer, often a breakpoint
                target = psi(F(rng.randint(-3, 6)))
            for t, slope in polys.solve_seminorm_ratio(num, den, target, lo, hi):
                assert psi(t) == target
                left, right = self.one_sided_slopes(psi, t)
                if slope is not None:
                    seen["slope"] += 1
                    assert left == right == slope != 0
                    continue
                seen["none"] += 1
                # an endpoint, or a kink of one of the two seminorms
                kinks = [
                    len(set(self.one_sided_slopes(lambda s: polys.gauss_valuation(P, s), t))) == 2
                    for P in (num, den)
                ]
                assert t in (lo, hi) or any(kinks)
        assert seen["slope"] > 50 and seen["none"] > 50

    @staticmethod
    def pairwise_solutions(num, den, target, lo, hi):
        """The solver before the hull breakpoints: every pairwise
        intersection of the coefficient lines is a breakpoint."""

        def line_breaks(coeffs):
            lines = [
                (c.valuation(), i) for i, c in enumerate(coeffs) if not c.is_zero_to_precision()
            ]
            breaks = {F(lo), F(hi)}
            for a1, m1 in lines:
                for a2, m2 in lines:
                    if m1 < m2 and lo < F(a1 - a2, m2 - m1) < hi:
                        breaks.add(F(a1 - a2, m2 - m1))
            return breaks

        num, den = polys.trim(num), polys.trim(den)
        if not num or not den:
            return []
        breaks = sorted(line_breaks(num) | line_breaks(den))
        psi = lambda t: polys.gauss_valuation(num, t) - polys.gauss_valuation(den, t)  # noqa: E731
        sols = []
        for t0, t1 in zip(breaks, breaks[1:]):
            y0, y1 = psi(t0), psi(t1)
            if y0 == y1:
                if y0 == target:
                    sols.extend([t0, t1])
            elif min(y0, y1) <= target <= max(y0, y1):
                sols.append(t0 + (t1 - t0) * F(target - y0, y1 - y0))
        if len(breaks) == 1 and psi(breaks[0]) == target:
            sols.append(breaks[0])
        return sorted(set(sols))

    def test_inexact_coefficients_match_the_pairwise_solver(self):
        # the pairwise grid also lists points inside pieces where psi is the
        # constant target; the hull solver lists only the breakpoints there
        rng = random.Random(71)
        lo, hi = F(-3), F(6)

        def inexact_poly():
            out = []
            for c in random_poly(B3, rng, maxdeg=4):
                kind = rng.random()
                if kind < 0.1:
                    c = big_o(B3, rng.randint(-2, 6))
                elif kind < 0.3:
                    c = c + big_o(B3, rng.randint(-2, 6))
                out.append(c)
            return out

        outcomes = {"raised": 0, "solved": 0}
        for _ in range(300):
            num, den = inexact_poly(), inexact_poly()
            target = F(rng.randint(-8, 8), rng.randint(1, 2))
            try:
                old = self.pairwise_solutions(num, den, target, lo, hi)
            except PrecisionExhausted as exc:
                with pytest.raises(PrecisionExhausted, match=str(exc)):
                    polys.solve_seminorm_ratio(num, den, target, lo, hi)
                outcomes["raised"] += 1
                continue
            new = polys.solve_seminorm_ratio(num, den, target, lo, hi)
            psi = lambda t: self.psi(num, den, t)  # noqa: E731
            inside_flat = {
                t for t in old if lo < t < hi and psi(t - self.EPS) == target == psi(t + self.EPS)
            }
            ts = [t for t, _ in new]
            assert ts == sorted(ts) and set(ts) <= set(old)
            assert set(old) - set(ts) <= inside_flat
            outcomes["solved"] += bool(new)
        assert outcomes["raised"] > 30 and outcomes["solved"] > 30
