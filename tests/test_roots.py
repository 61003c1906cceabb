"""Root-finder tests.  Oracle: build polynomials as explicit products of
linear factors with known roots, then ask the solver to recover them."""

import math
import random
from fractions import Fraction as F

import pytest
import sympy

from berkdyn import Backend, ExtensionBound, PADIC, PrecisionExhausted, EQUICHAR0, EQUICHARP
from berkdyn import polys
from berkdyn import roots as rt
from berkdyn import residue as rs
from berkdyn.fields import FieldElement
from berkdyn.berkovich import BerkPoint
from berkdyn.ratmap import RationalMap
from berkdyn.roots import ball_residue_poly, pth_root_element, roots_with_mult

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


# -- oracle on random inputs ---------------------------------------------------
# Roots are checked in Q(w), w = p^(1/E), with w^E = p: an element is the list
# of its Fraction coefficients of 1, w, ..., w^(E-1).  No FieldElement
# arithmetic is involved.


def vp(q, p):
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def tower_coeffs(x, E):
    out = [F(0)] * E
    for (i, e), c in x.terms.items():
        out[i * (E // e)] += c
    return out


def tower_mul(a, b, p):
    E = len(a)
    out = [F(0)] * E
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                k, c = i + j, x * y
                if k >= E:
                    k, c = k - E, c * p
                out[k] += c
    return out


def tower_val(a, p):
    """Valuation of sum a_i w^i: its terms have distinct valuations mod 1."""
    return min((vp(c, p) + F(i, len(a)) for i, c in enumerate(a) if c), default=math.inf)


def oracle_cases(rng, n_random=50, n_products=30):
    """(coefficients ascending, whether the polynomial must split)."""
    cases = []
    for _ in range(n_random):
        d = rng.randint(1, 4)
        lead = rng.choice([-1, 1]) * rng.randint(1, 30)
        cases.append(([F(rng.randint(-30, 30)) for _ in range(d)] + [F(lead)], False))
    for _ in range(n_products):
        coeffs = [F(rng.randint(1, 9))]
        for _ in range(rng.randint(2, 3)):
            # a root n/p^k with 0 <= n has a finite expansion
            den = rng.choice([1, 4, 9, 25, rng.randint(1, 10**12)])
            r = F(rng.randint(-10**12, 10**12), den)
            # multiply by (z - r)
            coeffs = [a - r * b for a, b in zip([F(0)] + coeffs, coeffs + [F(0)])]
        cases.append((coeffs, True))
    return cases


def quadratic_splits(coeffs, p):
    """Whether c + b z + a z^2 has its roots in the tower Q_p(p^(1/E)).  They
    are (-b +- sqrt(D)) / 2a with D = b^2 - 4ac, and the quadratic fields in
    the tower are Q_p(sqrt p) alone, so the roots are there iff D = 0 or D
    lies in Q_p*^2 or p Q_p*^2: iff the unit part of D is a square, a
    quadratic residue mod p, or 1 mod 8 for p = 2."""
    c, b, a = coeffs
    D = b * b - 4 * a * c
    if D == 0:
        return True
    u = D / F(p) ** vp(D, p)
    w = u.numerator * u.denominator  # in the square class of u
    return w % 8 == 1 if p == 2 else pow(w, (p - 1) // 2, p) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_roots_against_fraction_oracle(p):
    bk = Backend(PADIC, p=p)
    rng = random.Random(f"roots-oracle:{p}")
    outcomes = set()
    for coeffs, must_split in oracle_cases(rng):
        d = len(coeffs) - 1
        splits = must_split or (d == 2 and quadratic_splits(coeffs, p))
        try:
            got = roots_with_mult(polys.from_rationals(bk, coeffs))
        except ExtensionBound:
            assert not splits, coeffs
            outcomes.add((d, False))
            continue
        assert d != 2 or splits, coeffs
        outcomes.add((d, True))
        assert sum(m for _, m in got) == d
        E = 1
        for r, _ in got:
            for _, e in r.terms:
                E = math.lcm(E, e)
        flat = []
        for r, m in got:
            a = tower_coeffs(r, E)
            if r.is_exact:
                value = [F(0)] * E
                for c in reversed(coeffs):
                    value = tower_mul(value, a, p)
                    value[0] += c
                assert not any(value), (coeffs, r)
            flat += [(a, math.inf if r.is_exact else r.prec)] * m
        # Vieta: prod (z - r) against coeffs / lead, each coefficient to the
        # precision its products of roots carry
        prod = [[F(1)] + [F(0)] * (E - 1)]
        for a, _ in flat:
            shifted = [[F(0)] * E] + prod
            scaled = [tower_mul(c, a, p) for c in prod] + [[F(0)] * E]
            prod = [[x - y for x, y in zip(s, t)] for s, t in zip(shifted, scaled)]
        worst = min(prec for _, prec in flat)
        vals = sorted(tower_val(a, p) for a, _ in flat)
        for k in range(d):
            diff = list(prod[k])
            diff[0] -= coeffs[k] / coeffs[d]
            bound = worst + sum(vals[: d - k - 1])
            assert tower_val(diff, p) >= bound, (coeffs, k)
    # the closed form decided quadratics both ways
    assert {(2, True), (2, False)} <= outcomes


def test_nonsplit_quadratic_over_2adics_is_extension_bound():
    # discriminant 4 * 563 with 563 = 3 mod 8: the roots need sqrt(3), which
    # no Q_2(2^(1/e)) holds
    with pytest.raises(ExtensionBound):
        roots_with_mult(polys.from_rationals(B2, [-26, 30, 13]))


# -- the tower bound of squarefree_roots ---------------------------------------
# Roots whose exponent denominator E meets the bound E / gcd(E, e0) <= deg F
# are still found; branches past it hold no tower root.


def exact_roots(P, **kw):
    got = roots_with_mult(P, **kw)
    for r, m in got:
        assert m == 1 and r.is_exact and polys.evaluate(P, r).is_zero()
    return sorted(str(r) for r, _ in got)


class TestTowerBound:
    @pytest.mark.parametrize(
        "bk,coeffs,roots",
        [
            # the other roots need a cube root of unity, or i
            (B3, [-3, 0, 0, 1], [B3.uniformizer_pow(F(1, 3))]),
            (B2, [-2, 0, 0, 0, 1], [B2.uniformizer_pow(F(1, 4)), -B2.uniformizer_pow(F(1, 4))]),
        ],
    )
    def test_padic_roots_at_the_bound(self, bk, coeffs, roots):
        P = polys.from_rationals(bk, coeffs)
        assert exact_roots(P, partial=True) == sorted(str(r) for r in roots)

    def test_laurentq_root_at_the_bound(self):
        # z^3 - t: E = 3 = deg F
        P = [-BQ.uniformizer_pow(1), BQ.zero(), BQ.zero(), BQ.one()]
        assert exact_roots(P, partial=True) == [str(BQ.uniformizer_pow(F(1, 3)))]

    def test_coefficient_denominator_widens_the_bound(self):
        # z^2 - 3^(1/2): e0 = 2, so E = 4 stays within E / gcd(E, e0) <= 2
        P = [-B3.uniformizer_pow(F(1, 2)), B3.zero(), B3.one()]
        w = B3.uniformizer_pow(F(1, 4))
        assert exact_roots(P) == sorted([str(w), str(-w)])

    def test_branch_past_the_bound_is_extension_bound(self):
        # the roots +-i 2^(1/4) of z^4 - 2 lie outside every Q_2(2^(1/E))
        P = polys.from_rationals(B2, [-2, 0, 0, 0, 1])
        with pytest.raises(ExtensionBound, match=r"E=8 > n\*gcd\(E, e0\) with e0=1, n=4"):
            roots_with_mult(P)

    def test_off_for_laurentfp(self):
        # z^2 + z + 1/t over F_2((t)): the Artin-Schreier root
        # t^(-1/2) + t^(-1/4) + ... is chased until the term cap, unpruned
        P = [BF2.uniformizer_pow(-1), BF2.one(), BF2.one()]
        with pytest.raises(PrecisionExhausted):
            roots_with_mult(P)

    def test_off_for_inexact_coefficients(self):
        # z^2 + 1 with 1 known to 2^30: the branch toward i is not pruned, so
        # it runs out of digits as before (exact, it is pruned at E = 4)
        one = FieldElement(B2, {(0, 1): F(1)}, F(30))
        with pytest.raises(PrecisionExhausted, match="polygon ambiguous"):
            roots_with_mult([one, B2.zero(), B2.one()])
        with pytest.raises(ExtensionBound, match="E=4"):
            roots_with_mult(polys.from_rationals(B2, [1, 0, 1]))

    def test_inexact_quartic_keeps_its_tower_roots(self):
        # z^4 - (2 + O(2^30)): the descent reaches 2^(1/4) at a node of
        # residue multiplicity 4 (y^4 + 1 = (y + 1)^4 over F_2), whose
        # constant term is zero only to precision 30; that precision
        # isolates one root there.  Oracle: the closed form +-2^(1/4), by
        # exact evaluation of z^4 - 2 to each root's precision.
        two = FieldElement(B2, {(0, 1): F(2)}, F(30))
        P = [-two, B2.zero(), B2.zero(), B2.zero(), B2.one()]
        exact = polys.from_rationals(B2, [-2, 0, 0, 0, 1])
        s = B2.uniformizer_pow(F(1, 4))
        for prec in (None, 20, 10):
            got = roots_with_mult(P, prec=prec, partial=True)
            assert [m for _, m in got] == [1, 1]
            assert sorted((r - s).is_zero_to_precision() for r, _ in got) == [False, True]
            assert sorted((r + s).is_zero_to_precision() for r, _ in got) == [False, True]
            for r, _ in got:
                # 2 + O(2^30) fixes a root only to 30 - v(4 s^3) = 109/4;
                # the branch that ends in Newton steps keeps 77/4 of it
                assert min(prec or F(109, 4), F(77, 4)) <= r.prec <= F(109, 4)
                assert polys.evaluate(exact, r).valuation_lower_bound() >= r.prec

    def test_inexact_quartic_roots_reach_the_requested_precision(self):
        # 2 + O(2^30) fixes each root to 109/4 > 20, so both can be given
        # to the requested precision 20: a Newton iterate known to 20 is
        # truncated there and kept exact, so no step loses precision on it
        two = FieldElement(B2, {(0, 1): F(2)}, F(30))
        P = [-two, B2.zero(), B2.zero(), B2.zero(), B2.one()]
        got = roots_with_mult(P, prec=20, partial=True)
        assert len(got) == 2
        assert all(r.prec >= 20 for r, _ in got), [r.prec for r, _ in got]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known defect: an iterate known only below prec is never truncated, and "
        "its precision ledger decays through the Newton steps to 77/4",
    )
    @pytest.mark.parametrize("prec", [None, 40])
    def test_inexact_quartic_roots_keep_what_the_data_fixes(self, prec):
        # above 109/4 both roots can be given to the 109/4 that 2 + O(2^30)
        # fixes; the branch that ends in Newton steps returns -2^(1/4) at 77/4
        two = FieldElement(B2, {(0, 1): F(2)}, F(30))
        P = [-two, B2.zero(), B2.zero(), B2.zero(), B2.one()]
        got = roots_with_mult(P, prec=prec, partial=True)
        assert [r.prec for r, _ in got] == [F(109, 4)] * 2


class TestNewtonStart:
    """Newton refinement starts from the Taylor head that the descent node
    has already computed at the same centre."""

    def test_simple_root_divides_f_once_per_centre(self, monkeypatch):
        # z^2 - 2 over Q_7: the descent reaches each root's first digit z = 3
        # or 4 with c0 = 7 and c1 = 6 or 8, the Hensel condition, and refines
        # from there.  F and its quotient are divided by z - 3 once each.
        bk = Backend(PADIC, p=7)
        F = polys.from_rationals(bk, [-2, 0, 1])
        centres = []
        synth_div = polys._synth_div

        def counted(coeffs, a):
            centres.append(a)
            return synth_div(coeffs, a)

        monkeypatch.setattr(polys, "_synth_div", counted)
        got = roots_with_mult(F, prec=12)
        assert [m for _, m in got] == [1, 1]
        for r, _ in got:
            assert (r * r - bk.from_int(2)).valuation_lower_bound() >= 12
        for digit in (3, 4):
            assert sum(a == bk.from_int(digit) for a in centres) == 2


def pi_valuation(x, E):
    """Valuation in units of 1/E of sum x_j pi^j, pi^E = 2, x_j integers;
    None for 0.  Terms have distinct valuations mod E."""
    vals = []
    for j, c in enumerate(x):
        if c:
            vals.append(E * vp(F(c), 2) + j)
    return min(vals, default=None)


def minus_square(x, a, E):
    """x^2 - a in Z[pi] / (pi^E - 2), on integer coordinate lists."""
    out = [0] * E
    for i, s in enumerate(x):
        for j, t in enumerate(x):
            k = i + j
            out[k % E] += s * t * (2 if k >= E else 1)
    out[0] -= a
    return out


def square_root_digits_die(a, E, depth):
    """Search the 2-adic digits x = sum d_k pi^k, d_k in {0, 1}, of a square
    root of a in Z_2[pi], pi = 2^(1/E), level by level: x^2 mod pi^k depends
    only on x mod pi^j, j = max(ceil(k/2), k - E), so the prefixes of length j
    with x^2 = a mod pi^k are complete.  Returns whether no prefix survives
    to `depth`."""
    prefixes = [()]
    for k in range(1, depth + 1):
        j = max(-(-k // 2), k - E)
        grown = []
        for pre in prefixes:
            for n in range(2 ** (j - len(pre))):
                digits = pre + tuple((n >> b) & 1 for b in range(j - len(pre)))
                x = [0] * E
                for m, d in enumerate(digits):
                    x[m % E] += d * 2 ** (m // E)
                v = pi_valuation(minus_square(x, a, E), E)
                if v is None or v >= k:
                    grown.append(digits)
        prefixes = grown
        if not prefixes:
            return True
    return False


def test_sqrt_minus_one_outside_the_2adic_tower():
    # the root-of-unity step of the tower bound for p = 2, by digit search;
    # sqrt(-7) in Q_2 (and sqrt 2 = pi^(E/2)) are the positive controls
    for E in range(1, 17):
        assert square_root_digits_die(-1, E, 3 * E)
        assert not square_root_digits_die(-7, E, 3 * E)
        if E % 2 == 0:
            assert not square_root_digits_die(2, E, 3 * E)


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

    @pytest.mark.parametrize("partial", [False, True])
    def test_step_budget(self, monkeypatch, partial):
        # four roots congruent to 1 mod 3 take five descent nodes; the budget
        # is checked outside the per-node catch, so partial mode raises too
        P = poly_from_roots(B3, [(1, 1), (4, 1), (7, 1), (10, 1)])
        assert sorted(r.as_rational() for r, _ in roots_with_mult(P)) == [1, 4, 7, 10]
        monkeypatch.setattr(rt, "_MAX_DESCENT_STEPS", 4)
        with pytest.raises(PrecisionExhausted) as err:
            roots_with_mult(P, partial=partial)
        assert str(err.value) == "root descent exceeded its step budget"


BF7 = Backend(EQUICHARP, p=7)
# pairs of irreducible quartics over F_7
QUARTICS_F7 = [
    ([4, 0, 0, 4, 1], [4, 6, 0, 0, 1]),
    ([6, 0, 0, 5, 1], [6, 2, 0, 0, 1]),
    ([2, 0, 0, 2, 1], [3, 2, 0, 0, 1]),
]


def scaled_f7(f, s):
    """f(t^(-s) z) * t^(s deg f) over F_7((t)): the roots of f over F_7
    times t^s, as in root-descent's split family."""
    d = len(f) - 1
    return [BF7.from_int(c) * BF7.uniformizer_pow(s * (d - i)) for i, c in enumerate(f)]


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

    @pytest.mark.parametrize("low,high", QUARTICS_F7)
    def test_squarefree_product_with_lossy_gcd(self, low, high):
        # Products of two irreducible quartics over F_7, one scaled to roots
        # of valuation -1, the other to +1.  The descent finds all eight
        # roots, which proves P squarefree, so gcd(P, P') is never formed; it
        # would lose a remainder that is zero only to the precision budget
        # and come out linear.
        P = polys.mul(scaled_f7(low, -1), scaled_f7(high, 1))
        got = roots_with_mult(P)
        assert [m for _, m in got] == [1] * 8
        assert sorted(r.valuation() for r, _ in got) == [-1] * 4 + [1] * 4
        for r, _ in got:
            assert r.is_exact and polys.evaluate(P, r).is_zero()

    @pytest.mark.parametrize("bk", [BF2, BF3])
    def test_pth_power_roots_near_the_origin_are_kept(self, bk):
        # F(z) = H(z^p) with H(w) = w^2 + t*w + t^101, whose Newton polygon
        # (0, 101), (1, 1), (2, 0) gives one root of valuation 100 and one of
        # valuation 1: w2 = -t^100 - t^199 - ..., w1 = -t - w2.  So F has two
        # p-fold roots, their p-th roots, of valuations 100/p and 1/p.  Over
        # p = 2 the first, t^50 + ..., is zero to the working precision 40.
        p = bk.p
        t = bk.uniformizer_pow
        P = [t(101)] + [bk.zero()] * (2 * p)
        P[p], P[2 * p] = t(1), bk.one()
        if p == 2:
            expected = [t(F(1, 2)), bk.zero()]
        else:
            expected = [-t(F(1, 3)) + t(F(100, 3)), -t(F(100, 3))]
        for partial in (False, True):
            got = roots_with_mult(P, partial=partial)
            assert [m for _, m in got] == [p, p]
            assert [r.prec for r, _ in got] == [40, 40]
            assert [FieldElement(bk, r.terms, None) for r, _ in got] == expected

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


# -- squarefree inputs never reach gcd(F, F') ---------------------------------
# Oracle: sympy's factorization over Q (or Q[t], with t the uniformizer of
# laurentq), or the construction itself.

Z, T = sympy.symbols("z t")


def sympy_element(bk, expr):
    """A polynomial in t with rational coefficients as an element of bk."""
    x = bk.zero()
    for (k,), c in sympy.Poly(expr, T).terms():
        x = x + bk.from_rational(F(int(c.p), int(c.q))) * bk.uniformizer_pow(k)
    return x


def sympy_poly(bk, expr):
    return [sympy_element(bk, c) for c in reversed(sympy.Poly(expr, Z).all_coeffs())]


def sympy_roots(bk, expr):
    """[(root, multiplicity)] from sympy's factor_list; every factor must be
    linear in z."""
    out = []
    for f, m in sympy.factor_list(expr, Z)[1]:
        a, b = sympy.Poly(f, Z).all_coeffs()
        out.append((sympy_element(bk, sympy.cancel(-b / a)), m))
    return sorted(out, key=str)


@pytest.fixture
def gcd_calls(monkeypatch):
    """The degrees of the first arguments of every polys.gcd_poly call."""
    calls = []
    gcd = polys.gcd_poly

    def counted(a, b):
        calls.append(polys.degree(a))
        return gcd(a, b)

    monkeypatch.setattr(polys, "gcd_poly", counted)
    return calls


@pytest.fixture
def descents(monkeypatch):
    """The outcome of every squarefree_roots call: (degree, number of roots
    found) or (degree, exception class)."""
    outcomes = []
    run = rt.squarefree_roots

    def recorded(F, prec, partial=False):
        try:
            found = run(F, prec, partial)
        except (ExtensionBound, PrecisionExhausted) as e:
            outcomes.append((polys.degree(F), type(e)))
            raise
        outcomes.append((polys.degree(F), len(found)))
        return found

    monkeypatch.setattr(rt, "squarefree_roots", recorded)
    return outcomes


class TestSquarefreeCertificate:
    @pytest.mark.parametrize(
        "bk,expr",
        [
            (B3, (Z - 1) * (Z - 2) * (2 * Z - 1) * (3 * Z + 5)),
            (BQ, (Z - 1 - T) * (Z - 2) * (3 * Z - 1) * (Z + T**2)),
        ],
    )
    def test_exact_squarefree_products_skip_gcd(self, gcd_calls, bk, expr):
        got = roots_with_mult(sympy_poly(bk, expr))
        assert gcd_calls == []
        assert sorted(got, key=str) == sympy_roots(bk, expr)

    @pytest.mark.parametrize("f,g", [([1, 0, 1], [4, 6, 0, 0, 1]), QUARTICS_F7[1]])
    def test_split_family_skips_gcd(self, gcd_calls, f, g):
        # root-descent's split shape: irreducibles over F_7 (z^2 + 1 and a
        # quartic) scaled to roots of valuation -1 and +1
        low, high = scaled_f7(f, -1), scaled_f7(g, 1)
        got = roots_with_mult(polys.mul(low, high))
        assert gcd_calls == []
        assert [m for _, m in got] == [1] * (len(f) + len(g) - 2)
        assert len({str(r) for r, _ in got}) == len(got)
        for r, _ in got:
            factor = low if r.valuation() == -1 else high
            assert r.is_exact and polys.evaluate(factor, r).is_zero()
        assert sorted(r.valuation() for r, _ in got) == [-1] * (len(f) - 1) + [1] * (len(g) - 1)

    @pytest.mark.parametrize(
        "bk,expr",
        [
            (Backend(PADIC, p=7), (Z - 1) ** 3 * (Z + 2)),
            (BQ, (Z - 1) ** 2 * (Z + 2)),
            (BQ, (2 * Z - 1) ** 2 * (Z + 3) ** 2),
            (BQ, (Z - 1 - T) ** 2),
        ],
    )
    def test_repeated_roots_go_through_gcd(self, gcd_calls, descents, bk, expr):
        got = roots_with_mult(sympy_poly(bk, expr))
        assert sorted(got, key=str) == sympy_roots(bk, expr)
        # the descent of F fails first; the answer comes from the gcd recursion
        assert descents[0] == (sympy.degree(expr, Z), PrecisionExhausted)
        assert gcd_calls[0] == sympy.degree(expr, Z)

    def test_unliftable_residue_root(self, gcd_calls):
        # the residue root of z^2 + 1 over the 3-adics lies in F_9
        P = polys.from_rationals(B3, [1, 0, 1])
        with pytest.raises(ExtensionBound, match="proper extension of the residue field; not liftable"):
            roots_with_mult(P)
        assert roots_with_mult(P, partial=True) == []
        # the descent's ExtensionBound is final; only the partial call, whose
        # descent finds no root, reaches the gcd
        assert gcd_calls == [2]

    def test_partial_descent_then_gcd(self, gcd_calls):
        # (z - 1)^2 (z^2 + 1) over the 3-adics: the partial descent finds
        # one root, and gcd(F, F') = z - 1 gives it multiplicity 2
        P = sympy_poly(B3, (Z - 1) ** 2 * (Z**2 + 1))
        got = roots_with_mult(P, partial=True)
        assert [(r.as_rational(), m) for r, m in got] == [(1, 2)]
        assert gcd_calls == [4]


# -- PADIC digits lie in F_p: further residue levels are reported, not split --


@pytest.fixture
def residue_work(monkeypatch):
    """The degree k of every ResidueField(p, k) built, and the number of
    equal-degree splits."""
    built, splits = [], []
    init, split = rs.ResidueField.__init__, rs._split

    def counted_init(self, p, k=1):
        built.append(k)
        init(self, p, k)

    monkeypatch.setattr(rs.ResidueField, "__init__", counted_init)
    monkeypatch.setattr(rs, "_split", lambda *args: splits.append(1) or split(*args))
    return built, splits


class TestPadicResidueLevels:
    # (root in Q_p or None, a factor irreducible over F_p of degree 2, 3 or
    # 4: z^2 + 1, z^3 - z + 1 and z^4 + z + 2 over F_3, z^3 + z + 4 over F_11)
    CASES = [
        (B3, 1, Z**2 + 1),
        (B3, -1, Z**3 - Z + 1),
        (B3, 1, Z**4 + Z + 2),
        (B3, None, (Z**2 + 1) * (Z**3 - Z + 1)),
        (Backend(PADIC, p=11), 2, Z**3 + Z + 4),
    ]

    @pytest.mark.parametrize("bk,root,factor", CASES)
    def test_descent_builds_no_extension(self, residue_work, bk, root, factor):
        P = sympy_poly(bk, factor if root is None else (Z - root) * factor)
        with pytest.raises(ExtensionBound, match="proper extension of the residue field; not liftable"):
            roots_with_mult(P)
        got = roots_with_mult(P, partial=True)
        assert [(r.as_rational(), m) for r, m in got] == ([] if root is None else [(root, 1)])
        built, splits = residue_work
        assert [k for k in built if k > 1] == []
        assert splits == []

    def test_fiber_descent_builds_no_extension(self, residue_work):
        # the type-II fiber of z^2 + 1 over zeta(0, 1): its residue roots are
        # +-i in F_9, so the fiber is not representable over Q_3
        R = RationalMap.from_rationals(B3, [1, 0, 1], [1])
        with pytest.raises(ExtensionBound):
            R.preimages(BerkPoint.type_ii(B3.zero(), F(1)))
        assert R.preimages(BerkPoint.type_ii(B3.zero(), F(1)), partial=True) == []
        built, splits = residue_work
        assert [k for k in built if k > 1] == []
        assert splits == []


class TestDigitChildren:
    """The digit step shared by the root and fiber descents, on
    G = z(z - 3)(z^2 + 1) over Q_3.  By hand: the exact root 0 gives no
    child; the root 3 is the digit 3 at valuation 1 with residue
    multiplicity 1; +-i, at valuation 0, need y^2 + 1, which has no root in
    F_3, so that segment yields the lift's ExtensionBound."""

    G = [B3.from_int(c) for c in (0, -3, 1, -3, 1)]

    def children(self, depth):
        return list(rt.digit_children(self.G, polys.newton_polygon(self.G), depth, B3))

    def test_every_segment(self):
        child, blocked = self.children(-math.inf)
        _, digit, v, mu = child
        assert (digit, v, mu) == (B3.from_int(3), 1, 1)
        assert isinstance(blocked, ExtensionBound)
        assert "proper extension of the residue field; not liftable" in str(blocked)

    def test_depth_filters_segments(self):
        assert [c[1:] for c in self.children(F(0))] == [(B3.from_int(3), 1, 1)]
        assert self.children(F(1)) == []

    def test_segments_are_the_callers(self):
        segs = polys.newton_polygon(self.G)
        (seg, *_), _ = rt.digit_children(self.G, segs, -math.inf, B3)
        assert seg is segs[0]


def expand_root(bk, G, depth=-math.inf, z=None, **kw):
    """The nodes that Descent.expand queues below its first node."""
    descent = rt.Descent(bk, polys.degree(G))
    root, _, _ = next(descent.walk(1, "unused"))
    descent.expand(root if z is None else z, depth, G, **kw)
    return list(descent.nodes)


class TestDescent:
    """The driver of the root and fiber descents: node order, budget, and its
    one rule for a skipped branch (skip it, or raise it when strict), on
    TestDigitChildren's G unless stated."""

    G = TestDigitChildren.G

    @pytest.mark.parametrize("depth_first,order", [(False, [0, 1]), (True, [2, 1])])
    def test_order_and_budget(self, depth_first, order):
        descent = rt.Descent(B3, 1, depth_first=depth_first)
        descent.nodes.extend([(B3.from_int(1), 0, 1), (B3.from_int(2), 0, 1)])
        walked = []
        with pytest.raises(PrecisionExhausted, match="^over budget$"):
            for z, _, _ in descent.walk(2, "over budget"):
                walked.append(z.as_rational())
        assert walked == order

    def test_unliftable_branch(self):
        assert expand_root(B3, self.G) == [(B3.from_int(3), 1, 1)]
        with pytest.raises(ExtensionBound, match="not liftable"):
            expand_root(B3, self.G, strict=True)

    def test_pruned_branch(self):
        reason = ExtensionBound("pruned")

        def prune(segs, seg, digit, centre):
            assert seg is segs[0] and centre == digit == B3.from_int(3)
            return reason

        assert expand_root(B3, self.G, prune=prune) == []
        with pytest.raises(ExtensionBound, match="^pruned$"):
            expand_root(B3, self.G, prune=prune, strict=True)

    def test_node_without_children(self):
        assert expand_root(B3, self.G, depth=F(1)) == []
        with pytest.raises(PrecisionExhausted, match="no further digits found for a root"):
            expand_root(B3, self.G, depth=F(1), strict=True)

    def test_centre_beyond_k_max_skips_its_segment(self, monkeypatch):
        # laurentfp: a centre in F_8 plus a digit in F_4 needs F_64, beyond
        # k_max = 4; the segment's next digit, in F_8, is skipped with it
        f4, f8 = rs.ResidueField(2, 2), rs.ResidueField(2, 3)
        z = BF2.from_term(F(0), rs.ResidueElement(f8, (0, 1, 0)))
        in_f4 = BF2.from_term(F(1), rs.ResidueElement(f4, (0, 1)))
        in_f8 = BF2.from_term(F(1), rs.ResidueElement(f8, (1, 1, 0)))
        blocked, other = object(), object()
        children = [(blocked, in_f4, F(1), 1), (blocked, in_f8, F(1), 1), (other, in_f8, F(1), 2)]
        monkeypatch.setattr(rt, "digit_children", lambda G, segs, depth, bk: iter(children))
        G = [BF2.one(), BF2.one()]
        assert expand_root(BF2, G, z=z) == [(z + in_f8, F(1), 2)]
        with pytest.raises(ExtensionBound, match="exceeds k_max"):
            expand_root(BF2, G, z=z, strict=True)


@pytest.mark.xfail(
    strict=True,
    raises=PrecisionExhausted,
    reason="known defect: gcd_poly divides with truncation even on exact inputs",
)
class TestLossyGcdOnRepeatedFactors:
    @pytest.mark.parametrize("low,high", QUARTICS_F7)
    @pytest.mark.parametrize("m_low,m_high", [(2, 1), (1, 2)])
    def test_repeated_quartic_over_laurentfp(self, low, high, m_low, m_high):
        # low^m_low * high^m_high: four roots of valuation -1, four of +1
        L, H = scaled_f7(low, -1), scaled_f7(high, 1)
        P = [BF7.one()]
        for factor, m in [(L, m_low), (H, m_high)]:
            for _ in range(m):
                P = polys.mul(P, factor)
        got = roots_with_mult(P)
        assert sorted((r.valuation(), m) for r, m in got) == [(-1, m_low)] * 4 + [(1, m_high)] * 4
        for r, _ in got:
            factor = L if r.valuation() == -1 else H
            assert r.is_exact and polys.evaluate(factor, r).is_zero()

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known defect: the lossy gcd_poly leaves the roots known only to "
        "working precision, not exact",
    )
    def test_square_times_deeper_root_over_laurentq(self):
        expr = (Z - 1) ** 2 * (Z - T)
        got = roots_with_mult(sympy_poly(BQ, expr))
        assert sorted(got, key=str) == sympy_roots(BQ, expr)


def test_square_times_deeper_root_over_laurentq_to_working_precision():
    # the inexact S = F/g of the lossy gcd still gives the right roots: z is a
    # root when S(z + h) has a constant term zero to its precision and one
    # isolated root there
    expr = (Z - 1) ** 2 * (Z - T)
    got = roots_with_mult(sympy_poly(BQ, expr))
    assert not any(r.is_exact for r, _ in got)
    exact = [(FieldElement(BQ, r.terms, None), m) for r, m in got]
    assert sorted(exact, key=str) == sympy_roots(BQ, expr)


def random_sum_of_terms(bk, rng, max_e, coeff):
    """A random element built by field arithmetic from monomials coeff() *
    pi^(i/e), e <= max_e, sometimes known only to a finite precision."""
    x = bk.zero()
    for _ in range(rng.randint(1, 6)):
        q = F(rng.randint(-3 * max_e, 3 * max_e), rng.randint(1, max_e))
        x = x + bk.from_term(q, coeff())
    if x.terms and rng.random() < 0.3:
        x = x + FieldElement(bk, {}, x.valuation() + F(rng.randint(1, 9), rng.randint(1, 4)))
    return x


class TestLeadingResidue:
    """The residue of c * pi^(-val c), read off the leading term, against the
    product with the uniformizer power and its reduction."""

    def _check(self, bk, rng, max_e, coeff, n=300):
        for _ in range(n):
            c = random_sum_of_terms(bk, rng, max_e, coeff)
            if not c.terms:
                continue
            want = (c * bk.uniformizer_pow(-c.valuation())).reduce()
            assert c.leading_residue() == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_padic_towers_up_to_e_47(self, p):
        rng = random.Random(300 + p)
        bk = Backend(PADIC, p=p)

        def coeff():
            # whole powers of p in the coefficient move the valuation
            return F(rng.choice([-1, 1]) * rng.randint(1, 50) * p ** rng.randint(0, 3),
                     rng.randint(1, 30) * p ** rng.randint(0, 3))

        self._check(bk, rng, 47, coeff)

    def test_laurentq(self):
        rng = random.Random(311)
        self._check(BQ, rng, 12, lambda: F(rng.randint(-20, 20) or 1, rng.randint(1, 9)))

    @pytest.mark.parametrize("k", [1, 2])
    def test_laurentfp_coefficients_in_f9(self, k):
        # over laurentfp:p=3,k=2 an F_3 coefficient is lifted into F_9
        rng = random.Random(320 + k)
        bk = Backend(EQUICHARP, p=3, k=k)
        f3, f9 = rs.ResidueField(3, 1), rs.ResidueField(3, 2)

        def coeff():
            if rng.random() < 0.5:
                return rs.ResidueElement(f3, (rng.randint(1, 2),))
            return rs.ResidueElement(f9, (rng.randint(0, 2), rng.randint(1, 2)))

        self._check(bk, rng, 9, coeff)

    def test_unknown_coefficient_on_the_level(self):
        # 1 + O(3^1) z on the ball of log-radius -1: the unknown coefficient
        # reaches the level 0, so its residue is undetermined
        C = [B3.one(), FieldElement(B3, {}, F(1))]
        assert polys.gauss_valuation(C, F(-1)) == 0
        with pytest.raises(PrecisionExhausted):
            ball_residue_poly(C, F(-1), polys.gauss_valuation(C, F(-1)))
        level = polys.gauss_valuation(C, F(-1, 2))
        assert ball_residue_poly(C, F(-1, 2), level) == [rs.ResidueField(3).one()]


# -- branches only these inputs reach -----------------------------------------


def _t100_quadratic():
    """z^2 - t^100 (1 + t) over laurentq: its roots are +-t^50 (1 + t)^(1/2),
    both of valuation 50, beyond the working precision 40."""
    return [-(BQ.uniformizer_pow(100) * (BQ.one() + BQ.uniformizer_pow(1))), BQ.zero(), BQ.one()]


def test_simple_roots_beyond_the_precision_are_zero_to_it():
    (r, m), = roots_with_mult(_t100_quadratic())
    assert m == 2 and r.is_zero_to_precision() and r.prec == 40


def test_repeated_roots_beyond_the_precision_are_kept():
    # the square of the quadratic: two double roots of valuation 50, which
    # gcd(F, F') finds as the repeated part
    P = polys.mul(_t100_quadratic(), _t100_quadratic())
    (r, m), = roots_with_mult(P)
    assert m == 4 and r.is_zero_to_precision() and r.prec == 40


def test_one_digit_roots_are_the_roots_mod_p():
    # z^2 - 7 to precision 1 over the 3-adics: each root is one digit, a
    # root of z^2 - 7 modulo 3
    got = roots_with_mult(polys.from_rationals(B3, [-7, 0, 1]), prec=1)
    assert all(m == 1 and r.prec == 1 for r, m in got)
    assert sorted(r.terms[0, 1] for r, _ in got) == [x for x in range(3) if (x * x - 7) % 3 == 0]


def test_multiplicity_the_data_do_not_fix_is_precision_exhausted():
    # z^3 - 3z + 2 = (z - 1)^2 (z + 2), known modulo 4 below its leading
    # term.  z^3 - 3z + 6 agrees with it there and is squarefree, so the
    # data fix no multiplicity: the search raises, and under partial it is
    # gcd(F, F') that finds out
    P = [c._with_prec(2) for c in polys.from_rationals(B2, [2, -3, 0, 1])[:3]] + [B2.one()]
    assert dict(sympy.sqf_list(Z**3 - 3 * Z + 2)[1]) == {Z - 1: 2, Z + 2: 1}
    assert [m for _, m in sympy.sqf_list(Z**3 - 3 * Z + 6)[1]] == [1]
    with pytest.raises(PrecisionExhausted):
        roots_with_mult(P)
    with pytest.raises(PrecisionExhausted, match=r"gcd\(F, F'\) lost precision"):
        roots_with_mult(P, partial=True)
