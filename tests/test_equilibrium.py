"""Equilibrium-approximation tests.

Oracles:
- monomial maps: pullback of an axis ball has a closed form (radius divides);
- the degree-5 two-branch example: fiber structure of axis balls is derived
  from its Newton polygon (slopes 3 up, 2 down), and equilibrium weights are
  the branch degrees over the total degree;
- periodic-solution divisors: explicit factorizations.
"""

import math
import random
from fractions import Fraction as F

import pytest

from berkdyn import Backend, EQUICHARP, Inconclusive, PADIC, ParamDomain, PrecisionExhausted
from berkdyn.berkovich import BerkPoint
from berkdyn.equilibrium import (
    EquilibriumApprox,
    ball_mass,
    entropy_lower_bound,
    equilibrium_approx,
    holder_probe,
    invariance_defect,
    jacobian,
    mean_degree,
    partition_masses,
    periodic_solution_measure,
    theorem_e_detect,
)
from berkdyn.fields import FieldElement
from berkdyn.measures import AtomicMeasure, pushforward
from berkdyn.ratmap import RationalMap

B2 = Backend(PADIC, p=2)
B3 = Backend(PADIC, p=3)
BF2 = Backend(EQUICHARP, p=2)


def axis(bk, t):
    return BerkPoint.type_ii(bk.zero(), F(t))


def R0(bk=B3):
    # degree-5 two-branch map: five zeros at valuation 1 and a double pole at
    # the origin give axis action t -> 3t (rising) then t -> 5 - 2t (falling)
    return RationalMap.parse("(z^5 - 243)/z^2", bk)


class TestApprox:
    def test_monomial_halving(self):
        R = RationalMap.parse("z^2", B3)
        approx = equilibrium_approx(R, axis(B3, 4), 2)
        assert approx.measure == AtomicMeasure.dirac(axis(B3, 1))
        assert approx.measure.total_mass == 1

    def test_good_reduction_fixed(self):
        for text in ["z^2+1", "(z^2+1)/z"]:
            R = RationalMap.parse(text, B3)
            approx = equilibrium_approx(R, BerkPoint.canonical(B3), 4)
            for lvl in approx.levels:
                assert lvl == AtomicMeasure.dirac(BerkPoint.canonical(B3))

    def test_branch_weights_level1(self):
        approx = equilibrium_approx(R0(), BerkPoint.canonical(B3), 1)
        rho = approx.measure
        assert rho.total_mass == 1
        assert rho.mass_at(BerkPoint.canonical(B3)) == F(3, 5)
        assert rho.mass_at(axis(B3, F(5, 2))) == F(2, 5)

    def test_pushforward_recovers_previous_level(self):
        approx = equilibrium_approx(R0(), BerkPoint.canonical(B3), 3)
        for k in range(3):
            assert pushforward(R0(), approx.levels[k + 1]) == approx.levels[k]

    def test_masses_are_degree_dyadic(self):
        approx = equilibrium_approx(R0(), BerkPoint.canonical(B3), 3)
        for _, m in approx.measure.atoms:
            assert (m * 5 ** 3).denominator == 1

    def test_invariance_defect_zero(self):
        for R, base in [
            (RationalMap.parse("z^2", B3), axis(B3, 4)),
            (R0(), BerkPoint.canonical(B3)),
            (RationalMap.parse("(z^2+1)/z", B3), BerkPoint.canonical(B3)),
        ]:
            assert invariance_defect(equilibrium_approx(R, base, 2)) == 0

    def test_invariance_defect_sees_moved_mass(self):
        # move 1/16 between two level-2 atoms whose images differ: R_* of
        # the perturbed level misses mu_1 by 1/16 at each of the two images
        R = R0()
        approx = equilibrium_approx(R, BerkPoint.canonical(B3), 2)
        (a, ma), (b, mb) = next(
            (x, y)
            for i, x in enumerate(approx.measure.atoms)
            for y in approx.measure.atoms[i + 1 :]
            if R.image_point(x[0]) != R.image_point(y[0])
        )
        eps = F(1, 16)
        moved = AtomicMeasure([(a, -eps), (b, eps)])
        levels = approx.levels[:2] + [approx.measure + moved]
        perturbed = EquilibriumApprox(R, approx.base, 2, levels, approx.degrees)
        assert invariance_defect(perturbed) == 2 * eps

    def test_invariance_defect_needs_a_level(self):
        with pytest.raises(ParamDomain):
            invariance_defect(equilibrium_approx(R0(), BerkPoint.canonical(B3), 0))

    def test_invariance_defect_reports_dropped_mass(self):
        # fibers of these maps leave the tower in part, so partial chains
        # lose mass; the defect of the last step is exactly that loss.  The
        # fiber of zeta(0, 1) under z^2+1 is centered at the square roots
        # of -1, which lie in F_9 and not in F_3: all of its mass drops
        cases = [
            ([1, 0, 1], [1], BerkPoint.type_ii(B3.zero(), 1), 1, 1),
            ([-3], [-1, -7, -5, 1], BerkPoint.canonical(B3), 2, F(2, 9)),
        ]
        for num, den, start, n, want in cases:
            R = RationalMap.from_rationals(B3, num, den)
            approx = equilibrium_approx(R, start, n, partial=True)
            dropped = approx.levels[n - 1].total_mass - approx.measure.total_mass
            assert dropped == want
            assert invariance_defect(approx) == dropped

    def test_fiber_through_a_pole_keeps_its_mass(self):
        # the Gauss point's fiber under 8/(9-8z-6z^2) passes through balls
        # that hold a pole; all of it is representable
        R = RationalMap.from_rationals(B3, [8], [9, -8, -6])
        approx = equilibrium_approx(R, BerkPoint.canonical(B3), 1, partial=True)
        assert approx.measure.total_mass == 1
        assert invariance_defect(approx) == 0

    def test_invariance_defect_rejects_approximate_type_i_atoms(self):
        # the roots of z^2 = 7 in Z_3 are known only to the working precision
        R = RationalMap.parse("z^2 - 7", B3)
        approx = equilibrium_approx(R, BerkPoint.type_i(B3.zero()), 1)
        with pytest.raises(PrecisionExhausted):
            invariance_defect(approx)


class TestBallMass:
    def test_canonical_atom_outside_small_ball(self):
        R = RationalMap.parse("z^2+1", B3)
        approx = equilibrium_approx(R, BerkPoint.canonical(B3), 2)
        assert ball_mass(approx, B3.zero(), F(1)) == 0

    def test_whole_line(self):
        approx = equilibrium_approx(R0(), BerkPoint.canonical(B3), 2)
        assert ball_mass(approx, B3.zero(), F(-10 ** 6)) == 1

    def test_unit_ball_mass(self):
        # level-1 atoms: S_can (mass 3/5, inside the closed unit ball) and
        # the ball of valuation radius 5/2 (mass 2/5, also inside)
        approx = equilibrium_approx(R0(), BerkPoint.canonical(B3), 1)
        assert ball_mass(approx, B3.zero(), F(0)) == 1
        assert ball_mass(approx, B3.zero(), F(2)) == F(2, 5)

    def test_partition_sums_to_total(self):
        approx = equilibrium_approx(R0(), BerkPoint.canonical(B3), 3)
        part = partition_masses(approx, 2)
        assert sum(part.values(), F(0)) == 1

    def test_holder_probe_no_violations(self):
        rng = random.Random(251)
        approx = equilibrium_approx(R0(), BerkPoint.canonical(B3), 4)
        samples = [
            (B3.from_int(rng.randint(-10, 10)), F(rng.randint(0, 6)))
            for _ in range(50)
        ]
        C, alpha, violations = holder_probe(approx, samples)
        assert violations == []
        assert 0 < alpha <= 1.0


class TestEntropy:
    def test_chain_degrees_are_local_degrees(self):
        # the chain keeps the multiplicity its fiber search gave each atom of
        # the last level; mean_degree reads those instead of recomputing them
        R1 = RationalMap.parse("z^2*(1 + 16777216*z^8)/(1 + 4096*z^6)", B2)
        z2_plus_1 = RationalMap.parse("z^2+1", B3)
        lossy = RationalMap.from_rationals(B3, [-3], [-1, -7, -5, 1])
        cases = [
            (R0(), BerkPoint.canonical(B3), 6, False, 64),
            (R1, BerkPoint.canonical(B2), 4, False, 41),
            (z2_plus_1, axis(B3, 1), 1, True, 0),  # the whole fiber drops
            (lossy, BerkPoint.canonical(B3), 2, True, None),
        ]
        for R, base, n, partial, n_atoms in cases:
            approx = equilibrium_approx(R, base, n, partial=partial)
            atoms = approx.measure.atoms
            if n_atoms is not None:
                assert len(atoms) == n_atoms
            assert set(approx.degrees) == {q for q, _ in atoms}
            for q, _ in atoms:
                assert approx.degrees[q] == R.local_degree(q)
            recomputed = math.exp(sum(float(m) * math.log(R.local_degree(q)) for q, m in atoms))
            assert mean_degree(R, approx) == recomputed
            # a hand-built approximation that kept no degrees asks R
            bare = EquilibriumApprox(R, base, n, approx.levels, {})
            assert mean_degree(R, bare) == recomputed
        # with no pullback the chain kept no degrees: the base's is R's own
        approx = equilibrium_approx(R0(), axis(B3, 1), 0)
        assert approx.degrees == {}
        assert mean_degree(R0(), approx) == math.exp(math.log(R0().local_degree(axis(B3, 1))))

    def test_good_reduction_zero_bound(self):
        R = RationalMap.parse("z^2+1", B3)
        approx = equilibrium_approx(R, BerkPoint.canonical(B3), 2)
        assert mean_degree(R, approx) == pytest.approx(2.0)
        assert entropy_lower_bound(R, approx) == pytest.approx(0.0)

    def test_two_branch_rokhlin_value(self):
        # exact weights 3/5 and 2/5 put the bound at (3/5)log(5/3)+(2/5)log(5/2)
        R = R0()
        approx = equilibrium_approx(R, BerkPoint.canonical(B3), 6)
        expected = (3 / 5) * math.log(5 / 3) + (2 / 5) * math.log(5 / 2)
        assert abs(entropy_lower_bound(R, approx) - expected) < 0.02

    def test_jacobian_values(self):
        R = RationalMap.parse("z^2", B3)
        assert jacobian(R, BerkPoint.canonical(B3)) == 1
        assert jacobian(R0(), axis(B3, F(1, 2))) == F(5, 3)


class TestDetect:
    def test_good_reduction_true(self):
        assert theorem_e_detect(RationalMap.parse("z^2+1", B3)) is True

    def test_two_branch_false(self):
        assert theorem_e_detect(R0()) is False

    def test_conjugated_good_reduction(self):
        # z^2 conjugated by z -> 3z fixes the ball of valuation radius 1
        R = RationalMap.parse("(z^2)/3", B3)
        assert theorem_e_detect(R) is True

    def test_inconclusive_budget(self):
        with pytest.raises(Inconclusive):
            theorem_e_detect(R0(), n_max=1)

    def test_fiber_precision_error_is_not_a_no(self):
        # (z^2 - 9)/3, good reduction at zeta(0, 1), with its constant known
        # only to O(3^6): the chain from the Gauss point contracts to
        # zeta(0, 1), whose fiber search enters the discs around the
        # approximate roots +-3 and runs out of precision there.  That is an
        # error, not evidence that the point is not invariant.
        c = B3.from_int(-9) + FieldElement(B3, {}, F(6))
        R = RationalMap([c, B3.zero(), B3.one()], [B3.from_int(3)])
        assert theorem_e_detect(RationalMap.from_rationals(B3, [-9, 0, 1], [3])) is True
        with pytest.raises(PrecisionExhausted):
            R.preimages(BerkPoint.type_ii(B3.zero(), F(1)))
        with pytest.raises(PrecisionExhausted):
            theorem_e_detect(R)


class TestPeriodicSolutions:
    def test_squaring_fixed_points(self):
        R = RationalMap.parse("z^2", B3)
        ident = RationalMap.parse("z", B3)
        rho = periodic_solution_measure(R, ident, 1)
        assert rho.mass_at(BerkPoint.type_i(B3.zero())) == 1
        assert rho.mass_at(BerkPoint.type_i(B3.one())) == 1
        assert rho.mass_at(BerkPoint.infinity(B3)) == 1
        assert rho.total_mass == 3

    @pytest.mark.parametrize("k", [1, 2])
    def test_char_p_degenerate_counts(self, k):
        # z + z^p in characteristic p: the p^k-th iterate solves R^n = id
        # only at 0 (with huge multiplicity) and at infinity
        P0 = RationalMap.parse("z + z^2", BF2)
        ident = RationalMap.parse("z", BF2)
        rho = periodic_solution_measure(P0, ident, 2 ** k)
        zero = BerkPoint.type_i(BF2.zero())
        assert rho.mass_at(zero) == 2 ** (2 ** k)
        assert rho.mass_at(BerkPoint.infinity(BF2)) == 1
        assert len(rho.atoms) == 2
