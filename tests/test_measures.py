"""Measure and potential-theory tests.

Oracles:
- transport: worked examples with known fibers/images, plus the exact push-pull
  identity (pushforward of the pullback is degree times the measure);
- Laplacian: the duality with potentials, checked atom-by-atom on random trees;
- energy: equals the Dirichlet norm of the potential, hence nonnegative.
"""

import random
from fractions import Fraction as F

import pytest

from berkdyn import (
    Backend,
    ExtensionBound,
    NonzeroMass,
    PADIC,
    TypeIAtom,
)
from berkdyn.berkovich import BerkPoint, gromov_product, hyperbolic_distance
from berkdyn.measures import (
    AtomicMeasure,
    FiniteTree,
    TreeFunction,
    convex_hull_tree,
    correlation,
    dirichlet_norm,
    energy_pairing,
    potential_function,
    potential_of_measure,
    pullback,
    pushforward,
    tree_laplacian,
)
from berkdyn.ratmap import RationalMap

B2 = Backend(PADIC, p=2)
B3 = Backend(PADIC, p=3)


def random_type_ii(bk, rng, spread=4):
    c = bk.from_rational(F(rng.randint(-8, 8)))
    return BerkPoint.type_ii(c, F(rng.randint(-spread, spread)))


def random_mass_zero(bk, rng, natoms=3):
    atoms = []
    for _ in range(natoms):
        atoms.append((random_type_ii(bk, rng), F(rng.randint(-5, 5), rng.randint(1, 3))))
    rho = AtomicMeasure(atoms)
    balance = random_type_ii(bk, rng)
    return rho - AtomicMeasure.dirac(balance, rho.total_mass)


class TestAtomicMeasure:
    def test_merge_and_drop(self):
        S = BerkPoint.canonical(B2)
        T = BerkPoint.type_ii(B2.zero(), 1)
        rho = AtomicMeasure([(S, F(1, 2)), (S, F(1, 2)), (T, F(3)), (T, F(-3))])
        assert rho.atoms == [(S, F(1))]
        assert rho.total_mass == 1
        assert rho.mass_at(T) == 0

    def test_merge_keeps_first_occurrence(self):
        S = BerkPoint.canonical(B2)
        T = BerkPoint.type_ii(B2.zero(), 1)
        U = BerkPoint.type_ii(B2.one(), 2)
        rho = AtomicMeasure([(T, 1), (S, 2), (U, 3), (S, 4), (T, 5)])
        assert rho.atoms == [(T, 6), (S, 6), (U, 3)]
        assert [p for p, _ in rho.atoms][0] is T

    def test_merge_equal_points_as_distinct_objects(self):
        first = BerkPoint.type_ii(B3.from_int(1), 1)
        second = BerkPoint.type_ii(B3.from_int(4), 1)  # the same ball
        assert first is not second and first == second
        rho = AtomicMeasure([(first, F(1, 3)), (second, F(2, 3))])
        assert len(rho.atoms) == 1
        assert rho.atoms[0][0] is first and rho.atoms[0][1] == 1

    def test_merge_drops_cancelled_masses(self):
        S = BerkPoint.canonical(B2)
        T = BerkPoint.type_ii(B2.zero(), 1)
        U = BerkPoint.type_ii(B2.one(), 2)
        assert AtomicMeasure([(S, 2), (T, 1), (S, -2), (U, 0)]).atoms == [(T, 1)]
        # an atom that cancels and comes back keeps its first position
        rho = AtomicMeasure([(S, 1), (T, 1), (S, -1), (S, F(1, 2))])
        assert rho.atoms == [(S, F(1, 2)), (T, 1)]

    def test_scale(self):
        S = BerkPoint.canonical(B2)
        T = BerkPoint.type_ii(B2.zero(), 1)
        U = BerkPoint.type_ii(B2.one(), 2)
        rho = AtomicMeasure([(U, 1), (S, F(1, 2)), (T, -2)])
        assert rho.scale(0) == AtomicMeasure.zero()
        assert rho.scale(0).atoms == []
        assert rho.scale(F(-2, 3)).atoms == [(U, F(-2, 3)), (S, F(-1, 3)), (T, F(4, 3))]
        assert all(p is q for (p, _), (q, _) in zip(rho.scale(5).atoms, rho.atoms))

    def test_equality_ignores_order(self):
        S = BerkPoint.canonical(B2)
        T = BerkPoint.type_ii(B2.zero(), 1)
        U = BerkPoint.type_ii(B2.one(), 2)
        a = AtomicMeasure([(S, 1), (T, 2)])
        assert a == AtomicMeasure([(T, 2), (S, 1)])
        assert a != AtomicMeasure([(S, 1), (T, 3)])
        assert a != AtomicMeasure([(S, 1), (U, 2)])
        assert a != AtomicMeasure([(S, 1), (T, 2), (U, 1)])

    def test_algebra(self):
        S = BerkPoint.canonical(B2)
        T = BerkPoint.type_ii(B2.zero(), 1)
        a = AtomicMeasure.dirac(S) + AtomicMeasure.dirac(T, F(1, 3))
        b = a.scale(3)
        assert b.mass_at(S) == 3 and b.mass_at(T) == 1
        assert (a - a) == AtomicMeasure.zero()
        assert a.total_variation_distance(b) == 2 + F(2, 3)

    def test_json_roundtrip(self):
        rho = AtomicMeasure(
            [
                (BerkPoint.canonical(B3), F(2, 7)),
                (BerkPoint.type_i(B3.from_int(4)), F(-1)),
                (BerkPoint.infinity(B3), F(5, 7)),
            ]
        )
        assert AtomicMeasure.from_json(B3, rho.to_json()) == rho


class TestTransport:
    def test_pushforward_fixed_point(self):
        R = RationalMap.parse("z^2", B2)
        S0 = BerkPoint.canonical(B2)
        assert pushforward(R, AtomicMeasure.dirac(S0)) == AtomicMeasure.dirac(S0)

    def test_pushforward_collision(self):
        R = RationalMap.parse("z^2", B3)
        rho = AtomicMeasure(
            [
                (BerkPoint.type_i(B3.from_int(2)), F(1, 2)),
                (BerkPoint.type_i(B3.from_int(-2)), F(1, 2)),
            ]
        )
        assert pushforward(R, rho) == AtomicMeasure.dirac(
            BerkPoint.type_i(B3.from_int(4))
        )

    def test_pullback_type1(self):
        R = RationalMap.parse("z^2", B3)
        rho = pullback(R, AtomicMeasure.dirac(BerkPoint.type_i(B3.from_int(4))))
        assert rho.total_mass == 2
        assert rho.mass_at(BerkPoint.type_i(B3.from_int(2))) == 1
        assert rho.mass_at(BerkPoint.type_i(B3.from_int(-2))) == 1

    def test_pullback_good_reduction(self):
        R = RationalMap.parse("(z^2+1)/z", B3)
        assert R.good_reduction_check()
        S0 = BerkPoint.canonical(B3)
        assert pullback(R, AtomicMeasure.dirac(S0)) == AtomicMeasure.dirac(S0, 2)

    def test_push_pull_identity_random(self):
        rng = random.Random(211)
        done = 0
        while done < 50:
            text = rng.choice(["z^2", "z^2 + 3", "(z^2+1)/z", "z^3 + z", "1/z^2"])
            R = RationalMap.parse(text, B3)
            rho = AtomicMeasure(
                [
                    (random_type_ii(B3, rng, spread=2), F(rng.randint(1, 3))),
                    (random_type_ii(B3, rng, spread=2), F(rng.randint(1, 3))),
                ]
            )
            try:
                up = pullback(R, rho)
            except ExtensionBound:
                continue
            assert up.total_mass == R.degree * rho.total_mass
            assert pushforward(R, up) == rho.scale(R.degree)
            done += 1


class TestFiniteTree:
    def test_single_vertex(self):
        tree = convex_hull_tree([BerkPoint.canonical(B2)])
        assert len(tree.vertices) == 1 and tree.edges == []

    def test_steiner_point(self):
        a = BerkPoint.type_ii(B3.zero(), 1)
        b = BerkPoint.type_ii(B3.one(), 1)
        tree = convex_hull_tree([a, b])
        assert len(tree.vertices) == 3
        assert BerkPoint.canonical(B3) in tree.vertices
        assert tree.root == BerkPoint.canonical(B3)

    def test_totally_ordered_path(self):
        pts = [BerkPoint.type_ii(B3.zero(), k) for k in (1, 2, 3)]
        tree = convex_hull_tree(pts)
        assert len(tree.vertices) == 3 and len(tree.edges) == 2
        assert sum(ln for _, _, ln in tree.edges) == 2

    def test_retraction_properties(self):
        rng = random.Random(223)
        for _ in range(60):
            pts = [random_type_ii(B2, rng) for _ in range(rng.randint(2, 4))]
            tree = convex_hull_tree(pts)
            p = random_type_ii(B2, rng)
            q = tree.retract(p)
            # idempotent, lands on the tree, and is no farther than any vertex
            assert tree.retract(q) == q
            v0, w0, _ = tree.locate(q)
            assert v0 in tree.vertices and (w0 is None or w0 in tree.vertices)
            for v in tree.vertices:
                assert hyperbolic_distance(p, q) <= hyperbolic_distance(p, v)

    def test_rejects_type_i(self):
        with pytest.raises(TypeIAtom):
            convex_hull_tree([BerkPoint.type_i(B2.zero())])

    def test_dot_export(self):
        a = BerkPoint.type_ii(B3.zero(), 1)
        b = BerkPoint.type_ii(B3.one(), 1)
        dot = convex_hull_tree([a, b]).to_dot()
        assert dot.count(" -- ") == 2 and dot.startswith("graph")


class TestPotential:
    def test_dirac_at_base_is_constant(self):
        S0 = BerkPoint.canonical(B2)
        rho = AtomicMeasure.dirac(S0)
        queries = [S0, BerkPoint.type_ii(B2.zero(), 3), BerkPoint.type_ii(B2.one(), 1)]
        assert potential_of_measure(rho, S0, queries) == [F(-1)] * 3

    def test_dirac_elsewhere(self):
        S0 = BerkPoint.canonical(B2)
        Sp = BerkPoint.type_ii(B2.zero(), 2)
        S = BerkPoint.type_ii(B2.zero(), 1)
        (val,) = potential_of_measure(AtomicMeasure.dirac(Sp), S0, [S])
        assert val == -1 - gromov_product(S, Sp, S0)
        assert val == -2

    def test_mixed_measure(self):
        S0 = BerkPoint.canonical(B2)
        rho = AtomicMeasure(
            [(S0, F(1, 2)), (BerkPoint.type_ii(B2.zero(), 2), F(1, 2))]
        )
        (val,) = potential_of_measure(rho, S0, [BerkPoint.type_ii(B2.zero(), 1)])
        assert val == F(-3, 2)


class TestLaplacian:
    def test_constant_function(self):
        tree = convex_hull_tree(
            [BerkPoint.type_ii(B3.zero(), 1), BerkPoint.type_ii(B3.one(), 1)]
        )
        assert tree_laplacian(TreeFunction.constant(tree, 7)) == AtomicMeasure.zero()

    def test_kernel_identity(self):
        # the Gromov kernel based at S0 has Laplacian [S0] - [S']
        S0 = BerkPoint.canonical(B3)
        Sp = BerkPoint.type_ii(B3.zero(), 3)
        tree = convex_hull_tree([S0, Sp])
        phi = TreeFunction(
            tree, {v: gromov_product(v, Sp, S0) for v in tree.vertices}
        )
        assert tree_laplacian(phi) == AtomicMeasure.dirac(S0) - AtomicMeasure.dirac(Sp)

    def test_log_sup_identity(self):
        # along a path through S toward both ends, the log of the sup-kernel
        # has Laplacian [S] - [end on the infinity side]
        s = F(2)
        pts = [BerkPoint.type_ii(B2.zero(), t) for t in range(-3, 6)]
        tree = convex_hull_tree(pts)
        phi = TreeFunction(tree, {v: -min(v.logr, s) for v in tree.vertices})
        S = BerkPoint.type_ii(B2.zero(), s)
        top = BerkPoint.type_ii(B2.zero(), -3)
        assert tree_laplacian(phi) == AtomicMeasure.dirac(S) - AtomicMeasure.dirac(top)

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_potential_duality_100(self, bk):
        rng = random.Random(227)
        for _ in range(100):
            atoms = [
                (random_type_ii(bk, rng), F(rng.randint(-4, 5), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            ]
            rho = AtomicMeasure(atoms)
            if not rho.atoms:
                continue
            S0 = random_type_ii(bk, rng)
            phi = potential_function(rho, S0)
            expected = rho - AtomicMeasure.dirac(S0, rho.total_mass)
            assert tree_laplacian(phi) == expected
            # total mass of any tree Laplacian vanishes
            assert tree_laplacian(phi).total_mass == 0


class TestEnergy:
    def test_two_point_example(self):
        S0 = BerkPoint.canonical(B2)
        rho = AtomicMeasure.dirac(BerkPoint.type_ii(B2.zero(), 1)) - AtomicMeasure.dirac(S0)
        assert energy_pairing(rho, rho, S0) == 1

    def test_zero_measure(self):
        S0 = BerkPoint.canonical(B2)
        assert energy_pairing(AtomicMeasure.zero(), AtomicMeasure.zero(), S0) == 0

    def test_requires_mass_zero(self):
        S0 = BerkPoint.canonical(B2)
        with pytest.raises(NonzeroMass):
            energy_pairing(AtomicMeasure.dirac(S0), AtomicMeasure.zero(), S0)

    def test_rejects_type_i_atoms(self):
        S0 = BerkPoint.canonical(B2)
        rho = AtomicMeasure.dirac(BerkPoint.type_i(B2.zero())) - AtomicMeasure.dirac(S0)
        with pytest.raises(TypeIAtom):
            energy_pairing(rho, rho, S0)

    def test_symmetry_and_base_independence_100(self):
        rng = random.Random(229)
        for _ in range(100):
            rho = random_mass_zero(B3, rng)
            sig = random_mass_zero(B3, rng)
            S0 = BerkPoint.canonical(B3)
            S1 = random_type_ii(B3, rng)
            val = energy_pairing(rho, sig, S0)
            assert val == energy_pairing(sig, rho, S0)
            assert val == energy_pairing(rho, sig, S1)

    def test_positivity_200(self):
        # oracle: the energy equals the Dirichlet norm of the potential on
        # the convex hull, a sum of squares
        rng = random.Random(233)
        for _ in range(200):
            rho = random_mass_zero(B2, rng)
            S0 = BerkPoint.canonical(B2)
            e = energy_pairing(rho, rho, S0)
            assert e >= 0
            assert (e == 0) == (rho == AtomicMeasure.zero())
            if rho.atoms:
                phi = potential_function(rho, S0)
                assert e == dirichlet_norm(phi)


class TestDirichlet:
    def test_constant(self):
        tree = convex_hull_tree([BerkPoint.canonical(B2), BerkPoint.type_ii(B2.zero(), 2)])
        assert dirichlet_norm(TreeFunction.constant(tree, 5)) == 0

    def test_single_edge(self):
        a = BerkPoint.canonical(B2)
        b = BerkPoint.type_ii(B2.zero(), 2)
        tree = convex_hull_tree([a, b])
        psi = TreeFunction(tree, {a: F(0), b: F(1)})
        assert dirichlet_norm(psi) == F(1, 2)

    def test_kernel_norm_is_distance(self):
        S0 = BerkPoint.canonical(B3)
        Sp = BerkPoint.type_ii(B3.zero(), 5)
        tree = convex_hull_tree([S0, Sp])
        psi = TreeFunction(tree, {v: -gromov_product(v, Sp, S0) for v in tree.vertices})
        assert dirichlet_norm(psi) == hyperbolic_distance(S0, Sp)

    @pytest.mark.parametrize("bk", [B2, B3])
    def test_equals_energy_of_laplacian_100(self, bk):
        rng = random.Random(239)
        for _ in range(100):
            pts = [random_type_ii(bk, rng) for _ in range(rng.randint(2, 4))]
            tree = convex_hull_tree(pts)
            psi = TreeFunction(
                tree,
                {v: F(rng.randint(-6, 6), rng.randint(1, 3)) for v in tree.vertices},
            )
            lap = tree_laplacian(psi)
            S0 = tree.root
            assert dirichlet_norm(psi) == energy_pairing(lap, lap, S0)


class TestCorrelation:
    def test_constant_observable(self):
        R = RationalMap.parse("z^2", B2)
        S0 = BerkPoint.canonical(B2)
        rho = AtomicMeasure.dirac(S0)
        tree = convex_hull_tree([S0, BerkPoint.type_ii(B2.zero(), 1)])
        phi = TreeFunction(tree, {v: F(rng_v) for rng_v, v in enumerate(tree.vertices)})
        psi = TreeFunction.constant(tree, 3)
        for n in range(3):
            assert correlation(R, rho, phi, psi, n) == 0

    def test_variance_nonnegative(self):
        rng = random.Random(241)
        R = RationalMap.parse("z^2", B3)
        for _ in range(20):
            pts = [random_type_ii(B3, rng) for _ in range(3)]
            tree = convex_hull_tree(pts)
            values = {v: F(rng.randint(-5, 5)) for v in tree.vertices}
            phi = TreeFunction(tree, values)
            m = F(1, len(values))
            rho = AtomicMeasure([(v, m) for v in values])
            var = correlation(R, rho, phi, phi, 0)
            # the variance from the assigned vertex values, not via integrate
            mean = sum(m * x for x in values.values())
            assert var == sum(m * x * x for x in values.values()) - mean * mean
            assert var >= 0
