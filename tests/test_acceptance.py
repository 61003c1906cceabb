"""Acceptance suite: the eleven headline checks, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Each criterion re-derives its expected values from independent closed forms
(branch weights, explicit factorizations, formula radii, sampling oracles)
rather than from the code paths under test.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from berkdyn import Backend, EQUICHARP, ExtensionBound, PADIC
from berkdyn.berkovich import BerkPoint, order_leq, seminorm_eval
from berkdyn.equilibrium import (
    entropy_lower_bound,
    equilibrium_approx,
    holder_probe,
    periodic_solution_measure,
    theorem_e_detect,
)
from berkdyn.fields import INF
from berkdyn.measures import (
    AtomicMeasure,
    TreeFunction,
    convex_hull_tree,
    dirichlet_norm,
    energy_pairing,
    potential_function,
    tree_laplacian,
)
from berkdyn import polys
from berkdyn.ratmap import RationalMap
from berkdyn import skeleton as sk

B3 = Backend(PADIC, p=3)


def _run(num, label, body):
    t0 = time.time()
    try:
        result = body()
    except BaseException:
        print(f"\ncriterion {num:2d} [{label}]: FAIL ({time.time() - t0:.2f}s)")
        raise
    print(f"\ncriterion {num:2d} [{label}]: PASS ({time.time() - t0:.2f}s)")
    return result


def test_criterion_01_two_branch_entropy_chain():
    def body():
        t0 = time.time()
        M = sk.catalog("R0")  # d=5
        h_top, h_eq, weights = sk.entropies(M)
        expected = (3 / 5) * math.log(5 / 3) + (2 / 5) * math.log(5 / 2)
        assert abs(h_eq - expected) < 1e-9
        assert abs(h_eq - 0.673012) < 1e-6
        assert h_top == pytest.approx(math.log(2), abs=1e-12)
        assert 0 < h_eq < math.log(2) < math.log(5)
        assert time.time() - t0 < 1.0

    _run(1, "degree-5 entropy chain", body)


def test_criterion_02_three_branch_full_segment():
    def body():
        t0 = time.time()
        M = sk.catalog("R1")
        kind, _ = sk.invariant_set(M)
        assert kind == sk.FULL_SEGMENT
        assert sum(F(1, br.slope) for br in M.branches) == 1
        h_top, h_eq, _ = sk.entropies(M)
        assert h_top == pytest.approx(math.log(3), abs=1e-12)
        assert abs(h_eq - 1.054920) < 1e-6
        expected = (1 / 5) * math.log(5) + (4 / 5) * math.log(5 / 2)
        assert abs(h_eq - expected) < 1e-9
        assert sk.cross_validate(M, 100) >= 100  # raises on any mismatch
        assert time.time() - t0 < 10.0

    _run(2, "degree-10 full-segment map", body)


def test_criterion_03_elliptic_multiplication():
    def body():
        t0 = time.time()
        for m in (2, 3):
            M = sk.catalog("LATTES", m=m, p=5)
            assert (M.t_min, M.t_max) == (0, 1)  # Julia segment [0, 1]
            h_top, _, _ = sk.entropies(M)
            assert h_top == pytest.approx(math.log(m), abs=1e-12)
            assert sk.cross_validate(M, 100) >= 100  # exact conjugacy grid
        assert time.time() - t0 < 10.0

    _run(3, "elliptic multiplication by 2, 3", body)


def test_criterion_04_shift_component_tree():
    def body():
        t0 = time.time()
        p = 2
        # depths <= 4: counts and radii from the closed form
        levels, _ = sk.shift_model(p, 4)
        for k, level in enumerate(levels):
            assert len(level) == p ** k
            if k:
                assert all(S.logr == F(1 - F(1, p ** k), p - 1) for S in level)
        # depth <= 3: cross-check the fiber solver output against the tree:
        # distinct centers modulo the radius, each parent receives exactly
        # p children with multiplicity p
        P = sk.shift_map(p)
        for k in range(1, 4):
            level = levels[k]
            for i in range(len(level)):
                for j in range(i + 1, len(level)):
                    assert (level[i].value - level[j].value).valuation() < level[
                        i
                    ].logr
            hits = {S: 0 for S in levels[k - 1]}
            for T in level:
                assert P.local_degree(T) == p
                hits[P.image_point(T)] += 1
            assert all(c == p for c in hits.values())
        assert time.time() - t0 < 30.0

    _run(4, "ball-splitting shift tree", body)


def test_criterion_05_char_p_periodic_divisor():
    def body():
        bk = Backend(EQUICHARP, p=2)
        P0 = RationalMap.parse("z + z^2", bk)
        ident = RationalMap.parse("z", bk)
        for k in (1, 2):
            rho = periodic_solution_measure(P0, ident, 2 ** k)
            assert rho.mass_at(BerkPoint.type_i(bk.zero())) == 2 ** (2 ** k)
            assert rho.mass_at(BerkPoint.infinity(bk)) == 1
            assert len(rho.atoms) == 2

    _run(5, "characteristic-2 periodic divisor", body)


def test_criterion_06_degree_sum_random_fibers():
    def body():
        rng = random.Random(6001)
        done = 0
        while done < 100:
            deg = 0
            while deg < 1:
                num = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
                den = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
                if not any(num) or not any(den):
                    continue
                R = RationalMap.from_rationals(B3, num, den)
                deg = R.degree
            T = BerkPoint.type_ii(
                B3.from_int(rng.randint(-6, 6)), F(rng.randint(-2, 4))
            )
            try:
                fiber = R.preimages(T)
            except ExtensionBound:
                continue  # not resolvable over this tower; resample
            assert sum(m for _, m in fiber) == R.degree
            assert len(fiber) <= R.topological_degree()
            done += 1

    _run(6, "fiber multiplicities sum to the degree", body)


def test_criterion_07_gauss_norm_sampling_oracle():
    def body():
        t0 = time.time()
        bk = Backend(PADIC, p=101)
        rng = random.Random(7001)
        for _ in range(500):
            deg = rng.randint(1, 4)
            roots = [
                bk.from_rational(
                    F(rng.randint(-50, 50), rng.choice([1, 1, 2, 3]))
                    * F(101) ** rng.randint(-1, 1)
                )
                for _ in range(deg)
            ]
            lead = bk.from_rational(F(rng.randint(1, 100)) * F(101) ** rng.randint(-2, 2))
            P = [lead]
            for a in roots:
                P = polys.mul(P, [bk.zero() - a, bk.one()])
            c = bk.from_int(rng.randint(-50, 50))
            u = F(rng.randint(-3, 6), rng.choice([1, 2]))
            S = BerkPoint.type_ii(c, u)
            formula = seminorm_eval(S, P)
            # independent closed form from the known factorization
            closed = lead.valuation() + sum(
                min(u, (c - a).valuation_lower_bound()) for a in roots
            )
            assert formula == closed
            best = INF
            for s in range(200):
                eta = rng.randint(1, 100)
                extra = F(0) if s % 4 else F(rng.randint(0, 3))
                z = c + bk.from_int(eta) * bk.uniformizer_pow(u + extra)
                v = polys.evaluate(P, z).valuation()
                best = min(best, v)
            assert best == formula
        assert time.time() - t0 < 20.0

    _run(7, "seminorm equals sampled ball minimum", body)


def test_criterion_08_potential_identities():
    def body():
        rng = random.Random(8001)

        def rand_pt(bk):
            return BerkPoint.type_ii(
                bk.from_int(rng.randint(-8, 8)), F(rng.randint(-4, 4))
            )

        bk = B3
        for trial in range(100):
            # duality: the Laplacian of the potential recovers the measure
            atoms = [
                (rand_pt(bk), F(rng.randint(1, 5), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            ]
            rho = AtomicMeasure(atoms)
            S0 = rand_pt(bk)
            phi = potential_function(rho, S0)
            assert tree_laplacian(phi) == rho - AtomicMeasure.dirac(S0, rho.total_mass)

            # log-sup kernel along an axis path: Laplacian [S] - [top end]
            s = F(rng.randint(-2, 3))
            pts = [BerkPoint.type_ii(bk.zero(), F(t)) for t in range(-4, 5)]
            tree = convex_hull_tree(pts)
            kern = TreeFunction(tree, {v: -min(v.logr, s) for v in tree.vertices})
            S = BerkPoint.type_ii(bk.zero(), s)
            top = BerkPoint.type_ii(bk.zero(), F(-4))
            assert tree_laplacian(kern) == AtomicMeasure.dirac(S) - AtomicMeasure.dirac(top)

            # energy Cauchy-Schwarz on mass-zero measures, exact rationals
            def mass_zero():
                raw = AtomicMeasure(
                    [
                        (rand_pt(bk), F(rng.randint(-5, 5), rng.randint(1, 3)))
                        for _ in range(3)
                    ]
                )
                return raw - AtomicMeasure.dirac(rand_pt(bk), raw.total_mass)

            rho1, rho2 = mass_zero(), mass_zero()
            S0 = BerkPoint.canonical(bk)
            cross = energy_pairing(rho1, rho2, S0)
            assert cross * cross <= energy_pairing(rho1, rho1, S0) * energy_pairing(
                rho2, rho2, S0
            )

            # Dirichlet norm of a tree function equals the energy of its
            # Laplacian
            pts = [rand_pt(bk) for _ in range(rng.randint(2, 4))]
            tree = convex_hull_tree(pts)
            psi = TreeFunction(
                tree,
                {v: F(rng.randint(-6, 6), rng.randint(1, 3)) for v in tree.vertices},
            )
            lap = tree_laplacian(psi)
            assert dirichlet_norm(psi) == energy_pairing(lap, lap, tree.root)

    _run(8, "potential-theory identities", body)


def test_criterion_09_equilibrium_invariance_and_detection():
    def body():
        can = BerkPoint.canonical(B3)
        for text in ("z^2+1", "(z^2+1)/z"):
            R = RationalMap.parse(text, B3)
            chain = equilibrium_approx(R, can, 8)
            for level in chain.levels:
                assert level == AtomicMeasure.dirac(can)
            assert theorem_e_detect(R) is True
        R0 = RationalMap.parse("(z^5 - 243)/z^2", B3)
        assert theorem_e_detect(R0) is False
        chain = equilibrium_approx(R0, can, 6)
        target = (3 / 5) * math.log(5 / 3) + (2 / 5) * math.log(5 / 2)
        assert abs(entropy_lower_bound(R0, chain) - target) < 0.02

    _run(9, "equilibrium invariance and detection", body)


def test_criterion_10_holder_mass_bound():
    def body():
        rng = random.Random(10001)
        R0 = RationalMap.parse("(z^5 - 243)/z^2", B3)
        chain = equilibrium_approx(R0, BerkPoint.canonical(B3), 6)
        samples = [
            (B3.from_int(rng.randint(-10, 10)), F(rng.randint(0, 6)))
            for _ in range(50)
        ]
        C, alpha, violations = holder_probe(chain, samples)
        assert violations == []
        assert C > 0 and 0 < alpha <= 1

    _run(10, "one-sided Hoelder mass bound", body)


def test_criterion_11_mixing_decay_probe():
    def body():
        M = sk.catalog("R1")
        code = sk.SymbolicCode(M)
        D = M.total_degree
        _, _, weights = sk.entropies(M)
        # the proof-style constant: the largest depth-1 cylinder variance,
        # an upper bound for the kernel integral against the weight measure
        C = max(w * (1 - w) for w in weights)
        for a in range(M.k):
            for b in range(M.k):
                for n in range(2, 8):
                    assert code.bernoulli_correlation(a, b, n) == 0
                corr0 = code.bernoulli_correlation(a, b, 0)
                assert abs(corr0) <= C  # envelope at n = 0, exact rationals
                corr1 = code.bernoulli_correlation(a, b, 1)
                assert float(abs(corr1)) <= float(C) * D ** (-1 / 2) + 1e-15

    _run(11, "exact mixing decay", body)
