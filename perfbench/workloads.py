"""The four benchmark workloads: inputs from a seed, the timed op, and the
independent oracle for its answer.

A workload hands the runner rounds of items.  Every round holds the same mix
of input families, so the number of rounds a run fits into its time budget
never changes the mix.  An item is one library call (or a short, fixed
sequence of calls) that counts as ``n_ops`` ops.

Why fixed corpora: fiber costs are heavy-tailed (a failing fiber costs 10 to
200 times a resolving one), so a fresh random corpus per seed would need
thousands of fibers per run before throughput stopped moving between seeds.
``fiber-sweep`` and the Newton family of ``root-descent`` therefore draw a
fixed corpus from criterion 06's generator and run it in antithetic pairs of
rounds: in one round of a pair the seed conjugates each map by the tree
isometry z -> -z (and negates its target), in the other it leaves the map as
drawn, and it shuffles the order.  Two rounds thus run every map both ways,
whatever the seed.  The other families draw fresh inputs from the seed with
a fixed shape (degrees, slopes), which fixes their cost.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

from berkdyn import EQUICHAR0, EQUICHARP, PADIC, Backend
# Library functions are called through their modules, so the tracer's
# rebinding of module attributes reaches the benchmark's own calls too.
from berkdyn import berkovich, equilibrium, polys, roots
from berkdyn.berkovich import BerkPoint
from berkdyn.measures import pushforward
from berkdyn.ratmap import RationalMap

from tracer import KIND_LABELS
from oracle import (
    WrongAnswer,
    fp_value,
    lowest_terms,
    negate_conjugate,
    qtrim,
    random_irreducible,
    reduced_degree,
    series_valuation,
    vp,
)



class Item:
    """One timed unit of work.  ``desc`` names the input exactly; equal
    descs must give equal outputs."""

    __slots__ = ("family", "kind", "desc", "n_ops", "data")

    def __init__(self, family, kind, desc, n_ops, data):
        self.family = family
        self.kind = kind
        self.desc = desc
        self.n_ops = n_ops
        self.data = data


class Workload:
    name = ""
    why = ""
    # traced functions that must record calls on this workload
    exercises = ()
    # a run stops only after a whole number of these rounds
    rounds_per_block = 1

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny

    def rng(self, r):
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def setup(self):
        """Parse fixed maps and draw fixed corpora."""

    def make_round(self, r):
        raise NotImplementedError

    def run(self, item, clock):
        """Run the item; returns (output, per-op latencies read from clock, or
        None when every op of the item has the item's latency)."""
        raise NotImplementedError

    def check(self, item, output):
        """Raise WrongAnswer unless the output matches the oracle."""
        raise NotImplementedError

    def fingerprint(self, output):
        return repr(output)


def _require(cond, message):
    if not cond:
        raise WrongAnswer(message)


# -- equilibrium-chain --------------------------------------------------------


R0_TEXT = "(z^5 - 243)/z^2"
R1_TEXT = "z^2*(1 + 16777216*z^8)/(1 + 4096*z^6)"
# closed form from the branch weights of the R0 skeleton map; R1's bound
# converges too slowly in n to be checked at these depths
R0_ENTROPY = (3 / 5) * math.log(5 / 3) + (2 / 5) * math.log(5 / 2)
ENTROPY_TOL = 0.02


class EquilibriumChain(Workload):
    name = "equilibrium-chain"
    why = ("pullback chains of R0 (2^n atoms, p=3) and its degree-10 companion "
           "R1 ((3^n+1)/2 atoms, p=2): the only load on measures; one map serves every atom")
    exercises = (
        "equilibrium.equilibrium_approx", "equilibrium.entropy_lower_bound",
        "measures.pullback", "measures.AtomicMeasure.init", "measures.AtomicMeasure.scale",
        "ratmap.preimages", "ratmap.image_point", "ratmap.local_degree",
        "polys.recenter", "polys.gauss_valuation", "polys.mul", "residue.rpoly_divmod",
    )

    def setup(self):
        n0, n1 = (3, 2) if self.tiny else (8, 6)
        b3, b2 = Backend(PADIC, p=3), Backend(PADIC, p=2)
        self.chains = [
            ("R0", RationalMap.parse(R0_TEXT, b3), n0, 2 ** n0, R0_ENTROPY, R0_TEXT),
            ("R1", RationalMap.parse(R1_TEXT, b2), n1, (3 ** n1 + 1) // 2, None, R1_TEXT),
        ]

    def make_round(self, r):
        # the maps and the base point are fixed; the seed orders the chains
        items = [Item(fam, PADIC, f"{fam} {text} n={n}", atoms, (R, n, atoms, h))
                 for fam, R, n, atoms, h, text in self.chains]
        self.rng(r).shuffle(items)
        return items

    def run(self, item, clock):
        R, n, _, _ = item.data
        approx = equilibrium.equilibrium_approx(R, BerkPoint.canonical(R.backend), n)
        # every atom becomes available when its chain returns
        return (approx, equilibrium.entropy_lower_bound(R, approx)), None

    def check(self, item, output):
        R, n, atoms, h_closed = item.data
        approx, h = output
        mu = approx.measure
        _require(len(mu.atoms) == atoms, f"{item.desc}: {len(mu.atoms)} atoms, expected {atoms}")
        _require(mu.total_mass == 1, f"{item.desc}: total mass {mu.total_mass}")
        _require(all(m > 0 for _, m in mu.atoms), f"{item.desc}: nonpositive mass")
        _require(pushforward(R, mu) == approx.levels[n - 1],
                 f"{item.desc}: R_* mu_n != mu_(n-1)")
        if h_closed is not None:
            _require(abs(h - h_closed) <= ENTROPY_TOL,
                     f"{item.desc}: entropy bound {h} not within {ENTROPY_TOL} of {h_closed}")

    def fingerprint(self, output):
        approx, h = output
        return repr((approx.measure.atoms, h))


# -- fiber-sweep --------------------------------------------------------------


def criterion06_map(rng):
    """One map of criterion 06's distribution: integer coefficients in
    [-9, 9], numerator and denominator of degree <= 4, degree >= 1."""
    while True:
        num = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
        den = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
        if any(num) and any(den) and reduced_degree(num, den) >= 1:
            return num, den


FIBER_CORPUS_SEED = 6001  # criterion 06's own seed
B3 = Backend(PADIC, p=3)


def antithetic_flips(wl, r, n):
    """Which corpus entries round r conjugates: seed-drawn for the first
    round of each pair, the complement for the second."""
    pair = wl.rng(f"pair{r // 2}")
    flips = [pair.random() < 0.5 for _ in range(n)]
    return flips if r % 2 == 0 else [not f for f in flips]


def _flip(flip, num, den, center):
    if flip:
        num, den = negate_conjugate(num, den)
        center = -center
    return num, den, center


class FiberSweep(Workload):
    name = "fiber-sweep"
    why = ("preimages of type-II targets under 55 criterion-06 maps over padic:p=3, "
           "most of which fail: nothing is reused and failing fibers dominate the time")
    exercises = (
        "ratmap.preimages", "ratmap.image_point", "ratmap.local_degree",
        "polys.recenter", "polys.newton_polygon", "polys.gauss_valuation", "polys.mul",
        "roots.segment_residue_poly", "roots.lift_residue", "fields.residue_roots",
        "residue.rpoly_eval",
    )
    corpus_size = 55
    rounds_per_block = 2  # antithetic pairs

    def setup(self):
        rng = random.Random(FIBER_CORPUS_SEED)
        self.corpus = []
        for _ in range(4 if self.tiny else self.corpus_size):
            num, den = criterion06_map(rng)
            self.corpus.append((num, den, rng.randint(-6, 6), F(rng.randint(-2, 4))))

    def make_round(self, r):
        rng = self.rng(r)
        items = []
        for flip, (num, den, c, logr) in zip(antithetic_flips(self, r, len(self.corpus)), self.corpus):
            num, den, c = _flip(flip, num, den, c)
            R = RationalMap.from_rationals(B3, num, den)
            T = BerkPoint.type_ii(B3.from_int(c), logr)
            items.append(Item("padic3", PADIC, f"{num}/{den} @ B({c},{logr})", 1,
                              (R, T, reduced_degree(num, den))))
        rng.shuffle(items)
        return items

    def run(self, item, clock):
        R, T, _ = item.data
        return R.preimages(T), None

    def check(self, item, output):
        R, T, degree = item.data
        _require(sum(m for _, m in output) == degree,
                 f"{item.desc}: multiplicities sum to {sum(m for _, m in output)}, degree {degree}")
        for q, _ in output:
            _require(R.image_point(q) == T, f"{item.desc}: image of {q!r} is not the target")


# -- root-descent -------------------------------------------------------------


# A corpus seed whose first draws include heavy exact-Newton fibers (about
# 0.3 s and 1.7 s at the seed commit), so the Newton path's worst case is
# always measured.
NEWTON_CORPUS_SEED = 2
# (p, degrees of the two irreducible factors); lcm <= k_max = 4, so every
# root lies in F_{p^k} with k <= 4 and is exact
SPLIT_FAMILIES = [(7, (2, 4)), (7, (4, 4)), (11, (1, 3)), (11, (4, 4))]
SPLIT_SLOPES = (-1, 1)  # valuations of the two factors' roots


class RootDescent(Workload):
    name = "root-descent"
    why = ("Newton/Hensel fibers of type-I targets over padic:p=3 and split products of "
           "irreducibles over laurentfp:p=7,11: the load on roots and residue-field search")
    exercises = (
        "roots.roots_with_mult", "roots.squarefree_roots", "roots.segment_residue_poly",
        "roots.lift_residue", "fields.residue_roots", "residue.rpoly_eval",
        "residue.embed_element", "polys.recenter", "polys.newton_polygon", "ratmap.preimages",
    )
    corpus_size = 60
    rounds_per_block = 2  # antithetic pairs

    def setup(self):
        rng = random.Random(NEWTON_CORPUS_SEED)
        self.corpus = []
        for _ in range(6 if self.tiny else self.corpus_size):
            num, den = criterion06_map(rng)
            self.corpus.append((num, den, F(rng.randint(-6, 6), rng.choice([1, 3]))))
        self.fp = {p: Backend(EQUICHARP, p=p) for p in (7, 11)}

    def make_round(self, r):
        rng = self.rng(r)
        items = []
        for flip, (num, den, x) in zip(antithetic_flips(self, r, len(self.corpus)), self.corpus):
            num, den, x = _flip(flip, num, den, x)
            R = RationalMap.from_rationals(B3, num, den)
            T = BerkPoint.type_i(B3.from_rational(x))
            n_red, d_red = lowest_terms(num, den)
            width = max(len(n_red), len(d_red))  # degree + 1
            A = qtrim([(n_red[i] if i < len(n_red) else 0) - x * (d_red[i] if i < len(d_red) else 0)
                       for i in range(width)])
            items.append(Item("newton-padic3", PADIC, f"{num}/{den} @ {x}", 1,
                              ("fiber", R, T, width - 1, A)))
        families = [(7, (2, 2))] if self.tiny else SPLIT_FAMILIES
        for p, degs in families:
            bk = self.fp[p]
            factors = [random_irreducible(rng, p, d) for d in degs]
            P = [bk.one()]
            for f, s in zip(factors, SPLIT_SLOPES):
                d = len(f) - 1
                scaled = [bk.from_rational(c) * bk.uniformizer_pow(s * (d - i)) for i, c in enumerate(f)]
                P = polys.mul(P, scaled)
            vals = sorted(v for f, s in zip(factors, SPLIT_SLOPES) for v in [s] * (len(f) - 1))
            items.append(Item(f"laurentfp{p}", EQUICHARP, f"F_{p}: {factors} slopes {SPLIT_SLOPES}", 1,
                              ("split", P, vals)))
        rng.shuffle(items)
        return items

    def run(self, item, clock):
        if item.data[0] == "fiber":
            return item.data[1].preimages(item.data[2]), None
        return roots.roots_with_mult(item.data[1]), None

    def check(self, item, output):
        if item.data[0] == "fiber":
            _, R, T, degree, A = item.data
            _require(sum(m for _, m in output) == degree, f"{item.desc}: multiplicities != degree")
            Ae = [B3.from_rational(c) for c in A]
            for q, m in output:
                if q.is_infinity:
                    drop = degree - max(len(A) - 1, 0)
                    _require(m == drop, f"{item.desc}: multiplicity {m} at infinity, expected {drop}")
                    continue
                value = polys.evaluate(Ae, q.value)
                _require(value.is_zero_to_precision(),
                         f"{item.desc}: fiber point {q!r} leaves a nonzero value {value!r}")
            return
        _, P, vals = item.data
        _require(sum(m for _, m in output) == len(P) - 1,
                 f"{item.desc}: {sum(m for _, m in output)} roots of a degree-{len(P) - 1} polynomial")
        got = sorted(r.valuation() for r, m in output for _ in range(m))
        _require(got == vals, f"{item.desc}: root valuations {got}, expected {vals}")
        for r, _ in output:
            _require(r.is_exact and polys.evaluate(P, r).is_zero(),
                     f"{item.desc}: root {r!r} is not an exact zero")


# -- arith-sampling -----------------------------------------------------------


ARITH_P = 101
ARITH_POINTS = 200
ARITH_DEGREES = [1, 2, 3, 4, 1, 2, 3, 4]


class ArithSampling(Workload):
    name = "arith-sampling"
    why = ("criterion 07's sampling oracle on padic:p=101, laurentq and laurentfp:p=101: "
           "FieldElement add/mul/init for all backends, bypassing roots, ratmap and measures")
    exercises = ("berkovich.seminorm_eval", "polys.evaluate", "polys.recenter",
                 "polys.gauss_valuation")

    def setup(self):
        self.backends = [Backend(PADIC, p=ARITH_P), Backend(EQUICHAR0),
                         Backend(EQUICHARP, p=ARITH_P)]

    def _valuation(self, bk, terms):
        """Valuation of sum(x * pi^k for k, x in terms) by construction."""
        if bk.kind == PADIC:
            return vp(sum((x * F(ARITH_P) ** k for k, x in terms), F(0)), ARITH_P)
        acc = {}
        for k, x in terms:
            acc[k] = acc.get(k, 0) + (fp_value(x, ARITH_P) if bk.kind == EQUICHARP else x)
        return series_valuation(acc, ARITH_P if bk.kind == EQUICHARP else None)

    def make_round(self, r):
        rng = self.rng(r)
        items = []
        degrees = [2] if self.tiny else ARITH_DEGREES
        points = 20 if self.tiny else ARITH_POINTS
        for bk in self.backends:
            for deg in degrees:
                zeros = [(rng.randint(-1, 1), F(rng.randint(-50, 50), rng.choice([1, 1, 2, 3])))
                         for _ in range(deg)]
                lead_k, lead_x = rng.randint(-2, 2), F(rng.randint(1, 100))
                P = [bk.from_rational(lead_x) * bk.uniformizer_pow(lead_k)]
                for k, x in zeros:
                    a = bk.from_rational(x) * bk.uniformizer_pow(k)
                    P = polys.mul(P, [bk.zero() - a, bk.one()])
                c = rng.randint(-50, 50)
                u = F(rng.randint(-3, 6), rng.choice([1, 2]))
                closed = self._valuation(bk, [(lead_k, lead_x)]) + sum(
                    min(u, self._valuation(bk, [(0, F(c)), (k, -x)])) for k, x in zeros)
                S = BerkPoint.type_ii(bk.from_int(c), u)
                zs = []
                for s in range(points):
                    extra = F(0) if s % 4 else F(rng.randint(0, 3))
                    zs.append(bk.from_int(c) + bk.from_int(rng.randint(1, 100)) * bk.uniformizer_pow(u + extra))
                items.append(Item(KIND_LABELS[bk.kind], bk.kind,
                                  f"{bk!r}: {lead_x}*pi^{lead_k} * prod(z - x*pi^k) {zeros} on B({c},{u})",
                                  points, (P, S, zs, closed)))
        rng.shuffle(items)
        return items

    def run(self, item, clock):
        P, S, zs, _ = item.data
        norm = berkovich.seminorm_eval(S, P)
        vals, lat = [], []
        for z in zs:
            t0 = clock()
            vals.append(polys.evaluate(P, z).valuation())
            lat.append(clock() - t0)
        return (norm, vals), lat

    def check(self, item, output):
        closed = item.data[3]
        norm, vals = output
        _require(norm == closed, f"{item.desc}: seminorm {norm}, closed form {closed}")
        _require(min(vals) == norm, f"{item.desc}: sampled minimum {min(vals)} != seminorm {norm}")


WORKLOADS = {w.name: w for w in (EquilibriumChain, FiberSweep, RootDescent, ArithSampling)}
