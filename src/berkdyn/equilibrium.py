"""Equilibrium-measure approximation and its diagnostics.

The approximation scheme is the normalized iterated pullback of a Dirac mass:
each level spreads every atom over its fiber weighted by local degrees and
divides by the degree.  On top of it sit the invariance check, ball-mass /
Hölder probes, the mean-degree entropy bound, the Jacobian, a semi-decision
procedure for "the measure is a single invariant type-II atom", and the
divisor of solutions of R^n = S.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .berkovich import BerkPoint, hyperbolic_distance, join, order_leq
from .errors import ExtensionBound, Inconclusive, ParamDomain, PrecisionExhausted
from .measures import AtomicMeasure, pullback, pushforward
from . import polys
from .roots import roots_with_mult

# the least hyperbolic distance between two atoms that counts them as spread
SPREAD_MARGIN = Fraction(1, 8)


class EquilibriumApprox:
    """The chain of normalized pullbacks deg^(-n) (R*)^n [base], kept at all
    intermediate levels for invariance diagnostics.  degrees maps atoms of
    the last level to their local degree under map, the multiplicity the
    fiber search gave them; it may leave atoms out (it is empty at n = 0)."""

    __slots__ = ("map", "base", "n", "levels", "degrees")

    def __init__(self, R, base: BerkPoint, n: int, levels, degrees):
        self.map = R
        self.base = base
        self.n = n
        self.levels = levels
        self.degrees = degrees

    @property
    def measure(self) -> AtomicMeasure:
        return self.levels[self.n]


def equilibrium_approx(R, base: BerkPoint, n: int, partial=False) -> EquilibriumApprox:
    """Normalized n-fold pullback of a Dirac mass at the base point."""
    if R.degree < 2:
        raise ParamDomain("equilibrium approximation needs degree >= 2")
    d = Fraction(R.degree)
    levels = [AtomicMeasure.dirac(base)]
    degrees = {}
    for _ in range(n):
        # pullback(R, delta_p) is the sum of deg_q * delta_q over the fiber
        # of p: its masses are the local degrees of the next level's atoms
        atoms, degrees = [], {}
        for p, m in levels[-1].atoms:
            fiber = pullback(R, AtomicMeasure.dirac(p), partial=partial)
            degrees.update((q, int(deg)) for q, deg in fiber.atoms)
            atoms += fiber.scale(m / d).atoms
        levels.append(AtomicMeasure(atoms))
    return EquilibriumApprox(R, base, n, levels, degrees)


def invariance_defect(approx: EquilibriumApprox) -> Fraction:
    """Total-variation distance between the pushforward R_* mu_n of the last
    level and the level before it, mu_(n-1).  Images are computed by
    `image_point` and levels by the fiber search, so the two sides come from
    independent code; the defect is exactly 0 whenever every fiber of the
    last step resolves, and equals the mass dropped there by a partial
    chain.  Type-I atoms known only to finite precision have images that
    cannot equal their exact targets, so they raise PrecisionExhausted."""
    if approx.n < 1:
        raise ParamDomain("invariance defect needs at least one pullback level")
    pushed = pushforward(approx.map, approx.measure)
    for p, _ in pushed.atoms:
        if p.is_type_i and not p.value.is_exact:
            raise PrecisionExhausted(f"image {p!r} is known only to finite precision")
    return pushed.total_variation_distance(approx.levels[approx.n - 1])


def ball_mass(approx: EquilibriumApprox, z, r_log) -> Fraction:
    """Mass carried by the closed ball B(z, r_log) around a type-I center:
    atoms whose join with the center is at least as deep as the ball."""
    center = BerkPoint.type_i(z)
    r_log = Fraction(r_log)
    acc = Fraction(0)
    for p, m in approx.measure.atoms:
        j = join(p, center)
        if not j.is_infinity and j.logr >= r_log:
            acc += m
    return acc


def lipschitz_valuation_bound(R) -> Fraction:
    """A valuation-scale Lipschitz bound for the map on the sphere metric:
    after joint normalization of the coefficient pair, the spherical distance
    expands by at most base^(2*val(resultant)).  Returns the exponent
    2*val(Res) (>= 0)."""
    bk = R.backend
    num = R.num if R.num else [bk.zero()]
    g = min(polys.gauss_valuation(num, 0), polys.gauss_valuation(R.den, 0))
    scale = bk.uniformizer_pow(-g)
    P = [c * scale for c in num]
    Q = [c * scale for c in R.den]
    rv = _resultant_valuation(P, Q)
    return 2 * max(Fraction(0), rv)


def _resultant_valuation(P, Q) -> Fraction:
    """Valuation of the Sylvester resultant of two polynomials."""
    P = polys.trim(list(P))
    Q = polys.trim(list(Q))
    n, m = polys.degree(P), polys.degree(Q)
    if n < 0 or m < 0:
        raise ParamDomain("resultant of a zero polynomial")
    size = n + m
    if size == 0:
        return Fraction(0)
    bk = P[0].backend
    rows = []
    for i in range(m):
        row = [bk.zero()] * size
        for j, c in enumerate(reversed(P)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [bk.zero()] * size
        for j, c in enumerate(reversed(Q)):
            row[i + j] = c
        rows.append(row)
    # Gaussian elimination with valuation pivoting; det = product of pivots
    acc = Fraction(0)
    for col in range(size):
        pivot = None
        best = None
        for r in range(col, size):
            c = rows[r][col]
            if c.is_zero_to_precision():
                continue
            v = c.valuation_lower_bound()
            if best is None or v < best:
                best, pivot = v, r
        if pivot is None:
            return math.inf
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        acc += lead.valuation()
        for r in range(col + 1, size):
            c = rows[r][col]
            if c.is_zero_to_precision():
                continue
            f = c / lead
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return acc


def holder_probe(approx: EquilibriumApprox, samples):
    """Fit the one-sided Hölder mass bound: for sampled balls (center z,
    valuation radius r_log), find the smallest C with
    mass(B(z, r)) <= C * r^alpha, where alpha = log(deg) / log(Lipschitz).

    Returns (C, alpha, violations) — violations is always empty for the
    fitted C and is reported so callers can re-check a fixed C."""
    R = approx.map
    bk = R.backend
    base = bk.p if bk.p else math.e
    expo = lipschitz_valuation_bound(R)
    M = float(base) ** float(expo)
    if M <= 1.0:
        alpha = 1.0
    else:
        alpha = min(1.0, math.log(R.degree) / math.log(M))
    C = 0.0
    rows = []
    for z, r_log in samples:
        mass = ball_mass(approx, z, r_log)
        r = float(base) ** float(-Fraction(r_log))
        rows.append((float(mass), r))
        if mass > 0 and r > 0:
            C = max(C, float(mass) / r ** alpha)
    violations = [(m, r) for m, r in rows if m > C * r ** alpha + 1e-12]
    return C, alpha, violations


def mean_degree(R, approx: EquilibriumApprox) -> float:
    """Geometric mean of the local degree against the approximate measure.
    An atom whose degree the chain of R kept is not asked again."""
    kept = approx.degrees if R is approx.map else {}
    acc = 0.0
    for p, m in approx.measure.atoms:
        deg = kept[p] if p in kept else R.local_degree(p)
        acc += float(m) * math.log(deg)
    return math.exp(acc)


def entropy_lower_bound(R, approx: EquilibriumApprox) -> float:
    """log(deg) minus the log mean degree: a lower bound for the metric
    entropy of the equilibrium measure."""
    return math.log(R.degree) - math.log(mean_degree(R, approx))


def jacobian(R, S: BerkPoint) -> Fraction:
    """Local volume-expansion factor of the equilibrium measure: the degree
    of the map divided by the local degree at the point."""
    return Fraction(R.degree, R.local_degree(S))


def theorem_e_detect(R, n_max=8):
    """Semi-decision: does the equilibrium measure collapse to a single
    invariant type-II atom?

    True when the pullback chain from the canonical point stabilizes on one
    atom that is totally invariant; False when at least two atoms separated
    by SPREAD_MARGIN persist over consecutive levels; Inconclusive
    otherwise."""
    if R.degree < 2:
        raise ParamDomain("detection needs degree >= 2")
    base = BerkPoint.canonical(R.backend)
    measure = AtomicMeasure.dirac(base)
    d = Fraction(R.degree)
    prev_spread = False
    chain = []
    for _ in range(n_max):
        measure = pullback(R, measure).scale(1 / d)
        atoms = measure.atoms
        if len(atoms) == 1 and atoms[0][0].is_type_ii:
            S = atoms[0][0]
            if chain and S == chain[-1] and _totally_invariant(R, S):
                return True
            chain.append(S)
            prev_spread = False
            cand = _extrapolate_chain(chain)
            if cand is not None and _totally_invariant(R, cand):
                return True
            continue
        chain = []
        seps = [
            hyperbolic_distance(a, b)
            for i, (a, _) in enumerate(atoms)
            for b, _ in (x for x in atoms[i + 1 :])
            if a.is_type_ii and b.is_type_ii
        ]
        spread = len(atoms) >= 2 and seps and min(seps) >= SPREAD_MARGIN
        if spread and prev_spread:
            return False
        prev_spread = spread
    raise Inconclusive("pullback chain neither collapsed nor provably spread")


def _totally_invariant(R, S: BerkPoint) -> bool:
    try:
        fiber = R.preimages(S)
    except ExtensionBound:
        return False
    return len(fiber) == 1 and fiber[0][0] == S and fiber[0][1] == R.degree


def _extrapolate_chain(chain):
    """Exact limit of a geometrically contracting monotone single-atom chain:
    for the last three comparable atoms with shrinking gaps, extend past the
    newest one by gap * ratio / (1 - ratio)."""
    if len(chain) < 3:
        return None
    a, b, c = chain[-3], chain[-2], chain[-1]
    if not (_comparable(a, b) and _comparable(b, c)):
        return None
    d1 = hyperbolic_distance(a, b)
    d2 = hyperbolic_distance(b, c)
    if d1 == 0 or d2 == 0 or d2 >= d1:
        return None
    r = d2 / d1
    extra = d2 * r / (1 - r)
    direction = 1 if c.logr > b.logr else -1
    return BerkPoint.type_ii(c.value, c.logr + direction * extra)


def _comparable(a, b):
    return order_leq(a, b) or order_leq(b, a)


def periodic_solution_measure(R, S, n: int, partial=False) -> AtomicMeasure:
    """The divisor of solutions of R^n = S as an atomic measure: atoms at the
    finite roots of (numerator cross-difference) with multiplicities, plus
    the degree deficit at infinity."""
    bk = R.backend
    Rn = R.iterate(n)
    F = polys.sub(polys.mul(Rn.num, S.den), polys.mul(S.num, Rn.den))
    F = polys.trim(F)
    if not F:
        raise ParamDomain("R^n equals S: the solution set is everything")
    total = R.degree ** n + S.degree
    atoms = [
        (BerkPoint.type_i(r), Fraction(m))
        for r, m in roots_with_mult(F, partial=partial)
    ]
    inf_mult = total - polys.degree(F)
    if inf_mult:
        atoms.append((BerkPoint.infinity(bk), Fraction(inf_mult)))
    return AtomicMeasure(atoms)


def partition_masses(approx: EquilibriumApprox, depth: int):
    """Masses of the residue-class ball partition at the given depth: one
    closed ball B(c, depth) per residue c mod p^depth, plus the remainder
    (atoms outside every listed ball)."""
    bk = approx.map.backend
    p = bk.p
    if p is None:
        raise ParamDomain("residue partition needs a positive residue characteristic")
    out = {}
    covered = Fraction(0)
    for c in range(p ** depth):
        m = ball_mass(approx, bk.from_int(c), Fraction(depth))
        out[c] = m
        covered += m
    out["rest"] = approx.measure.total_mass - covered
    return out
