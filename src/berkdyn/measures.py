"""Finite atomic measures, finite metric trees, and tree potential theory.

Measures are finite lists of (point, rational mass) atoms.  Pushforward moves
atoms through the map; pullback spreads each atom over its fiber weighted by
local degrees.  Potentials are computed against the Gromov-product kernel
based at a chosen type-II point, and their distributional Laplacians are
realized combinatorially on finite trees (sum of outgoing slopes at each
vertex, with boundary vertices absorbing the outward mass).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .berkovich import (
    BerkPoint,
    gromov_product,
    hyperbolic_distance,
    join,
    order_leq,
)
from .errors import NonzeroMass, TypeIAtom


class AtomicMeasure:
    """A finite atomic measure: atoms (point, mass) with exact rational mass.

    Signed combinations (differences, Laplacians) are allowed; atoms with
    mass 0 are dropped and atoms at equal points are merged."""

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        # a dict keeps the first point object and the first-occurrence order
        merged = {}
        for pt, m in atoms:
            m = Fraction(m)
            if m:
                merged[pt] = merged[pt] + m if pt in merged else m
        self.atoms = [(p, m) for p, m in merged.items() if m]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def dirac(point: BerkPoint, mass=1) -> "AtomicMeasure":
        return AtomicMeasure([(point, Fraction(mass))])

    @staticmethod
    def zero() -> "AtomicMeasure":
        return AtomicMeasure([])

    # -- algebra --------------------------------------------------------

    @property
    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def mass_at(self, point: BerkPoint) -> Fraction:
        for p, m in self.atoms:
            if p == point:
                return m
        return Fraction(0)

    def __add__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return AtomicMeasure(self.atoms + other.atoms)

    def __sub__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return self + other.scale(-1)

    def scale(self, c) -> "AtomicMeasure":
        c = Fraction(c)
        if not c:
            return AtomicMeasure.zero()
        # the atoms are already distinct and nonzero: no merge needed
        out = AtomicMeasure.__new__(AtomicMeasure)
        out.atoms = [(p, c * m) for p, m in self.atoms]
        return out

    def __eq__(self, other):
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        if len(self.atoms) != len(other.atoms):
            return False
        theirs = dict(other.atoms)
        return all(theirs.get(p) == m for p, m in self.atoms)

    def __repr__(self):
        inner = " + ".join(f"{m}*[{p!r}]" for p, m in self.atoms)
        return f"AtomicMeasure({inner or '0'})"

    def total_variation_distance(self, other: "AtomicMeasure") -> Fraction:
        diff = self - other
        return sum((abs(m) for _, m in diff.atoms), Fraction(0))

    # -- serialization --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            [{"point": p.to_json(), "mass": str(m)} for p, m in self.atoms]
        )

    @staticmethod
    def from_json(bk, text: str) -> "AtomicMeasure":
        data = json.loads(text)
        return AtomicMeasure(
            [(BerkPoint.from_json(bk, d["point"]), Fraction(d["mass"])) for d in data]
        )


# -- transport under rational maps --------------------------------------


def pushforward(R, rho: AtomicMeasure) -> AtomicMeasure:
    """Direct image: each atom moves to the image of its point; masses of
    colliding images add.  Total mass is preserved."""
    return AtomicMeasure([(R.image_point(p), m) for p, m in rho.atoms])


def pullback(R, rho: AtomicMeasure, partial=False) -> AtomicMeasure:
    """Inverse image weighted by local degrees: each atom of mass m
    contributes m*deg_R(S') at every fiber point S'.  Multiplies total mass
    by the degree of the map."""
    atoms = []
    for p, m in rho.atoms:
        for q, mult in R.preimages(p, partial=partial):
            atoms.append((q, m * mult))
    return AtomicMeasure(atoms)


# -- finite trees -------------------------------------------------------


class FiniteTree:
    """The convex hull of finitely many type-II points: a finite metric tree
    whose vertex set is closed under pairwise join, with edges between each
    vertex and its immediate successor and hyperbolic-metric lengths."""

    __slots__ = ("vertices", "edges", "root")

    def __init__(self, vertices, edges, root):
        self.vertices = vertices
        self.edges = edges  # list of (v, w, length) with v < w in tree order
        self.root = root

    @staticmethod
    def hull(points) -> "FiniteTree":
        pts = []
        for p in points:
            if not p.is_type_ii:
                raise TypeIAtom("finite trees are built from type-II points")
            if p not in pts:
                pts.append(p)
        if not pts:
            raise ValueError("hull of an empty point set")
        verts = list(pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                v = join(pts[i], pts[j])
                if v not in verts:
                    verts.append(v)
        verts.sort(key=lambda p: p.sort_key())
        root = verts[0]
        for v in verts[1:]:
            root = join(root, v)
        edges = []
        for v in verts:
            if v == root:
                continue
            above = [w for w in verts if w != v and order_leq(v, w)]
            parent = min(above, key=lambda w: hyperbolic_distance(v, w))
            edges.append((v, parent, hyperbolic_distance(v, parent)))
        return FiniteTree(verts, edges, root)

    def neighbors(self, v):
        out = []
        for a, b, ln in self.edges:
            if a == v:
                out.append((b, ln))
            elif b == v:
                out.append((a, ln))
        return out

    def contains(self, p: BerkPoint) -> bool:
        return self.retract(p) == p

    def retract(self, p: BerkPoint) -> BerkPoint:
        """Retraction onto the tree: the unique closest point of the hull.

        The path from p toward the root meets each branch [v, root] at
        join(p, v); the retraction is the deepest of those meeting points."""
        if not p.is_type_ii:
            raise TypeIAtom("retraction is defined here for type-II points")
        if join(p, self.root) != self.root:
            # the point attaches to the tree above its top vertex
            return self.root
        best = None
        for v in self.vertices:
            j = join(p, v)
            if best is None or order_leq(j, best):
                best = j
        return best

    def locate(self, p: BerkPoint):
        """(v, w, distance from v) for the edge containing a point of the
        tree, or (v, None, 0) when the point is a vertex."""
        if p in self.vertices:
            return p, None, Fraction(0)
        for v, w, _ in self.edges:
            if order_leq(v, p) and order_leq(p, w):
                return v, w, hyperbolic_distance(v, p)
        raise ValueError("point does not lie on the tree")

    def to_dot(self) -> str:
        lines = ["graph tree {"]
        idx = {v: i for i, v in enumerate(self.vertices)}
        for v in self.vertices:
            lines.append(f'  n{idx[v]} [label="{v!r}"];')
        for v, w, ln in self.edges:
            lines.append(f'  n{idx[v]} -- n{idx[w]} [label="{ln}"];')
        lines.append("}")
        return "\n".join(lines)


def convex_hull_tree(points) -> FiniteTree:
    """Smallest join-closed finite tree containing the given type-II points."""
    return FiniteTree.hull(points)


class TreeFunction:
    """A continuous piecewise-affine function on a finite tree, given by its
    rational values at the vertices and affine interpolation along edges."""

    __slots__ = ("tree", "values")

    def __init__(self, tree: FiniteTree, values):
        self.tree = tree
        self.values = {v: Fraction(values[v]) for v in tree.vertices}

    @staticmethod
    def constant(tree: FiniteTree, c) -> "TreeFunction":
        return TreeFunction(tree, {v: Fraction(c) for v in tree.vertices})

    def slope(self, v, w, length) -> Fraction:
        return (self.values[w] - self.values[v]) / length

    def __call__(self, p: BerkPoint) -> Fraction:
        """Value at any type-II point, via retraction onto the tree."""
        q = self.tree.retract(p)
        v, w, dist = self.tree.locate(q)
        if w is None:
            return self.values[v]
        ln = hyperbolic_distance(v, w)
        return self.values[v] + self.slope(v, w, ln) * dist


# -- potentials and Laplacians ------------------------------------------


def potential_of_measure(rho: AtomicMeasure, S0: BerkPoint, queries):
    """Potential of a measure based at S0: at a query point S the value is
    -(total mass) - sum of mass_i * <S, S_i>_{S0} over the atoms.

    Its tree Laplacian recovers rho - (total mass)*[S0]."""
    if not S0.is_type_ii:
        raise TypeIAtom("base point of a potential must be type II")
    mass = rho.total_mass
    out = []
    for S in queries:
        acc = -mass
        for p, m in rho.atoms:
            acc = acc - m * gromov_product(S, p, S0)
        out.append(acc)
    return out


def potential_function(rho: AtomicMeasure, S0: BerkPoint) -> TreeFunction:
    """The potential of rho interpolated on the convex hull of its atoms
    together with the base point."""
    pts = [p for p, _ in rho.atoms] + [S0]
    tree = convex_hull_tree(pts)
    vals = potential_of_measure(rho, S0, tree.vertices)
    return TreeFunction(tree, dict(zip(tree.vertices, vals)))


def tree_laplacian(phi: TreeFunction) -> AtomicMeasure:
    """Combinatorial distributional Laplacian of a piecewise-affine tree
    function: at each vertex, the sum of outgoing slopes.  Total mass 0."""
    atoms = []
    for v in phi.tree.vertices:
        acc = Fraction(0)
        for w, ln in phi.tree.neighbors(v):
            acc += (phi.values[w] - phi.values[v]) / ln
        atoms.append((v, acc))
    return AtomicMeasure(atoms)


def energy_pairing(rho: AtomicMeasure, sigma: AtomicMeasure, S0: BerkPoint) -> Fraction:
    """Mutual energy of two mass-zero atomic measures on type-II points:
    the double sum of mass_i*mass_j*<S_i, T_j>_{S0}.

    Symmetric, bilinear, and positive definite on mass-zero measures; the
    value does not depend on the choice of base point."""
    if rho.total_mass != 0 or sigma.total_mass != 0:
        raise NonzeroMass("energy pairing requires mass-zero measures")
    for p, _ in rho.atoms + sigma.atoms:
        if not p.is_type_ii:
            raise TypeIAtom("energy atoms must be type II (finite kernel)")
    acc = Fraction(0)
    for p, mp in rho.atoms:
        for q, mq in sigma.atoms:
            acc += mp * mq * gromov_product(p, q, S0)
    return acc


def dirichlet_norm(psi: TreeFunction) -> Fraction:
    """Integral of the squared derivative along the tree: the sum over edges
    of slope^2 * length."""
    acc = Fraction(0)
    for v, w, ln in psi.tree.edges:
        acc += psi.slope(v, w, ln) ** 2 * ln
    return acc


def integrate(phi: TreeFunction, rho: AtomicMeasure) -> Fraction:
    return sum((m * phi(p) for p, m in rho.atoms), Fraction(0))


def correlation(R, rho: AtomicMeasure, phi: TreeFunction, psi: TreeFunction, n: int) -> Fraction:
    """Correlation of two observables after n steps of the dynamics, against
    an (approximately) invariant measure: the integral of (phi o R^n)*psi
    minus the product of the separate integrals."""
    Rn = R.iterate(n) if n else None
    acc = Fraction(0)
    for p, m in rho.atoms:
        q = Rn.image_point(p) if Rn is not None else p
        acc += m * phi(q) * psi(p)
    return acc - integrate(phi, rho) * integrate(psi, rho)
