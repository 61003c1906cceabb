"""Ground truth built without berkdyn: exact rational and F_p arithmetic.

Everything here works on plain ``Fraction`` and ``int`` lists, so the
benchmark's expected answers never come from the code it measures.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class WrongAnswer(Exception):
    """An output disagrees with its oracle; the run aborts."""


def vp(q: Fraction, p: int):
    """p-adic valuation of a rational (math.inf for 0)."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    v = 0
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def series_valuation(terms, p=None):
    """Valuation of a finite Laurent series {exponent: coefficient}; with p,
    coefficients are read in F_p."""
    live = [e for e, c in terms.items() if (c % p if p else c) != 0]
    return min(live) if live else math.inf


# -- rational polynomials (ascending coefficient lists) ----------------------


def qtrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def qdivmod(a, b):
    a, b = qtrim(a), qtrim(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = Fraction(a[-1]) / b[-1]
        s = len(a) - len(b)
        q[s] = c
        for i, y in enumerate(b):
            a[s + i] -= c * y
        a = qtrim(a)
    return qtrim(q), a


def qgcd(a, b):
    a, b = qtrim(a), qtrim(b)
    while b:
        a, b = b, qdivmod(a, b)[1]
    return a


def lowest_terms(num, den):
    """num/den with their common factor removed."""
    g = qgcd(num, den)
    return qdivmod(num, g)[0], qdivmod(den, g)[0]


def reduced_degree(num, den):
    """Degree of the rational function num/den."""
    n, d = lowest_terms(num, den)
    return max(len(n), len(d)) - 1


def negate_conjugate(num, den):
    """Coefficients of -R(-z) for R = num/den: the conjugate of R by the tree
    isometry z -> -z, which fixes the Gauss point and maps B(c, r) to B(-c, r)."""
    num2 = [-c if i % 2 == 0 else c for i, c in enumerate(num)]
    den2 = [c if i % 2 == 0 else -c for i, c in enumerate(den)]
    return num2, den2


def fp_value(q: Fraction, p: int) -> int:
    """The image of a p-integral rational in F_p."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, p) % p


# -- polynomials over F_p (ascending int lists) -------------------------------


def fp_divmod(a, b, p):
    a = [x % p for x in a]
    while a and a[-1] == 0:
        a.pop()
    inv = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = a[-1] * inv % p
        s = len(a) - len(b)
        q[s] = c
        for i, y in enumerate(b):
            a[s + i] = (a[s + i] - c * y) % p
        while a and a[-1] == 0:
            a.pop()
    return q, a


def fp_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            if not fp_divmod(f, list(tail) + [1], p)[1]:
                return False
    return True


def random_irreducible(rng, p, d):
    """A uniformly drawn monic irreducible of degree d over F_p (nonzero
    constant term, so 0 is never a root)."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if f[0] and fp_irreducible(f, p):
            return f
