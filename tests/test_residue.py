"""Residue-field arithmetic and root finding against independent oracles.

Oracles: schoolbook products reduced by the field modulus on plain integer
tuples, with long division and Euclid on them, a brute-force root enumerator
over every element of F_{p^m} with a Frobenius test for the minimal level,
and sympy's factorization and galoistools over F_p."""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from sympy.polys import galoistools as gt

from berkdyn import ExtensionBound
from berkdyn import residue as rs
from berkdyn.fields import UnsplitRoots, residue_roots

# -- plain-integer arithmetic in GF(p, k) = F_p[x]/(modulus) -----------------


def gf_mul(a, b, modulus, p):
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d] % p
        for i, m in enumerate(modulus):
            prod[d - k + i] -= c * m
    return tuple(c % p for c in prod[:k])


def gf_elements(p, k):
    for n in range(p**k):
        yield tuple((n // p**i) % p for i in range(k))


def gf_eval(coeffs, x, modulus, p):
    acc = (0,) * len(x)
    for c in reversed(coeffs):
        acc = tuple((a + b) % p for a, b in zip(gf_mul(acc, x, modulus, p), c))
    return acc


def gf_pow(x, n, modulus, p):
    out = (1,) + (0,) * (len(x) - 1)
    while n:
        if n & 1:
            out = gf_mul(out, x, modulus, p)
        x = gf_mul(x, x, modulus, p)
        n >>= 1
    return out


def brute_embedding(p, k, m):
    """First element of GF(p, m), in enumeration order, where the modulus of
    GF(p, k) vanishes: the image of the generator of GF(p, k)."""
    small = [(c,) + (0,) * (m - 1) for c in rs.ResidueField(p, k).modulus]
    big_mod = rs.ResidueField(p, m).modulus
    zero = (0,) * m
    return next(x for x in gf_elements(p, m) if gf_eval(small, x, big_mod, p) == zero)


def brute_embed(c, p, m, beta):
    big_mod = rs.ResidueField(p, m).modulus
    return gf_eval([(a,) + (0,) * (m - 1) for a in c], beta, big_mod, p)


def brute_roots(coeffs, p, k, k_max):
    """[(field degree, value, multiplicity)] level by level, each level in
    enumeration order, or "ExtensionBound" when nothing is found."""
    deg = len(coeffs) - 1
    found, total, m = [], 0, 1
    while k * m <= k_max and total < deg:
        K = k * m
        mod = rs.ResidueField(p, K).modulus
        beta = brute_embedding(p, k, K) if K > k else None
        emb = [brute_embed(c, p, K, beta) if beta else c for c in coeffs]
        zero = (0,) * K
        for x in gf_elements(p, K):
            if gf_eval(emb, x, mod, p) != zero:
                continue
            if any(m % d == 0 and gf_pow(x, p ** (k * d), mod, p) == x for d in range(1, m)):
                continue
            mult, work = 0, emb
            while True:
                # synthetic division by (X - x)
                acc, out = zero, []
                for c in reversed(work):
                    acc = tuple((a + b) % p for a, b in zip(gf_mul(acc, x, mod, p), c))
                    out.append(acc)
                if out[-1] != zero:
                    break
                work = list(reversed(out[:-1]))
                mult += 1
            found.append((K, x, mult))
            total += mult
        m += 1
    return found or "ExtensionBound"


def library_roots(coeffs, p, k, k_max):
    field = rs.ResidueField(p, k)
    try:
        out = residue_roots([rs.ResidueElement(field, c) for c in coeffs], k_max=k_max)
    except ExtensionBound:
        return "ExtensionBound"
    return [(r.field.k, r.value, mult) for r, mult in out]


def random_poly(rng, p, k, deg):
    coeffs = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(deg + 1)]
    if not any(coeffs[-1]):
        coeffs[-1] = (1,) + (0,) * (k - 1)
    return coeffs


def poly_mul(a, b, p, k):
    mod = rs.ResidueField(p, k).modulus
    out = [(0,) * k] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = tuple((s + t) % p for s, t in zip(out[i + j], gf_mul(x, y, mod, p)))
    return out


def poly_trim(a):
    a = list(a)
    while a and not any(a[-1]):
        a.pop()
    return a


def poly_divmod(a, b, p, k):
    """Long division of coordinate-tuple polynomials over GF(p, k); the
    leading coefficient of b is inverted as its (Q - 2)-th power."""
    mod = rs.ResidueField(p, k).modulus
    a, b = poly_trim(a), poly_trim(b)
    inv_lead = gf_pow(b[-1], p**k - 2, mod, p)
    q = [(0,) * k] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = gf_mul(a[-1], inv_lead, mod, p)
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[i + d] = tuple((s - t) % p for s, t in zip(a[i + d], gf_mul(c, y, mod, p)))
        a = poly_trim(a)
    return q, a


def poly_gcd(a, b, p, k):
    mod = rs.ResidueField(p, k).modulus
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b, p, k)[1]
    if a:
        c = gf_pow(a[-1], p**k - 2, mod, p)
        a = [gf_mul(x, c, mod, p) for x in a]
    return a


def poly_powmod(a, n, m, p, k):
    out = [(1,) + (0,) * (k - 1)]
    a = poly_divmod(a, m, p, k)[1]
    while n:
        if n & 1:
            out = poly_divmod(poly_mul(out, a, p, k) if out and a else [], m, p, k)[1]
        a = poly_divmod(poly_mul(a, a, p, k) if a else [], m, p, k)[1]
        n >>= 1
    return out


# -- tests ---------------------------------------------------------------------


FIELDS = [
    (2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 4), (11, 2), (7, 4),
    (11, 4), (101, 3),
]


@pytest.mark.parametrize("p,k", FIELDS)
def test_products_match_schoolbook(p, k):
    """Products, inverses, powers and p-th roots against gf_mul, on both
    product paths: discrete-log tables for finite fields of at most
    TABLE_LIMIT elements, schoolbook products beyond (here F_(101^3))."""
    rng = random.Random(p * 10 + k)
    field = rs.ResidueField(p, k)
    mod, Q, one = field.modulus, p**k, (1,) + (0,) * (k - 1)
    assert sympy.Poly(list(reversed(mod)), sympy.Symbol("x"), modulus=p).is_irreducible
    tabled = Q <= rs.TABLE_LIMIT
    assert (field._tables is not None) == tabled
    if (p, k) == (101, 3):
        assert not tabled  # the schoolbook path stays under test
    for _ in range(200):
        a = tuple(rng.randrange(p) for _ in range(k))
        b = tuple(rng.randrange(p) for _ in range(k))
        x, y = rs.ResidueElement(field, a), rs.ResidueElement(field, b)
        assert (x * y).value == gf_mul(a, b, mod, p)
        assert (x + y).value == tuple((s + t) % p for s, t in zip(a, b))
        assert (x - y).value == tuple((s - t) % p for s, t in zip(a, b))
        assert x.is_zero() == (not any(a))
        assert gf_pow(x.pth_root().value, p, mod, p) == a
        for n in (rng.randrange(Q), rng.randrange(Q, 3 * Q)):
            assert (x**n).value == gf_pow(a, n, mod, p)
        if not any(a):
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            continue
        inv = x.inverse().value
        assert gf_mul(a, inv, mod, p) == one
        n = rng.randrange(1, 3 * Q)
        assert (x**-n).value == gf_pow(inv, n, mod, p)


@pytest.mark.parametrize("p,k", [f for f in FIELDS if f[0] ** f[1] <= rs.TABLE_LIMIT])
def test_log_and_zech_tables_match_tuple_arithmetic(p, k):
    """Every table by brute force on coordinate tuples: powers[j] = g^j runs
    once through the nonzero elements, by products with g; logs inverts it
    at each elements() position, with logs[0] = Q - 1, the code of zero and
    the position of the zero tuple in powers; zech[j] is the log of g^j + 1."""
    mod, Q = rs.ResidueField(p, k).modulus, p**k
    powers, logs, zech = rs._log_tables(p, k)
    n, zero, one = Q - 1, (0,) * k, (1,) + (0,) * (k - 1)
    elements = list(gf_elements(p, k))
    assert len(powers) == Q and len(logs) == Q and len(zech) == n
    assert powers[0] == one and powers[n] == zero
    assert sorted(powers[:n]) == sorted(x for x in elements if x != zero)
    g = powers[1 % n]
    assert all(gf_mul(powers[j], g, mod, p) == powers[(j + 1) % n] for j in range(n))
    assert [powers[logs[i]] for i in range(Q)] == elements
    for j in range(n):
        plus_one = tuple((a + b) % p for a, b in zip(powers[j], one))
        assert powers[zech[j]] == plus_one


TABLES_AT_FIRST_USE = """
import re, sys
from pathlib import Path
from berkdyn import residue as rs
from berkdyn.fields import parse_backend

specs = set(re.findall(r"\\b(?:padic|laurentq|laurentfp)(?::[a-z0-9=,]+)?", Path(sys.argv[1]).read_text()))
assert {"padic:p=3", "laurentq:prec=40", "laurentfp:p=2,k=1"} <= specs, specs
for spec in sorted(specs):
    parse_backend(spec).residue_field()
fields = [rs.ResidueField(p, 1) for p in (3, 7, 101)]
assert rs._log_tables.cache_info().currsize == 0, rs._log_tables.cache_info()
rs.rpoly_mul([fields[1].one()], [fields[1].one()], fields[1])
assert rs._log_tables.cache_info().currsize == 1, rs._log_tables.cache_info()
"""


def test_tables_are_built_at_first_use_not_with_the_field():
    """Setup stays cheap: in a fresh interpreter, parsing the README's
    backend specs and building GF(3), GF(7) and GF(101) builds no log or Zech
    table; GF(7)'s comes with its first polynomial product."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-c", TABLES_AT_FIRST_USE, str(root / "README.md")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr


def _operands(rng, p, k, n):
    """n random (a, b, m, e): a possibly zero and untrimmed, b nonzero, m of
    degree >= 1, exponents up to twice the field size."""
    for _ in range(n):
        a = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(rng.randint(0, 7))]
        b = random_poly(rng, p, k, rng.randint(0, 5))
        m = random_poly(rng, p, k, rng.randint(1, 5))
        if rng.random() < 0.3:  # a common factor for the gcd
            a, b = poly_mul(poly_trim(a) or [(1,) + (0,) * (k - 1)], m, p, k), poly_mul(b, m, p, k)
        yield a, b, m, rng.randrange(2 * p**k)


@pytest.mark.parametrize("p", [2, 3, 7, 11, 101])
def test_prime_field_polynomials_match_galoistools(p):
    """rpoly_mul, rpoly_divmod, rpoly_gcd and rpoly_powmod over F_p against
    sympy's galoistools (descending integer lists)."""
    K = sympy.ZZ
    field = rs.ResidueField(p)

    def ours(poly):
        return [c.value[0] for c in poly]

    def theirs(c):
        return [int(x) for x in reversed(c)]

    def dense(a):
        return gt.gf_strip([t[0] for t in reversed(a)])

    def el(a):
        return [rs.ResidueElement(field, t) for t in a]

    for a, b, m, e in _operands(random.Random(900 + p), p, 1, 60):
        A, B, M = dense(a), dense(b), dense(m)
        assert ours(rs.rpoly_mul(el(a), el(b), field)) == theirs(gt.gf_mul(A, B, p, K))
        q, r = rs.rpoly_divmod(el(a), el(b), field)
        assert (ours(q), ours(r)) == tuple(theirs(x) for x in gt.gf_div(A, B, p, K))
        assert ours(rs.rpoly_gcd(el(a), el(b), field)) == theirs(gt.gf_gcd(A, B, p, K))
        assert ours(rs.rpoly_powmod(el(a), e, el(m), field)) == theirs(gt.gf_pow_mod(A, e, M, p, K))


@pytest.mark.parametrize("p,k", [f for f in FIELDS if f[1] > 1])
def test_extension_field_polynomials_match_tuple_arithmetic(p, k):
    """The same four operations over GF(p, k) against long division and
    Euclid on coordinate tuples with gf_mul: through the tables up to
    TABLE_LIMIT elements, on ResidueElements beyond (F_(101^3))."""
    field = rs.ResidueField(p, k)

    def ours(poly):
        return [c.value for c in poly]

    def el(a):
        return [rs.ResidueElement(field, t) for t in a]

    for a, b, m, e in _operands(random.Random(100 * p + k), p, k, 25):
        a_t = poly_trim(a)
        assert ours(rs.rpoly_mul(el(a), el(b), field)) == (poly_mul(a_t, b, p, k) if a_t else [])
        assert tuple(map(ours, rs.rpoly_divmod(el(a), el(b), field))) == poly_divmod(a, b, p, k)
        assert ours(rs.rpoly_gcd(el(a), el(b), field)) == poly_gcd(a, b, p, k)
        assert ours(rs.rpoly_powmod(el(a), e, el(m), field)) == poly_powmod(a, e, m, p, k)


@pytest.mark.parametrize("p,k,m", [(2, 2, 4), (2, 4, 8), (3, 2, 4), (5, 2, 4), (7, 2, 4)])
def test_embedding_image_is_first_root_of_modulus(p, k, m):
    assert rs._embedding_image(p, k, m) == brute_embedding(p, k, m)


def _corpus(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        p, k = rng.choice([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2)])
        k_max = rng.choice([k, 2 * k] if k == 2 else [1, 2, 3, 4])
        if p ** k_max > 625:
            k_max = 2 * k if k == 2 and p ** (2 * k) <= 625 else max(k, 3)
        if rng.random() < 0.5:
            coeffs = random_poly(rng, p, k, rng.randint(1, 6))
        else:
            # repeated factors: a^2 * b, sometimes a^3 * b
            a = random_poly(rng, p, k, rng.randint(1, 2))
            b = random_poly(rng, p, k, rng.randint(0, 2))
            coeffs = poly_mul(poly_mul(a, a, p, k), b, p, k)
            if rng.random() < 0.3:
                coeffs = poly_mul(coeffs, a, p, k)
        yield p, k, k_max, coeffs


@pytest.mark.parametrize("chunk", range(4))
def test_roots_match_brute_force(chunk):
    for p, k, k_max, coeffs in list(_corpus(2024, 160))[chunk::4]:
        assert library_roots(coeffs, p, k, k_max) == brute_roots(coeffs, p, k, k_max), (p, k, k_max, coeffs)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_root_counts_per_level_match_sympy(p):
    x = sympy.Symbol("x")
    rng = random.Random(p)
    for _ in range(40):
        deg = rng.randint(1, 8)
        coeffs = random_poly(rng, p, 1, deg)
        if rng.random() < 0.4:
            a = random_poly(rng, p, 1, rng.randint(1, 2))
            coeffs = poly_mul(poly_mul(coeffs, a, p, 1), a, p, 1)
        _, factors = sympy.Poly([c[0] for c in reversed(coeffs)], x, modulus=p).factor_list()
        want = {}
        for f, e in factors:
            d = f.degree()
            if d <= 4:
                distinct, total = want.get(d, (0, 0))
                want[d] = (distinct + d, total + d * e)
        got = library_roots(coeffs, p, 1, 4)
        if not want:
            assert got == "ExtensionBound"
            continue
        have = {}
        for level, _, mult in got:
            distinct, total = have.get(level, (0, 0))
            have[level] = (distinct + 1, total + mult)
        assert have == want, coeffs


def test_trace_split_in_characteristic_two():
    """Three distinct roots in F_256 (too many elements per degree to
    enumerate): found by splitting with the absolute trace."""
    big = rs.ResidueField(2, 8)
    rng = random.Random(5)
    chosen = set()
    while len(chosen) < 3:
        chosen.add(tuple(rng.randrange(2) for _ in range(8)))
    g = [big.one()]
    for r in chosen:
        g = rs.rpoly_mul(g, [-rs.ResidueElement(big, r), big.one()], big)
    assert big.p**big.k > rs.ENUMERATE_PER_DEGREE * 3
    got = [r.value for r in rs.rpoly_split_roots(g, big, 2**8)]
    assert got == [x for x in gf_elements(2, 8) if x in chosen]


def test_quadratic_over_f16_needs_f256():
    """An irreducible quadratic over F_16: its two roots lie in F_256."""
    p, k = 2, 4
    mod = rs.ResidueField(p, k).modulus
    for c0 in gf_elements(p, k):
        for c1 in gf_elements(p, k):
            coeffs = [c0, c1, (1, 0, 0, 0)]
            if all(gf_eval(coeffs, x, mod, p) != (0,) * k for x in gf_elements(p, k)):
                break
        else:
            continue
        break
    got = library_roots(coeffs, p, k, 8)
    assert got == brute_roots(coeffs, p, k, 8)
    assert [(level, mult) for level, _, mult in got] == [(8, 1), (8, 1)]


def test_irreducible_cubic_over_f101():
    """Roots in F_{101^3}: a conjugate triple r, r^101, r^(101^2)."""
    p = 101
    x = sympy.Symbol("x")
    b = next(b for b in range(1, p) if sympy.Poly(x**3 + x + b, x, modulus=p).is_irreducible)
    coeffs = [b, 1, 0, 1]
    got = library_roots([(c,) for c in coeffs], p, 1, 4)
    assert [(level, mult) for level, _, mult in got] == [(3, 1)] * 3
    values = [v for _, v, _ in got]
    assert values == sorted(values, key=lambda v: v[::-1])
    mod = rs.ResidueField(p, 3).modulus
    r = values[0]
    r1 = gf_pow(r, p, mod, p)
    r2 = gf_pow(r1, p, mod, p)
    assert sorted(values) == sorted([r, r1, r2])
    for v in values:
        assert gf_eval([(c, 0, 0) for c in coeffs], v, mod, p) == (0, 0, 0)



def random_irreducible(rng, p, k, deg):
    """A random monic irreducible of degree deg <= 4 over GF(p, k), by brute
    force: one without roots in GF(p, k) (deg 2 or 3), or in GF(p, 2k)
    (deg 4, which then has no factor of degree 1 or 2)."""
    one = (1,) + (0,) * (k - 1)
    K = 2 * k if deg == 4 else k
    beta = brute_embedding(p, k, K) if K > k else None
    mod = rs.ResidueField(p, K).modulus
    while True:
        f = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(deg)] + [one]
        emb = [brute_embed(c, p, K, beta) for c in f] if beta else f
        if deg == 1 or all(gf_eval(emb, x, mod, p) != (0,) * K for x in gf_elements(p, K)):
            return f


@functools.lru_cache(maxsize=None)
def _split_corpus(p, k):
    """[(coefficients, brute_roots)] for products of distinct irreducibles
    over GF(p, k) whose roots lie in GF(p^4): two or three factors, some of
    one degree, one factor squared in some; the first product has two
    factors of degree 4 / k.  A factor that keeps repeating one already
    drawn (F_2 has one irreducible quadratic) is left out."""
    rng = random.Random(100 * p + k)
    out = []
    top = 4 // k
    for n in range(6 if p**4 <= 2401 else 3):
        degs = [top, top] if n == 0 else [
            rng.choice([d for d in (1, 2, 4) if d <= top]) for _ in range(rng.randint(2, 3))
        ]
        factors = []
        for d in degs:
            for _ in range(20):
                f = random_irreducible(rng, p, k, d)
                if f not in factors:
                    factors.append(f)
                    break
        coeffs = [(1,) + (0,) * (k - 1)]
        for f in factors:
            coeffs = poly_mul(coeffs, f, p, k)
        if rng.random() < 0.4:
            coeffs = poly_mul(coeffs, factors[0], p, k)
        out.append((coeffs, brute_roots(coeffs, p, k, 4)))
    return out


@pytest.mark.parametrize("split", [False, True], ids=["default", "always-split"])
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 1), (11, 1), (2, 2), (3, 2), (7, 2)])
def test_orbit_split_matches_brute_force(monkeypatch, p, k, split):
    """Roots, their order and multiplicities from one equal-degree split per
    Frobenius orbit against evaluation at every element.  `always-split`
    takes the split on every field, so that p = 2 (the trace split) and
    small fields reach it too."""
    if split:
        monkeypatch.setattr(rs, "ENUMERATE_PER_DEGREE", 0)
    for coeffs, want in _split_corpus(p, k):
        assert library_roots(coeffs, p, k, 4) == want, coeffs


def test_levels_beyond_split_k_are_reported_unsplit(monkeypatch):
    """With split_k = 1 over F_3, the roots in F_3 come first and the first
    further level holding roots ends the list, with the multiplicity of every
    root not listed, without building its field; a factor beyond k_max alone
    adds no mark."""
    built = []
    init = rs.ResidueField.__init__
    monkeypatch.setattr(rs.ResidueField, "__init__", lambda f, p, k=1: built.append(k) or init(f, p, k))
    f3 = rs.ResidueField(3)
    x = sympy.Symbol("x")

    def roots(expr, split_k):
        coeffs = [f3.from_int(int(c)) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
        return [(r.k if isinstance(r, UnsplitRoots) else r.value, m) for r, m in residue_roots(coeffs, 4, split_k)]

    # x^2 + 1, x^3 - x + 1 and x^5 - x + 1 are irreducible over F_3
    assert roots((x - 1) ** 2 * (x**2 + 1) * (x**3 - x + 1), 1) == [((1,), 2), (2, 5)]
    assert roots((x**3 - x + 1) * (x**5 - x + 1), 1) == [(3, 8)]
    assert roots((x - 1) * (x**5 - x + 1), 1) == [((1,), 1)]
    assert [k for k in built if k > 1] == []
    # split_k = k_max splits every level: 2 + 3 roots, beside the root in F_3
    assert [m for _, m in roots((x - 1) * (x**2 + 1) * (x**3 - x + 1), 4)] == [1] * 6
