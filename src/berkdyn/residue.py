"""Residue fields of the valued-field backends.

Two kinds appear: the rationals (equicharacteristic-zero backends) and the
finite fields F_{p^k}.  Finite fields are modeled as F_p[x] modulo a fixed
irreducible of degree k (the lexicographically first monic one, so the choice
is deterministic across runs).

Polynomials over a residue field are ascending lists of elements (rpoly_*).
rpoly_split_roots finds the roots in F_Q of a polynomial that splits there
into distinct linear factors: by evaluation at every element when Q is small
against the degree, by Cantor-Zassenhaus equal-degree splitting otherwise.
The split follows one branch per Frobenius orbit: the roots of an
irreducible factor over the coefficient field F_q are the conjugates x, x^q,
x^(q^2), ... of the first one found.  rpoly_roots, the finite-field case of
fields.residue_roots, reduces any polynomial to that case by distinct-degree
factorization over its own field, and splits only the levels whose roots its
caller can lift: the digits of Q_p lie in F_p, so there the first further
level holding roots is reported without building its field.

Every finite field F_Q, Q = p^k <= TABLE_LIMIT, gets discrete-log tables on
its first product or polynomial operation: the powers of a primitive element
g, the log of each element, and the Zech logs zech[j] = log(1 + g^j).
Extension-field products, inverses and powers are lookups in them, and the
polynomial kernels run on codes: logs, Q - 1 for zero, so that a product is a
sum of logs and a sum one Zech lookup.  Over QQ and beyond the limit the same
kernels run on ResidueElements.  The largest builds under the limit take
about 50 ms on a 2-core Xeon (F_(2^13), F_(5^6), F_(11^4); F_(7^4) takes
8 ms), where F_(13^4) would take 90 ms and F_(2^14) 130 ms.
"""

from __future__ import annotations

import operator
import random
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import zip_longest

from .errors import DivisionByZero


class ResidueField:
    """Descriptor for the residue field: GF(p, k) or QQ (p = 0)."""

    def __init__(self, p: int, k: int = 1):
        self.p = p
        self.k = k
        self.is_rational = p == 0
        if p == 0:
            self.modulus = None
        else:
            self.modulus = _find_irreducible(p, k)
            self._x_powers = _high_powers(self.modulus, p)

    def __eq__(self, other):
        return isinstance(other, ResidueField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash(("ResidueField", self.p, self.k))

    @cached_property
    def _tables(self):
        """The discrete-log tables of a finite field of at most TABLE_LIMIT
        elements, else None."""
        if self.p and self.p**self.k <= TABLE_LIMIT:
            return _log_tables(self.p, self.k)
        return None

    def __repr__(self):
        if self.is_rational:
            return "QQ"
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # -- construction -------------------------------------------------

    def zero(self) -> "ResidueElement":
        return self.from_int(0)

    def one(self) -> "ResidueElement":
        return self.from_int(1)

    def from_int(self, n) -> "ResidueElement":
        if self.is_rational:
            return ResidueElement(self, Fraction(n))
        return ResidueElement(self, (n % self.p,) + (0,) * (self.k - 1))

    def from_fraction(self, q: Fraction) -> "ResidueElement":
        if self.is_rational:
            return ResidueElement(self, Fraction(q))
        num = q.numerator % self.p
        den = q.denominator % self.p
        if den == 0:
            raise DivisionByZero(f"{q} has a denominator divisible by p = {self.p}")
        return self.from_int(num * pow(den, -1, self.p))

    def generator(self) -> "ResidueElement":
        if self.is_rational or self.k == 1:
            raise ValueError("no generator for prime/rational residue field")
        return ResidueElement(self, (0, 1) + (0,) * (self.k - 2))

    def elements(self):
        """Iterate over all elements (finite fields only)."""
        if self.is_rational:
            raise ValueError("cannot enumerate QQ")
        coeffs = [0] * self.k
        total = self.p ** self.k
        for n in range(total):
            m = n
            for i in range(self.k):
                m, coeffs[i] = divmod(m, self.p)
            yield ResidueElement(self, tuple(coeffs))


class ResidueElement:
    __slots__ = ("field", "value")

    def __init__(self, field: ResidueField, value):
        self.field = field
        self.value = value

    def is_zero(self) -> bool:
        if self.field.is_rational:
            return self.value == 0
        return not any(self.value)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, ResidueElement)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        if self.field.is_rational:
            return str(self.value)
        if self.field.k == 1:
            return str(self.value[0])
        parts = []
        for i, c in enumerate(self.value):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}g" + (f"^{i}" if i > 1 else ""))
        return "+".join(parts) if parts else "0"

    def __add__(self, other):
        f = self.field
        if f.is_rational:
            return ResidueElement(f, self.value + other.value)
        if f.k == 1:
            return ResidueElement(f, ((self.value[0] + other.value[0]) % f.p,))
        return ResidueElement(
            f, tuple((a + b) % f.p for a, b in zip(self.value, other.value))
        )

    def __neg__(self):
        f = self.field
        if f.is_rational:
            return ResidueElement(f, -self.value)
        return ResidueElement(f, tuple((-a) % f.p for a in self.value))

    def __sub__(self, other):
        f = self.field
        if f.is_rational:
            return ResidueElement(f, self.value - other.value)
        if f.k == 1:
            return ResidueElement(f, ((self.value[0] - other.value[0]) % f.p,))
        return ResidueElement(
            f, tuple((a - b) % f.p for a, b in zip(self.value, other.value))
        )

    def __mul__(self, other):
        f = self.field
        if f.is_rational:
            return ResidueElement(f, self.value * other.value)
        if f.k == 1:
            return ResidueElement(f, (self.value[0] * other.value[0] % f.p,))
        if f._tables is None:
            return ResidueElement(f, _schoolbook(self.value, other.value, f))
        powers, logs, zech = f._tables
        i, j = _index(self.value, f.p), _index(other.value, f.p)
        if i and j:
            return ResidueElement(f, powers[(logs[i] + logs[j]) % len(zech)])
        return f.zero()

    def inverse(self):
        f = self.field
        if self.is_zero():
            raise ZeroDivisionError("residue inverse of zero")
        if f.is_rational:
            return ResidueElement(f, 1 / self.value)
        if f.k == 1:
            return ResidueElement(f, (pow(self.value[0], -1, f.p),))
        if f._tables is not None:
            return self ** -1
        # extended Euclid in F_p[x] against the modulus, keeping s_i * self = r_i
        # modulo it
        ar = _arith(f.p, 1)
        r0, r1 = (_trim([ar.code((c,)) for c in v], ar.zero) for v in (f.modulus, self.value))
        s0, s1 = [], [ar.one]
        while len(r1) > 1:
            q, r = _divmod(r0, r1, ar)
            r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1, ar), ar)
        s1 = [ar.value(ar.mul(x, ar.inv(r1[0])))[0] for x in s1]
        return ResidueElement(f, tuple(s1) + (0,) * (f.k - len(s1)))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        f = self.field
        if f._tables is not None and self:
            powers, logs, zech = f._tables
            return ResidueElement(f, powers[logs[_index(self.value, f.p)] * n % len(zech)])
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def pth_root(self):
        """Inverse of Frobenius (finite fields): x ↦ x^(p^(k-1))."""
        f = self.field
        if f.is_rational:
            raise ValueError("pth_root only in characteristic p")
        return self ** (f.p ** (f.k - 1))


def _schoolbook(a, b, f):
    """The product of two coordinate tuples of f: F_p[x] product, then the
    high powers of x reduced by the modulus."""
    prod = [0] * (2 * f.k - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for row, c in zip(f._x_powers, prod[f.k :]):
        if c:
            for i, r in enumerate(row):
                prod[i] += c * r
    return tuple(c % f.p for c in prod[: f.k])


def _index(value, p):
    """Position sum(c_i p^i) of a coordinate tuple in elements() order."""
    n = 0
    for c in reversed(value):
        n = n * p + c
    return n


# Finite fields of at most this many elements compute through discrete-log
# tables (module docstring); F_(11^4) has 14,641.
TABLE_LIMIT = 16000


@lru_cache(maxsize=None)
def _log_tables(p, k):
    """(powers, logs, zech) for GF(p, k), from its first primitive element g
    in elements() order: powers[j] = g^j as coordinate tuples, logs[_index(x)]
    the discrete log of each x, and zech[j] = log(1 + g^j); the log of zero
    is n = Q - 1, and powers[n] the zero tuple."""
    field = ResidueField(p, k)
    order = p**k - 1
    one = field.one().value
    primes = [ell for ell in range(2, order + 1) if order % ell == 0 and _is_prime(ell)]

    def power(x, n):
        out = one
        for bit in bin(n)[2:]:
            out = _schoolbook(out, out, field)
            if bit == "1":
                out = _schoolbook(out, x, field)
        return out

    g = next(
        x.value for x in field.elements()
        if any(x.value) and all(power(x.value, order // ell) != one for ell in primes)
    )
    powers = [one]
    for _ in range(order - 1):
        powers.append(_schoolbook(g, powers[-1], field))
    logs = array("i", [order]) * (order + 1)
    for n, x in enumerate(powers):
        logs[_index(x, p)] = n
    zech = array("i", [logs[_index(((x[0] + 1) % p,) + x[1:], p)] for x in powers])
    powers.append(field.zero().value)
    return powers, logs, zech


@lru_cache(maxsize=None)
def _high_powers(modulus, p):
    """x^j mod the monic modulus for j = k .. 2k-2, as coefficient tuples."""
    k = len(modulus) - 1
    row = [(-c) % p for c in modulus[:k]]
    rows = []
    for _ in range(k - 1):
        rows.append(tuple(row))
        top = row[-1]
        row = [(a + top * b) % p for a, b in zip([0] + row[:-1], rows[0])]
    return rows


def _is_irreducible(f, p):
    field = ResidueField(p)
    f = [field.from_int(c) for c in f]
    k = len(f) - 1
    x = [field.zero(), field.one()]
    # f | x^(p^k) - x  and  gcd(x^(p^(k/ell)) - x, f) = 1 for prime divisors ell of k
    if rpoly_sub(rpoly_powmod(x, p ** k, f, field), x, field):
        return False
    for ell in range(2, k + 1):
        if k % ell == 0 and _is_prime(ell):
            xq = rpoly_powmod(x, p ** (k // ell), f, field)
            if len(rpoly_gcd(rpoly_sub(xq, x, field), f, field)) > 1:
                return False
    return True


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def _find_irreducible(p, k):
    """Lexicographically first monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)
    total = p ** k
    for n in range(total):
        coeffs = []
        m = n
        for _ in range(k):
            m, c = divmod(m, p)
            coeffs.append(c)
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible found (unreachable)")


# Polynomial kernels: trimmed ascending lists of codes, over the operations of
# an _Arith; `code` and `value` convert from and to ResidueElement.value.

_Arith = namedtuple("_Arith", "zero one add mul neg inv pow code value elements")


@lru_cache(maxsize=None)
def _arith(p, k):
    """The _Arith of GF(p, k), or of QQ when p = 0."""
    field = ResidueField(p, k)
    if field._tables is None:
        return _Arith(field.zero(), field.one(), operator.add, operator.mul, operator.neg,
                      ResidueElement.inverse, operator.pow, lambda v: ResidueElement(field, v),
                      operator.attrgetter("value"), field.elements)
    powers, logs, zech = field._tables
    n = len(zech)  # the multiplicative order, and the code of zero
    minus_one = n // 2 if p > 2 else 0

    def add(a, b):
        if a == n:
            return b
        if b == n:
            return a
        # g^a + g^b = g^a (1 + g^(b - a)); a negative index wraps mod n
        c = zech[b - a]
        if c == n:
            return n
        c += a
        return c - n if c >= n else c

    def mul(a, b):
        if a == n or b == n:
            return n
        c = a + b
        return c - n if c >= n else c

    return _Arith(n, 0, add, mul, lambda a: mul(a, minus_one), lambda a: -a % n,
                  lambda a, e: n if a == n else a * e % n,  # e >= 1
                  lambda v: logs[_index(v, p)], powers.__getitem__, lambda: logs)


def _encode(coeffs, ar):
    return _trim([ar.code(c.value) for c in coeffs], ar.zero)


def _decode(codes, field, ar):
    return [ResidueElement(field, ar.value(c)) for c in codes]


def _trim(a, zero):
    while a and a[-1] == zero:
        a.pop()
    return a


def _mul(a, b, ar):
    if not a or not b:
        return []
    zero, add, mul = ar.zero, ar.add, ar.mul
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
    return out


def _divmod(a, b, ar):
    zero, add, mul, neg = ar.zero, ar.add, ar.mul, ar.neg
    inv_lead = ar.inv(b[-1])
    low = b[:-1]
    q = [zero] * max(0, len(a) - len(low))
    r = list(a)
    while len(r) > len(low):
        c = mul(r.pop(), inv_lead)
        d = len(r) - len(low)
        q[d] = c
        # the leading term cancels exactly and was popped
        c = neg(c)
        for i, y in enumerate(low, d):
            r[i] = add(r[i], mul(c, y))
        while r and r[-1] == zero:
            r.pop()
    return q, r


def _gcd(a, b, ar):
    """The monic gcd."""
    while b:
        a, b = b, _divmod(a, b, ar)[1]
    c = ar.inv(a[-1]) if a else None
    return [ar.mul(x, c) for x in a]


def _sub(a, b, ar):
    add, neg = ar.add, ar.neg
    return _trim([add(x, neg(y)) for x, y in zip_longest(a, b, fillvalue=ar.zero)], ar.zero)


def _powmod(base, n, mod, ar):
    """base^n modulo mod."""
    base, result = _divmod(base, mod, ar)[1], [ar.one]
    for bit in bin(n)[2:]:
        result = _divmod(_mul(result, result, ar), mod, ar)[1]
        if bit == "1":
            result = _divmod(_mul(result, base, ar), mod, ar)[1]
    return result


def _eval(coeffs, x, ar):
    add, mul, acc = ar.add, ar.mul, ar.zero
    for c in reversed(coeffs):
        acc = add(mul(acc, x), c)
    return acc


# ---------------------------------------------------------------------------
# Polynomials over a ResidueField (coefficient lists of ResidueElements)


def rpoly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def rpoly_degree(coeffs):
    coeffs = rpoly_trim(coeffs)
    return len(coeffs) - 1 if coeffs else -1


def rpoly_eval(coeffs, x: ResidueElement):
    ar = _arith(x.field.p, x.field.k)
    return ResidueElement(x.field, ar.value(_eval(_encode(coeffs, ar), ar.code(x.value), ar)))


def rpoly_mul(a, b, field):
    ar = _arith(field.p, field.k)
    return _decode(_mul(_encode(a, ar), _encode(b, ar), ar), field, ar)


def rpoly_divmod(a, b, field):
    ar = _arith(field.p, field.k)
    if not (b := _encode(b, ar)):
        raise ZeroDivisionError
    return tuple(_decode(x, field, ar) for x in _divmod(_encode(a, ar), b, ar))


def rpoly_gcd(a, b, field):
    ar = _arith(field.p, field.k)
    return _decode(_gcd(_encode(a, ar), _encode(b, ar), ar), field, ar)


def rpoly_sub(a, b, field):
    ar = _arith(field.p, field.k)
    return _decode(_sub(_encode(a, ar), _encode(b, ar), ar), field, ar)


def rpoly_powmod(base, n, mod, field):
    """base^n modulo mod."""
    ar = _arith(field.p, field.k)
    return _decode(_powmod(_encode(base, ar), n, _encode(mod, ar), ar), field, ar)


# Finding the roots of a degree-d polynomial by evaluating it at every element
# of F_Q costs about Q*d products; splitting it costs about d^2*log(Q)
# products per random trial, down one branch per Frobenius orbit.  Fields
# with at most this many elements per degree are enumerated.  Timed in
# residue_roots on products of d distinct linear factors over F_Q (split time
# over enumeration time, medians of 7 interleaved runs on 3 polynomials each,
# on a 2-core Xeon), both on codes: fields of odd p cross over at 49 to 78
# elements per degree (F_167, d = 3: 1.14; F_343, d = 5: 0.86), prime or not;
# fields of characteristic 2, whose split takes k - 1 squarings for the
# trace, only at 85 to 128 (F_256, d = 4: 1.17; d = 2: 0.67).
ENUMERATE_PER_DEGREE = 64


def rpoly_split_roots(g, field, q):
    """Roots in `field` of g, which splits there into distinct linear factors
    and has its coefficients in the subfield F_q, sorted in elements()
    order.

    Large fields are split by equal-degree factorization (Cantor and
    Zassenhaus, Math. Comp. 36, 1981) with a fixed-seed generator, so the
    same input always takes the same steps.  The roots of an irreducible
    factor of g over F_q form one orbit of x -> x^q, so the first root found
    gives the others as its conjugates: they are divided out of the factors
    still to be split, and the split follows one branch per orbit (the
    smaller factor first)."""
    ar = _arith(field.p, field.k)
    return _decode(_split_roots(_encode(g, ar), field, ar, q), field, ar)


def _split_roots(g, field, ar, q):
    zero, mul, neg, inv = ar.zero, ar.mul, ar.neg, ar.inv
    if len(g) == 2:
        return [mul(neg(g[0]), inv(g[1]))]
    if field.p ** field.k <= ENUMERATE_PER_DEGREE * (len(g) - 1):
        return [x for x in ar.elements() if _eval(g, x, ar) == zero]
    rng = random.Random(0)
    found = []
    todo = [g]
    while todo:
        h = todo.pop()
        if len(h) > 2:
            s = _split(h, field, ar, rng)
            todo += sorted([s, _divmod(h, s, ar)[0]], key=len, reverse=True)
            continue
        root = mul(neg(h[0]), inv(h[1]))
        found.append(root)
        conj = ar.pow(root, q)
        while conj != root:
            found.append(conj)
            todo = [t for t in (_deflate(t, conj, ar) for t in todo) if len(t) > 1]
            conj = ar.pow(conj, q)
    return sorted(found, key=lambda x: ar.value(x)[::-1])


def _deflate(h, root, ar):
    """h / (X - root) when root is a root of h, else h."""
    quot, rem = _divmod(h, [ar.neg(root), ar.one], ar)
    return h if rem else quot


def _split(h, field, ar, rng):
    """A proper monic factor of h (degree >= 2, distinct roots in field)."""
    p, k = field.p, field.k
    while True:
        delta = ar.code(tuple(rng.randrange(p) for _ in range(k)))
        if p == 2:
            # absolute trace of delta*X, in F_2 at every root (and a sum,
            # since subtracting is adding in characteristic 2)
            t = _divmod(_trim([ar.zero, delta], ar.zero), h, ar)[1]
            test = t
            for _ in range(k - 1):
                t = _powmod(t, 2, h, ar)
                test = _sub(test, t, ar)
        else:
            # (X + delta)^((Q-1)/2) - 1 vanishes where X + delta is a square
            half = _powmod([delta, ar.one], (p**k - 1) // 2, h, ar)
            test = _sub(half, [ar.one], ar)
        s = _gcd(h, test, ar)
        if 1 < len(s) < len(h):
            return s


class UnsplitRoots(namedtuple("UnsplitRoots", "k")):
    """Stands, as the last entry of a residue_roots list, for roots that were
    not computed: those of the first level beyond `split_k` that holds any,
    whose smallest field is F_(p^k)."""


def rpoly_roots(coeffs, k_max, split_k):
    """fields.residue_roots of the trimmed coeffs (degree >= 1) over a finite
    field, which see, with [] for no root within k_max."""
    field = coeffs[0].field
    p, k = field.p, field.k
    ar = _arith(p, k)
    f = _encode(coeffs, ar)
    deg = len(f) - 1
    frob = x = [ar.zero, ar.one]
    # level d -> product of the irreducible factors of degree d of f
    level_factors = {}
    found = []
    total_mult = m = 0
    while k * (m + 1) <= k_max and total_mult < deg:
        m += 1
        # frob = X^(q^m) mod f; gcd(f, frob - X) is the product of the
        # irreducible factors whose degree divides m
        frob = _powmod(frob, p**k, f, ar)
        g = _gcd(f, _sub(frob, x, ar), ar)
        for d, g_d in level_factors.items():
            if m % d == 0:  # drop the factors of degree d < m
                g = _divmod(g, g_d, ar)[0]
        if len(g) < 2:
            continue
        if k * m > split_k:
            found.append((UnsplitRoots(k * m), deg - total_mult))
            break
        level_factors[m] = g
        big, big_ar = ResidueField(p, k * m), _arith(p, k * m)
        emb = [embed_element(c, big) for c in coeffs]
        work = _encode(emb, big_ar)
        g_big = _encode([embed_element(c, big) for c in _decode(g, field, ar)], big_ar)
        for cand in _split_roots(g_big, big, big_ar, p**k):
            root = ResidueElement(big, big_ar.value(cand))
            if not rpoly_eval(emb, root).is_zero():
                continue
            # the factors of the roots before it are divided out of work
            mult = 0
            while (quot := _deflate(work, cand, big_ar)) is not work:
                work, mult = quot, mult + 1
            found.append((root, mult))
            total_mult += mult
    return found


def embed_element(x: ResidueElement, big: ResidueField) -> ResidueElement:
    """Embed x ∈ F_{p^k} into F_{p^m}, k | m (deterministic choice of embedding)."""
    small = x.field
    if small == big:
        return x
    if small.is_rational or big.is_rational:
        raise ValueError("no embedding between QQ and finite fields")
    if small.k == 1:
        return big.from_int(x.value[0])
    if big.k % small.k != 0:
        raise ValueError("no embedding: degree does not divide")
    beta = _embedding_image(small.p, small.k, big.k)
    beta_el = ResidueElement(big, beta)
    acc = big.zero()
    for c in reversed(x.value):
        acc = acc * beta_el + big.from_int(c)
    return acc


@lru_cache(maxsize=None)
def _embedding_image(p, k, m):
    """Image of the degree-k generator inside GF(p, m): the first root of its
    modulus in elements() order."""
    big = ResidueField(p, m)
    modulus = [big.from_int(c) for c in ResidueField(p, k).modulus]
    return rpoly_split_roots(modulus, big, p)[0].value
