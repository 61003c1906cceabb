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
x^(q^2), ... of the first one found.  fields.residue_roots reduces any
polynomial to that case by distinct-degree factorization over its own field,
and splits only the levels whose roots its caller can lift: the digits of
Q_p lie in F_p, so there the first further level holding roots is reported
without building its field.

Products in an extension field F_Q, Q = p^k <= TABLE_LIMIT, are lookups in
discrete-log tables built on the field's first product: the powers of a
primitive element as coordinate tuples, and the log of each element at its
elements() position.  Inverses, powers and p-th roots are lookups too.  The
largest builds under the limit take about 50 ms on a 2-core Xeon (F_(2^13),
F_(5^6), F_(11^4); F_(7^4) takes 8 ms), where F_(13^4) would take 90 ms and
F_(2^14) 130 ms; larger fields keep schoolbook products.
"""

from __future__ import annotations

import random
from array import array
from fractions import Fraction
from functools import cached_property, lru_cache

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
        """The discrete-log tables of an extension field of at most
        TABLE_LIMIT elements, else None."""
        if self.k > 1 and self.p**self.k <= TABLE_LIMIT:
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
        powers, logs = f._tables
        i, j = _index(self.value, f.p), _index(other.value, f.p)
        if i and j:
            # log x + log y < 2(Q - 1): a negative index wraps once
            return ResidueElement(f, powers[logs[i] + logs[j] - len(powers)])
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
        fp = ResidueField(f.p)
        r0, r1 = [fp.from_int(c) for c in f.modulus], rpoly_trim(map(fp.from_int, self.value))
        s0, s1 = [], [fp.one()]
        while len(r1) > 1:
            q, r = rpoly_divmod(r0, r1, fp)
            r0, r1, s0, s1 = r1, r, s1, rpoly_sub(s0, rpoly_mul(q, s1, fp), fp)
        c = r1[0].inverse()
        return ResidueElement(f, tuple((x * c).value[0] for x in s1) + (0,) * (f.k - len(s1)))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        f = self.field
        if f._tables is not None and self:
            powers, logs = f._tables
            return ResidueElement(f, powers[logs[_index(self.value, f.p)] * n % len(powers)])
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


# Extension fields of at most this many elements multiply through discrete-log
# tables (module docstring); F_(11^4) has 14,641.
TABLE_LIMIT = 16000


@lru_cache(maxsize=None)
def _log_tables(p, k):
    """(powers, logs) for GF(p, k), from its first primitive element g in
    elements() order: powers[n] = g^n for 0 <= n < Q - 1, as coordinate
    tuples, and logs[_index(x)] the discrete log of each nonzero x."""
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
    logs = array("i", [0]) * (order + 1)
    for n, x in enumerate(powers):
        logs[_index(x, p)] = n
    return powers, logs


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
    acc = x.field.zero()
    for c in reversed(rpoly_trim(coeffs)):
        acc = acc * x + c
    return acc


def rpoly_mul(a, b, field):
    a, b = rpoly_trim(a), rpoly_trim(b)
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def rpoly_divmod(a, b, field):
    a, b = rpoly_trim(a), rpoly_trim(b)
    if not b:
        raise ZeroDivisionError
    inv_lead = b[-1].inverse()
    q = [field.zero()] * max(0, len(a) - len(b) + 1)
    r = a
    while len(r) >= len(b):
        c = r.pop() * inv_lead
        d = len(r) + 1 - len(b)
        q[d] = c
        # the leading term cancels exactly and was popped
        for i, y in enumerate(b[:-1]):
            r[i + d] = r[i + d] - c * y
        while r and r[-1].is_zero():
            r.pop()
    return q, r


def rpoly_gcd(a, b, field):
    a, b = rpoly_trim(a), rpoly_trim(b)
    while b:
        a, b = b, rpoly_divmod(a, b, field)[1]
    if a:
        c = a[-1].inverse()
        a = [x * c for x in a]
    return a


def rpoly_sub(a, b, field):
    a, b = list(a), list(b)
    n = max(len(a), len(b))
    a += [field.zero()] * (n - len(a))
    b += [field.zero()] * (n - len(b))
    return rpoly_trim([x - y for x, y in zip(a, b)])


def rpoly_powmod(base, n, mod, field):
    """base^n modulo mod."""
    result = [field.one()]
    base = rpoly_divmod(base, mod, field)[1]
    while True:
        if n & 1:
            result = rpoly_divmod(rpoly_mul(result, base, field), mod, field)[1]
        n >>= 1
        if not n:
            return result
        base = rpoly_divmod(rpoly_mul(base, base, field), mod, field)[1]


# Finding the roots of a degree-d polynomial by evaluating it at every element
# of F_Q costs about Q*d products; splitting it costs about d^2*log(Q)
# products per random trial, down one branch per Frobenius orbit.  Fields
# with at most this many elements per degree are enumerated.  Timed in
# residue_roots on products of distinct irreducibles (split time over
# enumeration time, medians of 7 interleaved runs on 3 polynomials each, on a
# 2-core Xeon): prime fields, whose products the tables leave alone, cross
# over at 26 to 33 elements per degree (F_131, d = 5: 1.18; F_61, d = 2:
# 0.77); extension fields, with table products, at 16 to 20 (F_121, d = 8:
# 1.05; F_343, d = 18: 0.93), so up to 32 they enumerate at a loss of up to
# a quarter (F_121, d = 4: 0.75).  A lower bound would cost the prime fields
# as much.
ENUMERATE_PER_DEGREE = 32


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
    g = rpoly_trim(g)
    if len(g) == 2:
        return [-g[0] / g[1]]
    if field.p ** field.k <= ENUMERATE_PER_DEGREE * (len(g) - 1):
        return [x for x in field.elements() if rpoly_eval(g, x).is_zero()]
    rng = random.Random(0)
    found = []
    todo = [g]
    while todo:
        h = todo.pop()
        if len(h) > 2:
            s = _split(h, field, rng)
            todo += sorted([s, rpoly_divmod(h, s, field)[0]], key=len, reverse=True)
            continue
        root = -h[0] / h[1]
        found.append(root)
        conj = root**q
        while conj != root:
            found.append(conj)
            todo = [t for t in (_deflate(t, conj, field) for t in todo) if len(t) > 1]
            conj = conj**q
    return sorted(found, key=lambda x: x.value[::-1])


def _deflate(h, root, field):
    """h / (X - root) when root is a root of h, else h."""
    quot, rem = rpoly_divmod(h, [-root, field.one()], field)
    return h if rem else quot


def _split(h, field, rng):
    """A proper monic factor of h (degree >= 2, distinct roots in field)."""
    p, k = field.p, field.k
    while True:
        delta = ResidueElement(field, tuple(rng.randrange(p) for _ in range(k)))
        if p == 2:
            # absolute trace of delta*X, in F_2 at every root (and a sum,
            # since subtracting is adding in characteristic 2)
            t = rpoly_divmod([field.zero(), delta], h, field)[1]
            test = t
            for _ in range(k - 1):
                t = rpoly_powmod(t, 2, h, field)
                test = rpoly_sub(test, t, field)
        else:
            # (X + delta)^((Q-1)/2) - 1 vanishes where X + delta is a square
            half = rpoly_powmod([delta, field.one()], (p**k - 1) // 2, h, field)
            test = rpoly_sub(half, [field.one()], field)
        s = rpoly_gcd(h, test, field)
        if 1 < len(s) < len(h):
            return s


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
