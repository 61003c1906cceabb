"""Valued-field backends with exact rational valuations.

Three desk-scale sub-models of a complete algebraically closed
non-archimedean field with value group Q, one per backend kind:

* PADIC(p)    — the tower Q(p^(1/e)) for varying e, with pi = p.
* EQUICHAR0   — Puiseux polynomials over Q in pi = t.
* EQUICHARP   — Puiseux polynomials over F_{p^k} in pi = t.

All three share one term layout: an element is a finite sum of terms
c * pi^(i/e), keyed by reduced integer pairs (i, e) with e >= 1.  PADIC
stores its coefficients as Python ints over one positive denominator per
element, so its products and sums build no Fractions; EQUICHAR0 stores
Fractions and EQUICHARP residue elements.  Every element reads as the dict
`terms` {(i, e): c} with c a Fraction (PADIC, EQUICHAR0) or a residue element
(EQUICHARP).  Arithmetic is exact; inexact elements (Newton-lifted roots,
truncated inverses) carry a precision order.  valuation() of the zero element
is +inf (math.inf mixes fine with Fraction in comparisons).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DivisionByZero,
    IncompatibleBackends,
    NegativeValuation,
    PrecisionExhausted,
    ExtensionBound,
)
from . import residue as rs
from .residue import UnsplitRoots  # the mark that ends a residue_roots list

INF = math.inf

PADIC = "padic"
EQUICHAR0 = "equichar0"
EQUICHARP = "equicharp"

DEFAULT_PRECISION = 40
DEFAULT_KMAX = 4


class Backend:
    """Descriptor of a valued-field backend."""

    def __init__(self, kind, p=None, k=1, precision=DEFAULT_PRECISION):
        if kind not in (PADIC, EQUICHAR0, EQUICHARP):
            raise ValueError(f"unknown backend kind {kind!r}")
        if kind in (PADIC, EQUICHARP):
            if p is None or p < 2 or not rs._is_prime(p):
                raise ValueError("backend needs a prime p >= 2")
        elif p is not None:
            raise ValueError(f"{kind} backend takes no p")
        if k < 1 or k != 1 and kind != EQUICHARP:
            raise ValueError(f"{kind} backend takes no residue degree k = {k}")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.kind = kind
        self.p = p
        self.k = k
        self.precision = precision
        self.k_max = DEFAULT_KMAX

    # residue characteristic: p for PADIC/EQUICHARP, 0 for EQUICHAR0
    @property
    def residue_char(self):
        return self.p if self.kind in (PADIC, EQUICHARP) else 0

    def residue_field(self) -> rs.ResidueField:
        return rs.ResidueField(self.residue_char, self.k)

    def _key(self):
        return (self.kind, self.p, self.k, self.precision)

    def __eq__(self, other):
        return isinstance(other, Backend) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.kind == PADIC:
            return f"padic:p={self.p},prec={self.precision}"
        if self.kind == EQUICHAR0:
            return f"laurentq:prec={self.precision}"
        return f"laurentfp:p={self.p},k={self.k},prec={self.precision}"

    # -- element constructors -----------------------------------------

    def _coeff(self, q):
        """The rational q as a term coefficient."""
        q = Fraction(q)
        if self.kind == EQUICHARP:
            return self.residue_field().from_fraction(q)
        return q

    def zero(self):
        return FieldElement(self, {}, None)

    def one(self):
        return self.from_rational(1)

    def from_rational(self, q) -> "FieldElement":
        return FieldElement(self, {(0, 1): self._coeff(q)}, None)

    def from_int(self, n):
        return self.from_rational(Fraction(n))

    def uniformizer_pow(self, q) -> "FieldElement":
        """Exact element of valuation q (q any rational)."""
        q = Fraction(q)
        i, e = q.numerator, q.denominator
        if self.kind == PADIC:
            # whole powers of p live in the coefficient: 0 <= i < e
            n, i = divmod(i, e)
            return FieldElement(self, {(i, e): Fraction(self.p) ** n}, None)
        return FieldElement(self, {(i, e): self._coeff(1)}, None)

    def from_term(self, q, coeff) -> "FieldElement":
        """coeff * uniformizer^q with coeff a rational (PADIC/EQUICHAR0) or
        ResidueElement (EQUICHARP)."""
        if self.kind == EQUICHARP and isinstance(coeff, rs.ResidueElement):
            q = Fraction(q)
            return FieldElement(self, {(q.numerator, q.denominator): coeff}, None)
        return self.from_rational(coeff) * self.uniformizer_pow(q)

    def parse_literal(self, text: str) -> "FieldElement":
        """Parse an element literal: "3/4" (rational) or "[(0,2),(3/2,1)]"."""
        text = text.strip()
        if text.startswith("["):
            body = text[1:-1].strip() if text.endswith("]") else text[1:]
            out = self.zero()
            for m in re.finditer(r"\(([^,()]+),([^()]+)\)", body):
                q = Fraction(m.group(1).strip())
                c = Fraction(m.group(2).strip())
                out = out + self.from_rational(c) * self.uniformizer_pow(q)
            return out
        if "^" in text:
            # convenience: "p^3" / "t^{q}" style literal for uniformizer powers
            base, _, expo = text.partition("^")
            base = base.strip()
            if base in ("p", "t"):
                return self.uniformizer_pow(Fraction(expo.strip()))
        return self.from_rational(Fraction(text))


# the keys each backend spec takes
_SPEC_KEYS = {"padic": {"p", "prec"}, "laurentq": {"prec"}, "laurentfp": {"p", "k", "prec"}}


def parse_backend(spec: str, precision=None) -> Backend:
    """Parse a backend spec string like "padic:p=3,prec=40"; `precision`, if
    given, overrides prec=.  A key the backend does not take is a ValueError."""
    name, _, rest = spec.partition(":")
    if name not in _SPEC_KEYS:
        raise ValueError(f"unknown backend spec {spec!r}")
    opts = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            opts[key.strip()] = int(val)
    extra = set(opts) - _SPEC_KEYS[name]
    if extra:
        raise ValueError(f"{name} takes no key {', '.join(sorted(extra))}")
    prec = opts.get("prec", DEFAULT_PRECISION) if precision is None else precision
    if name == "padic":
        return Backend(PADIC, p=opts["p"], precision=prec)
    if name == "laurentq":
        return Backend(EQUICHAR0, precision=prec)
    return Backend(EQUICHARP, p=opts["p"], k=opts.get("k", 1), precision=prec)


def _vp(q: Fraction, p: int):
    """p-adic valuation of a rational."""
    n = q.numerator
    if not n:
        return INF
    return _vpi(n, p) - _vpi(q.denominator, p)


def _vpi(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while not n % p:
        n //= p
        v += 1
    return v


class FieldElement:
    """Immutable element of a Backend.

    terms: dict {(i, e): c} meaning the sum of c * pi^(i/e), with e >= 1 and
    (i, e) reduced.  Terms with different denominators coexist: they live in
    the common extension by pi^(1/lcm).  PADIC keeps 0 <= i < e and carries
    whole powers of p in its rational coefficients, so a term's valuation is
    i/e + v_p(c); series terms have valuation i/e.

    prec: None for exact elements, else the element is only known modulo
    valuation >= prec.

    Layout.  PADIC stores its coefficients as Python ints over one
    denominator: `_c` is {(i, e): n} and `_den` is D, the coefficient of
    (i, e) being n/D, with D > 0 and gcd(D, every n) = 1, so that equal
    elements have equal layouts.  `terms` is then a view of Fractions, built
    on first read and kept, and arithmetic builds its results through
    `_int_element`, without the conversion that __init__ makes from
    Fraction-valued terms.  EQUICHAR0 (Fractions) and EQUICHARP (residue
    elements) store the coefficients themselves: `_c` is `terms`, and `_den`
    is None.
    """

    __slots__ = ("backend", "_c", "_den", "_terms", "prec", "_val", "_hash")

    def __init__(self, backend, terms, prec):
        if backend.kind == PADIC:
            _int_element(backend, *_int_terms(terms), prec, self)
            return
        self.backend = backend
        self._val = None
        self._hash = None  # elements are immutable: hashed once, on demand
        norm = {}
        for key, c in terms.items():
            if not c:
                continue
            i, e = key
            g = gcd(i, e)
            if g != 1:
                key = (i // g, e // g)
            prev = norm.get(key)
            norm[key] = c if prev is None else prev + c
        norm = {k: c for k, c in norm.items() if c}
        if prec is not None:
            norm = {k: v for k, v in norm.items() if Fraction(*k) < prec}
        # cap the number of tracked terms at the backend precision
        if len(norm) > backend.precision:
            items = sorted(norm.items(), key=lambda kv: Fraction(*kv[0]))
            cutoff = Fraction(*items[backend.precision][0])
            norm = dict(items[: backend.precision])
            prec = cutoff if prec is None else min(prec, cutoff)
            norm = {k: v for k, v in norm.items() if Fraction(*k) < prec}
        self._c = self._terms = norm
        self._den = None
        self.prec = prec

    @property
    def terms(self):
        terms = self._terms
        if terms is None:  # the int layout's view, built on first read
            den = self._den
            terms = self._terms = {k: Fraction(n, den) for k, n in self._c.items()}
        return terms

    def _with_prec(self, prec):
        """The same terms known only to `prec` (None: exact)."""
        if self._den is None:
            return FieldElement(self.backend, self._c, prec)
        return _int_element(self.backend, self._c, self._den, prec)

    # -- predicates ----------------------------------------------------

    @property
    def is_exact(self):
        return self.prec is None

    def is_zero(self):
        """Exactly zero (raises if only zero to working precision)."""
        if self._c:
            return False
        if self.prec is not None:
            raise PrecisionExhausted(
                f"element is zero to precision {self.prec}; cannot certify exact zero"
            )
        return True

    def is_zero_to_precision(self):
        return not self._c

    def valuation(self):
        if self._val is None:
            if not self._c:
                if self.prec is not None:
                    raise PrecisionExhausted(
                        f"valuation unknown: zero to precision {self.prec}"
                    )
                self._val = INF
            elif self._den is not None:
                w, (i, e) = _int_lead(self.backend.p, self._c)
                w -= _vpi(self._den, self.backend.p)
                self._val = Fraction(w * e + i, e)
            else:
                self._val = min(Fraction(i, e) for i, e in self._c)
        return self._val

    def valuation_lower_bound(self):
        """min(valuation, prec) without raising — safe for bookkeeping."""
        if not self._c:
            return self.prec if self.prec is not None else INF
        return self.valuation()

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other)!r}")
        if self.backend is not other.backend and self.backend != other.backend:
            raise IncompatibleBackends(f"{self.backend} vs {other.backend}")

    def __add__(self, other):
        self._check(other)
        prec = _min_prec(self.prec, other.prec)
        den = self._den
        if den is None:
            a, b = self, other
            if self.backend.kind == EQUICHARP:
                a, b = _align_cfields(a, b)
            terms = dict(a._c)
            for k, c in b._c.items():
                prev = terms.get(k)
                terms[k] = c if prev is None else prev + c
            return FieldElement(self.backend, terms, prec)
        # int layout: numerators over the lcm of the two denominators
        db = other._den
        if den == db:
            c, fb = dict(self._c), 1
        else:
            g = gcd(den, db)
            fa, fb = db // g, den // g
            c = {k: n * fa for k, n in self._c.items()}
            den *= fa
        for k, n in other._c.items():
            n = n * fb + c.get(k, 0)
            if n:
                c[k] = n
            else:
                del c[k]
        return _int_element(self.backend, c, den, prec)

    def __neg__(self):
        if self._den is None:
            return FieldElement(
                self.backend, {k: -v for k, v in self._c.items()}, self.prec
            )
        x = _int_element(self.backend, {k: -n for k, n in self._c.items()}, 1, None)
        # the layout of self up to sign: canonical, below prec, capped
        x._den, x.prec, x._val = self._den, self.prec, self._val
        return x

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        bk = self.backend
        if self._den is None:
            pa = _shifted_prec(self.prec, other.valuation_lower_bound())
            pb = _shifted_prec(other.prec, self.valuation_lower_bound())
            a, b = self, other
            if bk.kind == EQUICHARP:
                a, b = _align_cfields(a, b)
            terms = {}
            for (i1, e1), c1 in a._c.items():
                for (i2, e2), c2 in b._c.items():
                    e = lcm(e1, e2)
                    key = (i1 * (e // e1) + i2 * (e // e2), e)
                    prev = terms.get(key)
                    terms[key] = c1 * c2 if prev is None else prev + c1 * c2
            return FieldElement(bk, terms, _min_prec(pa, pb))
        # int layout; the operands' valuations are read only for an
        # inexact factor
        prec = None
        if self.prec is not None:
            prec = _shifted_prec(self.prec, other.valuation_lower_bound())
        if other.prec is not None:
            prec = _min_prec(prec, _shifted_prec(other.prec, self.valuation_lower_bound()))
        p = bk.p
        c = {}
        for (i1, e1), n1 in self._c.items():
            for (i2, e2), n2 in other._c.items():
                n = n1 * n2
                if e1 == e2:
                    e, i = e1, i1 + i2
                else:
                    e = lcm(e1, e2)
                    i = i1 * (e // e1) + i2 * (e // e2)
                if i >= e:  # keep 0 <= i < e: carry one p into the numerator
                    n *= p
                    i -= e
                if i:
                    g = gcd(i, e)
                    key = (i // g, e // g)
                else:
                    key = (0, 1)
                n += c.get(key, 0)
                if n:
                    c[key] = n
                else:
                    del c[key]
        return _int_element(bk, c, self._den * other._den, prec)

    def inverse(self):
        if not self._c:
            if self.prec is not None:
                raise PrecisionExhausted("cannot invert an element that is zero to precision")
            raise DivisionByZero("inverse of zero")
        v = self.valuation()
        bk = self.backend
        rel = None if self.prec is None else self.prec - v  # relative precision
        if self._den is not None:
            c = self._c
            if len(c) == 1:
                # single term r * p^(i/e): exact monomial inverse
                ((i, e), n) = next(iter(c.items()))
                out = bk.from_rational(Fraction(self._den, n)) * bk.uniformizer_pow(Fraction(-i, e))
                return out if rel is None else out._with_prec(-v + rel)
            e = lcm(*(ee for _, ee in c))
            if rel is None and e <= 8 and len(c) <= 16:
                return _int_element(bk, *_padic_inverse(bk.p, c, self._den, e), None)
            # Newton iteration: the exact inverse blows up for large e, so
            # invert the unit part of big elements iteratively, truncating to
            # the precision budget at each step
            budget = rel if rel is not None else Fraction(bk.precision)
            li, le = _int_lead(bk.p, c)[1]
            lead_inv = bk.from_rational(Fraction(self._den, c[li, le])) * bk.uniformizer_pow(
                Fraction(-li, le)
            )
            a = self * lead_inv  # 1 + u with val(u) > 0
            x = bk.one()
            err = (a - bk.one()).valuation_lower_bound()
            while err < budget:
                x = x + x - x * x * a
                # the term cap may have cut x below the budget
                budget = _min_prec(budget, x.prec)
                x = x._with_prec(None).truncate_below(budget)
                err *= 2
            return (x * lead_inv)._with_prec(-v + budget)
        # series: c*t^v * (1 + u) with val(u) > 0; the lead term is keyed by v
        lead_c = self._c[v.numerator, v.denominator]
        lead = bk.from_term(-v, 1 / lead_c if bk.kind == EQUICHAR0 else lead_c.inverse())
        u = self * lead - bk.one()  # val(u) > 0
        budget = rel if rel is not None else Fraction(bk.precision)
        acc = bk.one()
        power = bk.one()
        uval = u.valuation_lower_bound()
        if uval == INF:
            return lead if rel is None else lead._with_prec(-v + rel)
        nsteps = int(budget / uval) + 1
        minus_u = -u
        for _ in range(nsteps):
            # terms of power at or above the budget (val(u) > 0) can never
            # reach a term of acc below it
            power = power * minus_u
            power = power._with_prec(_min_prec(power.prec, budget))
            acc = acc + power
        out = acc * lead
        return out._with_prec(_min_prec(out.prec, -v + budget))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.backend.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- reduction & truncation -----------------------------------------

    def reduce(self) -> rs.ResidueElement:
        """Image in the residue field; requires valuation >= 0.

        Terms off the key (0, 1) have positive valuation and reduce to zero;
        an EQUICHARP coefficient may lie in an extension of the residue field
        and is returned as it is."""
        if self._c and self.valuation() < 0:
            raise NegativeValuation(f"valuation {self.valuation()} < 0")
        if self.prec is not None and self.prec <= 0:
            raise PrecisionExhausted("residue not determined at this precision")
        c = self._c.get((0, 1))
        if c is None:
            return self.backend.residue_field().zero()
        if isinstance(c, rs.ResidueElement):
            return c
        if self._den is not None:
            c = Fraction(c, self._den)
        return self.backend.residue_field().from_fraction(c)

    def leading_residue(self) -> rs.ResidueElement:
        """The residue of self * pi^(-val self), read off the leading term."""
        v = self.valuation()
        if self.prec is not None and self.prec <= v:
            raise PrecisionExhausted("residue not determined at this precision")
        bk = self.backend
        if self._den is not None:
            # the leading numerator over den, both without their powers of p
            p, den = bk.p, self._den
            n = self._c[_int_lead(p, self._c)[1]]
            unit = n // p ** _vpi(n, p) * pow(den // p ** _vpi(den, p), -1, p)
            return bk.residue_field().from_int(unit)
        lead = self._c[v.numerator, v.denominator]
        if not isinstance(lead, rs.ResidueElement):
            return bk.residue_field().from_fraction(lead)
        if lead.field.k % bk.k:
            # the product with pi^(-val self) embeds the coefficient in the
            # field it generates with F_(p^k)
            return (self * bk.uniformizer_pow(-v)).reduce()
        return lead

    def truncate_below(self, v) -> "FieldElement":
        """The canonical truncation: the part of the expansion with valuation < v.

        Used for canonical ball centers.  Exact."""
        bk = self.backend
        if v == INF:
            return self
        v = Fraction(v)
        if self.prec is not None and self.prec < v:
            raise PrecisionExhausted(
                f"cannot truncate below {v}: element only known to precision {self.prec}"
            )
        vn, vd = v.numerator, v.denominator
        if self._den is None:
            terms = {(i, e): c for (i, e), c in self._c.items() if i * vd < vn * e}
            return FieldElement(bk, terms, None)
        p, den = bk.p, self._den
        a_den = _vpi(den, p)
        unit_den = den // p ** a_den
        kept = []
        for (i, e), n in self._c.items():
            # keep the p-adic digits of n/den strictly below v - i/e: there
            # are m = ceil(v - i/e) - v_p(n/den) of them
            a = _vpi(n, p)
            m = -((i * vd - vn * e) // (vd * e)) - a + a_den
            if m <= 0:
                continue
            # n/den = p^(a - a_den) * unit; the kept digits of the unit form
            # an integer w < p^m, prime to p
            mod = p ** m
            w = n // p ** a * pow(unit_den, -1, mod) % mod
            kept.append(((i, e), w, a - a_den))
        # w * p^a over the common denominator p^shift; a term with a = -shift
        # has w prime to p, so the layout is canonical
        shift = max([0] + [-a for _, _, a in kept])
        c = {key: w * p ** (a + shift) for key, w, a in kept}
        return _int_element(bk, c, p ** shift, None)

    def as_rational(self) -> Fraction:
        """The element as a rational, when it is one (PADIC/EQUICHAR0)."""
        if set(self.terms) <= {(0, 1)}:
            c = self.terms.get((0, 1), Fraction(0))
            if isinstance(c, Fraction):
                return c
        raise ValueError("element is not a plain rational")

    # -- equality, hashing, display --------------------------------------

    def _key(self):
        return (self.backend, tuple(sorted(self.terms.items())), self.prec)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        a, b = self, other
        if a._den is not None and b._den is not None:
            # canonical layouts: equal values have equal numerators
            return (a._den == b._den and a._c == b._c and a.prec == b.prec
                    and a.backend == b.backend)
        if a.backend.kind == EQUICHARP and a.backend == b.backend:
            # coefficients compare by value: F_p's 2 is F_(p^k)'s embedded 2
            a, b = _align_cfields(a, b, k_max=INF)
        return a._key() == b._key()

    def __hash__(self):
        if self._hash is None:
            if self._den is not None:
                self._hash = hash(
                    (self.backend, self._den, tuple(sorted(self._c.items())), self.prec)
                )
            elif self.backend.kind != EQUICHARP:
                self._hash = hash(self._key())
            else:
                # equal elements may hold their coefficients in different
                # fields, but a coefficient in F_p reads the same in every
                # F_(p^k)
                terms = tuple(
                    (key, None if any(c.value[1:]) else c.value[0])
                    for key, c in sorted(self._c.items(), key=lambda kv: kv[0])
                )
                self._hash = hash((self.backend, terms, self.prec))
        return self._hash

    def _sorted_terms(self):
        """(exponent, coefficient) pairs by increasing exponent."""
        return sorted((Fraction(i, e), c) for (i, e), c in self.terms.items())

    def __repr__(self):
        bk = self.backend
        pi = bk.p if bk.kind == PADIC else "t"
        parts = [str(c) if q == 0 else f"({c})*{pi}^({q})" for q, c in self._sorted_terms()]
        body = " + ".join(parts) if parts else "0"
        if self.prec is not None:
            body += f" + O(pi^{self.prec})"
        return body

    def literal(self) -> str:
        """Serialize to the CLI literal syntax (exact elements only)."""
        bk = self.backend
        if bk.kind == PADIC and set(self._c) <= {(0, 1)}:
            return str(self.terms.get((0, 1), Fraction(0)))
        pairs = []
        for q, c in self._sorted_terms():
            if bk.kind == EQUICHARP and c.field.k != 1:
                raise ExtensionBound("no literal for extension-field coefficients")
            pairs.append(f"({q},{c})")
        return "[" + ",".join(pairs) + "]"


def _int_terms(terms):
    """A PADIC term dict with rational (or int) coefficients as int
    numerators over their least common denominator: keys reduced, zero terms
    dropped."""
    norm = {}
    for (i, e), q in terms.items():
        if q:
            g = gcd(i, e)
            key = (i // g, e // g)
            norm[key] = q + norm.get(key, 0)
    den = lcm(*(q.denominator for q in norm.values() if q))
    return {k: q.numerator * (den // q.denominator) for k, q in norm.items() if q}, den


def _int_element(bk, c, den, prec, x=None):
    """The PADIC element with numerators c over den > 0, built without
    __init__'s conversion (into x when given): c has reduced keys with
    0 <= i < e and no zero numerator.  Drops the terms at or above prec,
    caps the term count like __init__, and divides out gcd(den, c)."""
    if prec is not None or len(c) > bk.precision:
        c, prec = _trimmed(bk, c, den, prec)
    if den != 1:
        g = den
        for n in c.values():
            g = gcd(g, n)
            if g == 1:
                break
        else:
            c = {k: n // g for k, n in c.items()}
            den //= g
    if x is None:
        x = _new_element(FieldElement)
    x.backend = bk
    x._c = c
    x._den = den
    x.prec = prec
    x._val = None
    x._hash = None
    x._terms = None
    return x


_new_element = object.__new__


def _trimmed(bk, c, den, prec):
    """Numerators c over den without the terms at or above prec, capped at
    the backend's term count; prec is lowered to the cap."""
    p, vd = bk.p, _vpi(den, bk.p)

    def term_val(item):
        (i, e), n = item
        return Fraction((_vpi(n, p) - vd) * e + i, e)

    if prec is not None:
        c = {k: n for k, n in c.items() if term_val((k, n)) < prec}
    # cap the number of tracked terms at the backend precision
    if len(c) > bk.precision:
        items = sorted(c.items(), key=term_val)
        cutoff = term_val(items[bk.precision])
        c = dict(items[: bk.precision])
        prec = cutoff if prec is None else min(prec, cutoff)
    return c, prec


def _int_lead(p, c):
    """(v_p(n), key) of the term of least valuation among numerators c: the
    least v_p(n), then the least i/e, since 0 <= i/e < 1."""
    bw = None
    for (i, e), n in c.items():
        w = _vpi(n, p)
        if bw is None or w < bw or w == bw and i * be < bi * e:
            bw, bi, be = w, i, e
    return bw, (bi, be)


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _shifted_prec(prec, shift):
    if prec is None:
        return None
    if shift == INF:
        return None
    return prec + shift


def _align_cfields(a: FieldElement, b: FieldElement, k_max=None):
    """Embed EQUICHARP coefficients into a common residue field of degree at
    most k_max (default: the backend's)."""
    fa = _cfield(a)
    fb = _cfield(b)
    if fa is None or fb is None or fa == fb:
        return a, b
    m = lcm(fa.k, fb.k)
    if m > (a.backend.k_max if k_max is None else k_max):
        raise ExtensionBound(f"residue extension degree {m} exceeds k_max")
    big = rs.ResidueField(fa.p, m)
    return _embed_series(a, big), _embed_series(b, big)


def _cfield(x: FieldElement):
    for c in x._c.values():
        return c.field
    return None


def _embed_series(x: FieldElement, big: rs.ResidueField) -> FieldElement:
    terms = {q: rs.embed_element(c, big) for q, c in x._c.items()}
    return FieldElement(x.backend, terms, x.prec)


def _padic_inverse(p, c, den, e):
    """Invert the element of Q(p^(1/e)) with numerators c over den (exact).

    With x = p^(1/e), the element is N(x)/den, N of degree < e with integer
    coefficients.  Its inverse is den * y(x), where y solves M y = (1, 0, ...)
    for the matrix M of multiplication by N modulo x^e - p.  Fraction-free
    Gauss-Jordan elimination keeps every entry an integer and ends with
    det(M) on the diagonal, so y = (last column) / det(M).  Returns the
    inverse as (numerators, denominator)."""
    N = [0] * e
    for (i, ee), n in c.items():
        N[i * (e // ee)] += n
    # row r, column k: the coefficient of x^r in N * x^k, then the
    # right-hand side
    rows = [[N[r - k] if r >= k else p * N[r - k + e] for k in range(e)] + [int(r == 0)]
            for r in range(e)]
    prev = 1
    for k in range(e):
        piv = next(r for r in range(k, e) if rows[r][k])  # M is invertible
        rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k]
        a = pk[k]
        for r in range(e):
            if r != k:
                row = rows[r]
                b = row[k]
                rows[r] = [(a * s - b * t) // prev for s, t in zip(row, pk)]
        prev = a
    sign = 1 if prev > 0 else -1
    out = {}
    for r in range(e):
        n = rows[r][e] * den * sign
        if n:
            g = gcd(r, e)
            out[r // g, e // g] = n
    return out, prev * sign


def residue_roots(coeffs, k_max=DEFAULT_KMAX, split_k=None):
    """Roots of a polynomial over a residue field, searching extensions up
    to degree k_max.

    coeffs: ascending list of ResidueElement over a common field.
    Returns [(root, multiplicity)].  Raises ExtensionBound when no root is
    representable within the bound (QQ: no rational root).

    Over F_q (residue.rpoly_roots, on the field's codes) the roots come level
    by level, m = 1, 2, ... while q^m stays within F_{p^k_max} and roots are
    missing: the roots whose smallest field over F_q is F_{q^m}, in
    ResidueField.elements() order.  The distinct-degree step gives, over
    F_q, the product g_m of the irreducible factors of degree m; its roots in
    F_{q^m} come from one equal-degree split per Frobenius orbit.  A level
    without such factors is skipped without embedding anything.

    Only the levels the caller can use are split: the first level whose
    field F_(p^k) has k > split_k (default k_max) and that holds roots ends
    the list as (UnsplitRoots(k), the multiplicity of every root not listed
    before it), and F_(p^k) is neither built nor searched."""
    coeffs = rs.rpoly_trim(list(coeffs))
    if rs.rpoly_degree(coeffs) < 1:
        raise ValueError("residue_roots needs deg >= 1")
    if coeffs[0].field.is_rational:
        found = _rational_roots(coeffs)
        if not found:
            raise ExtensionBound("no rational residue roots")
        return found
    found = rs.rpoly_roots(coeffs, k_max, k_max if split_k is None else split_k)
    if not found:
        raise ExtensionBound(
            f"residue roots require an extension beyond k_max={k_max}"
        )
    return found


def _rational_roots(coeffs):
    """All rational roots with multiplicity (rational root theorem)."""
    fracs = [c.value for c in coeffs]
    den = 1
    for f in fracs:
        den = lcm(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    field = coeffs[0].field
    found = []
    # roots at zero
    k0 = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        k0 += 1
    if k0:
        found.append((field.zero(), k0))
    if len(ints) <= 1:
        return found
    cands = set()
    for pnum in _divisors(abs(ints[0])):
        for pden in _divisors(abs(ints[-1])):
            cands.add(Fraction(pnum, pden))
            cands.add(Fraction(-pnum, pden))
    work = [field.from_int(c) for c in ints]
    for cand in sorted(cands):
        x = rs.ResidueElement(field, cand)
        mult = 0
        while rs.rpoly_eval(work, x).is_zero():
            work = rs.rpoly_divmod(work, [-x, field.one()], field)[0]
            mult += 1
        if mult:
            found.append((x, mult))
    return found


def _divisors(n):
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)
