"""Valued-field backends with exact rational valuations.

Three desk-scale sub-models of a complete algebraically closed
non-archimedean field with value group Q, one per backend kind:

* PADIC(p)    — the tower Q(p^(1/e)) for varying e, with pi = p.
* EQUICHAR0   — Puiseux polynomials over Q in pi = t.
* EQUICHARP   — Puiseux polynomials over F_{p^k} in pi = t.

All three share one term layout: an element is a finite sum of terms
c * pi^(i/e), stored as a dict {(i, e): c} keyed by reduced integer pairs
with e >= 1.  Coefficients are Fractions (PADIC, EQUICHAR0) or residue
elements (EQUICHARP).  Arithmetic is exact; inexact elements (Newton-lifted
roots, truncated inverses) carry a precision order.  valuation() of the zero
element is +inf (math.inf mixes fine with Fraction in comparisons).
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

INF = math.inf

PADIC = "padic"
EQUICHAR0 = "equichar0"
EQUICHARP = "equicharp"

DEFAULT_PRECISION = 40
DEFAULT_KMAX = 4


class Backend:
    """Descriptor of a valued-field backend."""

    def __init__(self, kind, p=None, k=1, precision=DEFAULT_PRECISION, k_max=DEFAULT_KMAX):
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
        self.k_max = k_max

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
    """Parse a backend spec string like "padic:p=3,prec=40".  A key the
    backend does not take is a ValueError."""
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
    prec = precision or opts.get("prec", DEFAULT_PRECISION)
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
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
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
    """

    __slots__ = ("backend", "terms", "prec", "_val", "_hash")

    def __init__(self, backend, terms, prec):
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
            norm = {k: v for k, v in norm.items() if _term_val(backend, k, v) < prec}
        # cap the number of tracked terms at the backend precision
        if len(norm) > backend.precision:
            items = sorted(norm.items(), key=lambda kv: _term_val(backend, kv[0], kv[1]))
            cutoff = _term_val(backend, *items[backend.precision])
            norm = dict(items[: backend.precision])
            prec = cutoff if prec is None else min(prec, cutoff)
            norm = {k: v for k, v in norm.items() if _term_val(backend, k, v) < prec}
        self.terms = norm
        self.prec = prec

    # -- predicates ----------------------------------------------------

    @property
    def is_exact(self):
        return self.prec is None

    def is_zero(self):
        """Exactly zero (raises if only zero to working precision)."""
        if self.terms:
            return False
        if self.prec is not None:
            raise PrecisionExhausted(
                f"element is zero to precision {self.prec}; cannot certify exact zero"
            )
        return True

    def is_zero_to_precision(self):
        return not self.terms

    def valuation(self):
        if self._val is None:
            if not self.terms:
                if self.prec is not None:
                    raise PrecisionExhausted(
                        f"valuation unknown: zero to precision {self.prec}"
                    )
                self._val = INF
            else:
                self._val = min(
                    _term_val(self.backend, k, v) for k, v in self.terms.items()
                )
        return self._val

    def valuation_lower_bound(self):
        """min(valuation, prec) without raising — safe for bookkeeping."""
        if not self.terms:
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
        a, b = self, other
        if self.backend.kind == EQUICHARP:
            a, b = _align_cfields(a, b)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            prev = terms.get(k)
            terms[k] = c if prev is None else prev + c
        return FieldElement(self.backend, terms, _min_prec(self.prec, other.prec))

    def __neg__(self):
        return FieldElement(
            self.backend, {k: -v for k, v in self.terms.items()}, self.prec
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        pa = _shifted_prec(self.prec, other.valuation_lower_bound())
        pb = _shifted_prec(other.prec, self.valuation_lower_bound())
        prec = _min_prec(pa, pb)
        bk = self.backend
        a, b = self, other
        if bk.kind == EQUICHARP:
            a, b = _align_cfields(a, b)
        p = bk.p if bk.kind == PADIC else None
        terms = {}
        for (i1, e1), c1 in a.terms.items():
            for (i2, e2), c2 in b.terms.items():
                e = lcm(e1, e2)
                i = i1 * (e // e1) + i2 * (e // e2)
                c = c1 * c2
                if p and i >= e:  # PADIC keeps 0 <= i < e: carry one p into c
                    c = c * p
                    i -= e
                key = (i, e)
                prev = terms.get(key)
                terms[key] = c if prev is None else prev + c
        return FieldElement(bk, terms, prec)

    def inverse(self):
        if not self.terms:
            if self.prec is not None:
                raise PrecisionExhausted("cannot invert an element that is zero to precision")
            raise DivisionByZero("inverse of zero")
        v = self.valuation()
        bk = self.backend
        rel = None if self.prec is None else self.prec - v  # relative precision
        if bk.kind == PADIC:
            if len(self.terms) == 1:
                # single term r * p^(i/e): exact monomial inverse
                ((i, e), r) = next(iter(self.terms.items()))
                out = bk.from_rational(1 / r) * bk.uniformizer_pow(Fraction(-i, e))
                return FieldElement(bk, out.terms, None if rel is None else -v + rel)
            e = 1
            for (_, ee) in self.terms:
                e = lcm(e, ee)
            if rel is None and e <= 8 and len(self.terms) <= 16:
                return FieldElement(bk, _padic_inverse(bk, self.terms), None)
            # Newton iteration: exact Euclid in Q[x]/(x^e - p) blows up for
            # large e, so invert the unit part of big elements iteratively,
            # truncating to the precision budget at each step
            budget = rel if rel is not None else Fraction(bk.precision)
            lead_key = min(self.terms, key=lambda k: _term_val(bk, k, self.terms[k]))
            li, le = lead_key
            lead_inv = bk.from_rational(1 / self.terms[lead_key]) * bk.uniformizer_pow(
                Fraction(-li, le)
            )
            a = self * lead_inv  # 1 + u with val(u) > 0
            x = bk.one()
            err = (a - bk.one()).valuation_lower_bound()
            while err < budget:
                x = x + x - x * x * a
                # the term cap may have cut x below the budget
                budget = _min_prec(budget, x.prec)
                x = FieldElement(bk, x.terms, None).truncate_below(budget)
                err *= 2
            out = x * lead_inv
            return FieldElement(bk, out.terms, -v + budget)
        # series: c*t^v * (1 + u) with val(u) > 0; the lead term is keyed by v
        lead_c = self.terms[v.numerator, v.denominator]
        lead = bk.from_term(-v, 1 / lead_c if bk.kind == EQUICHAR0 else lead_c.inverse())
        u = self * lead - bk.one()  # val(u) > 0
        budget = rel if rel is not None else Fraction(bk.precision)
        acc = bk.one()
        power = bk.one()
        uval = u.valuation_lower_bound()
        if uval == INF:
            out = lead
            if rel is not None:
                out = FieldElement(bk, out.terms, -v + rel)
            return out
        nsteps = int(budget / uval) + 1
        minus_u = -u
        for _ in range(nsteps):
            # terms of power at or above the budget (val(u) > 0) can never
            # reach a term of acc below it
            power = power * minus_u
            power = FieldElement(bk, power.terms, _min_prec(power.prec, budget))
            acc = acc + power
        out = acc * lead
        return FieldElement(bk, out.terms, _min_prec(out.prec, -v + budget))

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
        if self.terms and self.valuation() < 0:
            raise NegativeValuation(f"valuation {self.valuation()} < 0")
        if self.prec is not None and self.prec <= 0:
            raise PrecisionExhausted("residue not determined at this precision")
        c = self.terms.get((0, 1))
        if c is None:
            return self.backend.residue_field().zero()
        if isinstance(c, rs.ResidueElement):
            return c
        return self.backend.residue_field().from_fraction(c)

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
        if bk.kind != PADIC:
            n, d = v.numerator, v.denominator
            terms = {(i, e): c for (i, e), c in self.terms.items() if i * d < n * e}
            return FieldElement(bk, terms, None)
        p, vn, vd = bk.p, v.numerator, v.denominator
        terms = {}
        for (i, e), r in self.terms.items():
            # keep the p-adic digits of r strictly below v - i/e: there are
            # m = ceil(v - i/e) - v_p(r) of them (computed in integers)
            a = _vp(r, p)
            m = -((i * vd - vn * e) // (vd * e)) - a
            if m <= 0:
                continue
            # r = p^a * n/d with n, d coprime to p; the kept digits of n/d
            # form an integer w < p^m
            n, d = r.numerator, r.denominator
            if a >= 0:
                n //= p ** a
            else:
                d //= p ** -a
            mod = p ** m
            w = n * pow(d, -1, mod) % mod
            if w:
                terms[(i, e)] = Fraction(w * p ** a) if a >= 0 else Fraction(w, p ** -a)
        return FieldElement(bk, terms, None)

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
        if a.backend.kind == EQUICHARP and a.backend == b.backend:
            # coefficients compare by value: F_p's 2 is F_(p^k)'s embedded 2
            a, b = _align_cfields(a, b, k_max=INF)
        return a._key() == b._key()

    def __hash__(self):
        if self._hash is None:
            if self.backend.kind != EQUICHARP:
                self._hash = hash(self._key())
            else:
                # equal elements may hold their coefficients in different
                # fields, but a coefficient in F_p reads the same in every
                # F_(p^k)
                terms = tuple(
                    (key, None if any(c.value[1:]) else c.value[0])
                    for key, c in sorted(self.terms.items(), key=lambda kv: kv[0])
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
        if bk.kind == PADIC and set(self.terms) <= {(0, 1)}:
            return str(self.terms.get((0, 1), Fraction(0)))
        pairs = []
        for q, c in self._sorted_terms():
            if bk.kind == EQUICHARP and c.field.k != 1:
                raise ExtensionBound("no literal for extension-field coefficients")
            pairs.append(f"({q},{c})")
        return "[" + ",".join(pairs) + "]"


def _term_val(backend, key, coeff):
    i, e = key
    if backend.kind == PADIC:
        v = _vp(coeff, backend.p)
        return v + Fraction(i, e) if i else Fraction(v)
    return Fraction(i, e)


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
    for c in x.terms.values():
        return c.field
    return None


def _embed_series(x: FieldElement, big: rs.ResidueField) -> FieldElement:
    terms = {q: rs.embed_element(c, big) for q, c in x.terms.items()}
    return FieldElement(x.backend, terms, x.prec)


def _padic_inverse(bk, terms):
    """Invert an element of Q(p^(1/e)) given by its term dict (exact)."""
    e = 1
    for (_, ee) in terms:
        e = lcm(e, ee)
    # as a polynomial in x = p^(1/e), degree < e
    poly = [Fraction(0)] * e
    for (i, ee), r in terms.items():
        poly[i * (e // ee)] += r
    if e == 1:
        return {(0, 1): 1 / poly[0]}
    # extended Euclid against x^e - p over Q[x]
    modulus = [Fraction(-bk.p)] + [Fraction(0)] * (e - 1) + [Fraction(1)]
    inv = _qpoly_invmod(poly, modulus)
    return {(i, e): c for i, c in enumerate(inv) if c != 0}


def _qpoly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _qpoly_divmod(a, b):
    a = _qpoly_trim(list(a))
    b = _qpoly_trim(list(b))
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and r:
        c = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[i + d] -= c * y
        _qpoly_trim(r)
    return q, r


def _qpoly_invmod(a, mod):
    """Inverse of a modulo mod in Q[x] (mod irreducible)."""
    a = _qpoly_trim(list(a))
    b = list(mod)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    r0, r1 = b, a
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while _qpoly_trim(list(r1)):
        q, r = _qpoly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _qpoly_sub(t0, _qpoly_mul(q, t1))
    # r0 = gcd (constant), t0 satisfies t0*a == r0 (mod mod)
    r0 = _qpoly_trim(list(r0))
    if len(r0) != 1:
        raise DivisionByZero("element not invertible (unexpected)")
    c = 1 / r0[0]
    inv = [x * c for x in t0]
    _, inv = _qpoly_divmod(inv, mod)
    inv = inv + [Fraction(0)] * (len(mod) - 1 - len(inv))
    return inv


def _qpoly_sub(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else Fraction(0)
        y = b[i] if i < len(b) else Fraction(0)
        out.append(x - y)
    return _qpoly_trim(out)


def _qpoly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _qpoly_trim(out)


class UnsplitRoots:
    """Stands, as the last entry of a residue_roots list, for roots that were
    not computed: those of the first level beyond `split_k` that holds any,
    whose smallest field is F_(p^k)."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __repr__(self):
        return f"UnsplitRoots(k={self.k})"


def residue_roots(coeffs, k_max=DEFAULT_KMAX, split_k=None):
    """Roots of a polynomial over a residue field, searching extensions up
    to degree k_max.

    coeffs: ascending list of ResidueElement over a common field.
    Returns [(root, multiplicity)].  Raises ExtensionBound when no root is
    representable within the bound (QQ: no rational root).

    Over F_q the roots come level by level, m = 1, 2, ... while q^m stays
    within F_{p^k_max} and roots are missing: the roots whose smallest field
    over F_q is F_{q^m}, in ResidueField.elements() order.  The distinct-
    degree step gives, over F_q, the product g_m of the irreducible factors
    of degree m; residue.rpoly_split_roots finds its roots in F_{q^m}, one
    equal-degree split per Frobenius orbit.  A level without such factors is
    skipped without embedding anything.

    Only the levels the caller can use are split: the first level whose
    field F_(p^k) has k > split_k (default k_max) and that holds roots ends
    the list as (UnsplitRoots(k), the multiplicity of every root not listed
    before it), and F_(p^k) is neither built nor searched."""
    coeffs = rs.rpoly_trim(list(coeffs))
    if rs.rpoly_degree(coeffs) < 1:
        raise ValueError("residue_roots needs deg >= 1")
    field = coeffs[0].field
    if field.is_rational:
        found = _rational_roots(coeffs)
        if not found:
            raise ExtensionBound("no rational residue roots")
        return found
    split_k = k_max if split_k is None else split_k
    base_k = field.k
    p = field.p
    found = []
    total_mult = 0
    deg = rs.rpoly_degree(coeffs)
    x = [field.zero(), field.one()]
    frob = x
    # level d -> product of the irreducible factors of degree d of coeffs
    level_factors = {}
    m = 0
    while base_k * (m + 1) <= k_max and total_mult < deg:
        m += 1
        # frob = X^(q^m) mod coeffs; gcd(coeffs, frob - X) is the product of
        # the irreducible factors whose degree divides m
        frob = rs.rpoly_powmod(frob, p**base_k, coeffs, field)
        g = rs.rpoly_gcd(coeffs, rs.rpoly_sub(frob, x, field), field)
        for d, g_d in level_factors.items():
            if m % d == 0:  # drop the factors of degree d < m
                g = rs.rpoly_divmod(g, g_d, field)[0]
        if len(g) < 2:
            continue
        if base_k * m > split_k:
            found.append((UnsplitRoots(base_k * m), deg - total_mult))
            break
        level_factors[m] = g
        big = rs.ResidueField(p, base_k * m)
        emb = [rs.embed_element(c, big) for c in coeffs]
        g_big = [rs.embed_element(c, big) for c in g]
        for cand in rs.rpoly_split_roots(g_big, big, p**base_k):
            if not rs.rpoly_eval(emb, cand).is_zero():
                continue
            mult = 0
            work = list(emb)
            divisor = [-cand, big.one()]
            while True:
                q, r = rs.rpoly_divmod(work, divisor, big)
                if r:
                    break
                work = q
                mult += 1
            found.append((cand, mult))
            total_mult += mult
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
    work = [Fraction(c) for c in ints]
    for cand in sorted(cands):
        mult = 0
        while _qpoly_eval(work, cand) == 0:
            work = _qpoly_deflate(work, cand)
            mult += 1
        if mult:
            found.append((rs.ResidueElement(field, cand), mult))
    return found


def _qpoly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _qpoly_deflate(coeffs, root):
    """Divide by (z - root), assuming exact divisibility (synthetic division)."""
    out = []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * root + c
        out.append(acc)
    out = out[:-1]  # drop the remainder (zero by assumption)
    out.reverse()
    return out


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
