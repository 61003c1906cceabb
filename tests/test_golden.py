"""Golden outputs of `berk` commands, compared byte for byte.

The README commands (all on p-adic backends) plus series-backend commands
with fractional and negative exponents.  Each command runs in-process through
`berkdyn.cli.main`; its stdout must equal the file of the same name in
`tests/golden/`.  The `seconds` column of `examples run-all` is wall time,
so it is masked on both sides.

One more file pins the outcome of 200 type-II fibers over padic:p=3
(`fiber_outcomes`): points, multiplicities and their order, or the typed
error and its message.  Another pins the roots of 40 split products over
laurentfp (`root_outcomes`), in the order the residue-field split finds
them.  Another pins type-I fibers over padic:p=3, padic:p=2 and laurentq
(`typei_root_outcomes`), strict and partial, in the order the depth-first
root descent finds them.  Others pin PADIC arithmetic (`padic_outcomes`)
and the residue-field root search itself (`residue_outcomes`).  Re-record
them with `python tests/test_golden.py` only when an outcome is meant to
change.
"""

import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy

from berkdyn import Backend, BerkdynError, EQUICHAR0, EQUICHARP, PADIC, polys
from berkdyn import residue as rs
from berkdyn.berkovich import BerkPoint
from berkdyn.fields import FieldElement, UnsplitRoots, residue_roots
from berkdyn.cli import main
from berkdyn.ratmap import RationalMap
from berkdyn.roots import roots_with_mult

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "image": [
        "image", "--backend", "padic:p=3", "--map", "z^2",
        "--point", '{"t":"II","c":"0","logr":"1"}',
    ],
    "preimages": [
        "preimages", "--backend", "padic:p=2", "--map", "(z^2 - z^4)/2",
        "--point", '{"t":"II","c":"1","logr":"1/2"}',
    ],
    # Type-I fiber refined by Newton steps, with large-height roots.
    "preimages-newton-padic3": [
        "preimages", "--backend", "padic:p=3",
        "--map", "(z^4+2*z^3-5*z^2+6*z)/(6-6*z)",
        "--point", '{"t":"I","v":"-4"}',
    ],
    "equilibrium": [
        "equilibrium", "--backend", "padic:p=3", "--map", "(z^5 - 243)/z^2",
        "--iters", "4", "--partition", "residue:depth=1",
    ],
    "detect-pgr": ["detect-pgr", "--backend", "padic:p=3", "--map", "z^2+1"],
    # Good reduction at the Gauss point, whose fiber holds the pole -3.
    "detect-pgr-pole": ["detect-pgr", "--backend", "padic:p=3", "--map", "1/(z+3)^2"],
    "entropy-bounds": ["entropy-bounds", "--backend", "padic:p=3", "--map", "z^2+1"],
    "skeleton": [
        "skeleton", "--example", "R1",
        "--report", "entropies,invariant-set,cross-validate",
    ],
    "shift": ["shift", "--p", "2", "--depth", "4", "--check-against-solver"],
    "examples": ["examples", "run-all"],
    # Series backends: fractional and negative exponents, both residue fields.
    "image-laurentq": [
        "image", "--backend", "laurentq", "--map", "z^2+z",
        "--point", '{"t":"II","c":"[(-1/3,1),(2/3,2)]","logr":"5/3"}',
    ],
    "image-laurentfp": [
        "image", "--backend", "laurentfp:p=3", "--map", "z^2+z",
        "--point", '{"t":"II","c":"[(-1/3,1),(2/3,2)]","logr":"5/3"}',
    ],
    "preimages-laurentfp-p3": [
        "preimages", "--backend", "laurentfp:p=3", "--map", "z^3/c",
        "--const", "c=1", "--point", '{"t":"I","v":"[(1/2,1),(3/2,2)]"}',
    ],
    "preimages-laurentq": [
        "preimages", "--backend", "laurentq", "--map", "(z^2-z^4)/2",
        "--point", '{"t":"II","c":"[(1/2,1)]","logr":"1/3"}',
    ],
    "preimages-laurentfp-p5": [
        "preimages", "--backend", "laurentfp:p=5", "--map", "z^5+z",
        "--point", '{"t":"II","c":"[(-1/5,2)]","logr":"1/2"}',
    ],
    # The fiber lies in F_9, which the literal syntax cannot write.
    "preimages-laurentfp-ext": [
        "preimages", "--backend", "laurentfp:p=3", "--map", "z^2+1",
        "--point", '{"t":"I","v":"[(0,0)]"}',
    ],
    # A fiber whose descent chases roots outside the tower Q_3(3^(1/e)): the
    # tower bound of the root descent makes it a typed ExtensionBound.
    "preimages-wild-padic3": [
        "preimages", "--backend", "padic:p=3", "--map", "(3-6*z+9*z^2+6*z^3)/6",
        "--point", '{"t":"I","v":"2/3"}',
    ],
    # A type-II fiber around +-sqrt(3), which lie outside the tower
    # Q_2(2^(1/e)): the wild-chain rule of the fiber descent makes it a typed
    # ExtensionBound.
    "preimages-wild-padic2": [
        "preimages", "--backend", "padic:p=2", "--map", "z^2-3",
        "--point", '{"t":"II","c":"0","logr":"2"}',
    ],
    # Type-I fibers whose residue roots over F_3 do not all lie in F_3: one
    # typed error each for no root within F_(3^k_max), for a factor beyond
    # k_max beside a liftable root, and for a root in F_9.
    "preimages-beyond-kmax-padic3": [
        "preimages", "--backend", "padic:p=3", "--map", "z^5-z+1",
        "--point", '{"t":"I","v":"0"}',
    ],
    "preimages-short-split-padic3": [
        "preimages", "--backend", "padic:p=3", "--map", "(z-1)*(z^5-z+1)",
        "--point", '{"t":"I","v":"0"}',
    ],
    "preimages-unliftable-padic3": [
        "preimages", "--backend", "padic:p=3", "--map", "(z-1)*(z^2+1)",
        "--point", '{"t":"I","v":"0"}',
    ],
    "local-degree-laurentfp": [
        "local-degree", "--backend", "laurentfp:p=2", "--map", "z^2+z",
        "--point", '{"t":"II","c":"[(1/2,1)]","logr":"1"}',
    ],
}

# Commands whose pinned answer is a typed error, with their exit code.
EXIT_CODES = {
    "preimages-laurentfp-p5": 3, "preimages-laurentfp-ext": 3, "preimages-wild-padic3": 3,
    "preimages-wild-padic2": 3, "preimages-beyond-kmax-padic3": 3,
    "preimages-short-split-padic3": 3, "preimages-unliftable-padic3": 3,
}

_SECONDS = re.compile(r"  \d+\.\d\d$", re.M)


def mask_seconds(text):
    return _SECONDS.sub("  <seconds>", text)


def run_command(capsys, name):
    """Exit code and stdout of one README command, seconds masked."""
    code = main(list(COMMANDS[name]))
    out = capsys.readouterr().out
    return code, mask_seconds(out) if name == "examples" else out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_matches_golden(capsys, name, monkeypatch):
    monkeypatch.delenv("BERK_PRECISION", raising=False)
    code, out = run_command(capsys, name)
    assert code == EXIT_CODES.get(name, 0)
    assert out == (GOLDEN / f"{name}.out").read_text()


FIBER_GOLDEN = GOLDEN / "fibers-criterion06-padic3.out"


def fiber_outcomes():
    """One line per fiber: the first 100 maps of criterion 06's seed-6001
    stream over padic:p=3, each as drawn and conjugated by z -> -z (which
    negates the target's centre)."""
    bk = Backend(PADIC, p=3)
    rng = random.Random(6001)
    lines = []
    drawn = 0
    while drawn < 100:
        num = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
        den = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
        if not any(num) or not any(den):
            continue
        if RationalMap.from_rationals(bk, num, den).degree < 1:
            continue
        drawn += 1
        c, logr = rng.randint(-6, 6), F(rng.randint(-2, 4))
        neg_num = [-x if i % 2 == 0 else x for i, x in enumerate(num)]
        neg_den = [x if i % 2 == 0 else -x for i, x in enumerate(den)]
        for n, d, b in [(num, den, c), (neg_num, neg_den, -c)]:
            R = RationalMap.from_rationals(bk, n, d)
            head = f"{[str(x) for x in n]}/{[str(x) for x in d]} @ zeta({b}, {logr}): "
            try:
                fiber = R.preimages(BerkPoint.type_ii(bk.from_int(b), logr))
            except BerkdynError as exc:
                lines.append(head + f"{type(exc).__name__}: {exc}")
                continue
            lines.append(head + "; ".join(f"{S!r} x{m}" for S, m in fiber))
    return "".join(line + "\n" for line in lines)


def test_fiber_outcomes_match_golden():
    assert fiber_outcomes() == FIBER_GOLDEN.read_text()


ROOT_GOLDEN = GOLDEN / "roots-split-laurentfp.out"
# (p, degrees of the two irreducible factors): root-descent's split families
# and one over F_13, every root in F_(p^4)
ROOT_FAMILIES = [(7, (2, 4)), (7, (4, 4)), (11, (1, 3)), (11, (4, 4)), (13, (4, 4))]


def _irreducible(rng, p, d):
    x = sympy.Symbol("x")
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if f[0] and sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible:
            return f


def root_outcomes():
    """One line per `roots_with_mult` call: four products of two t-scaled
    irreducibles over F_p per family and pair of root valuations, drawn from
    seed 1701."""
    rng = random.Random(1701)
    lines = []
    for p, degs in ROOT_FAMILIES:
        bk = Backend(EQUICHARP, p=p)
        for slopes in [(-1, 1), (0, 2)]:
            for _ in range(4):
                factors = [_irreducible(rng, p, d) for d in degs]
                P = [bk.one()]
                for f, s in zip(factors, slopes):
                    d = len(f) - 1
                    P = polys.mul(P, [bk.from_int(c) * bk.uniformizer_pow(s * (d - i))
                                      for i, c in enumerate(f)])
                head = f"F_{p}: {factors} slopes {slopes}: "
                try:
                    found = roots_with_mult(P)
                except BerkdynError as exc:
                    lines.append(head + f"{type(exc).__name__}: {exc}")
                    continue
                lines.append(head + "; ".join(f"{r!r} x{m}" for r, m in found))
    return "".join(line + "\n" for line in lines)


def test_root_outcomes_match_golden():
    assert root_outcomes() == ROOT_GOLDEN.read_text()


TYPEI_GOLDEN = GOLDEN / "roots-criterion06.out"


def typei_root_outcomes():
    """Two lines per type-I fiber, strict and with partial=True: the roots of
    num - x*den for 60 criterion-06 maps per backend over padic:p=3,
    padic:p=2 and laurentq, drawn from seed 2001, at targets x = n or n/3.
    Among them are tower-bound and unliftable-digit ExtensionBounds,
    Newton-refined inexact roots and partial-mode drops."""
    rng = random.Random(2001)
    lines = []
    for bk in (Backend(PADIC, p=3), Backend(PADIC, p=2), Backend(EQUICHAR0)):
        drawn = 0
        while drawn < 60:
            num = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            den = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            if not any(num) or not any(den):
                continue
            if RationalMap.from_rationals(bk, num, den).degree < 1:
                continue
            drawn += 1
            x = F(rng.randint(-6, 6), rng.choice([1, 3]))
            width = max(len(num), len(den))
            A = [(num[i] if i < len(num) else 0) - x * (den[i] if i < len(den) else 0)
                 for i in range(width)]
            if not any(A):
                continue
            for partial in (False, True):
                head = f"{bk!r} {[str(c) for c in A]} partial={partial}: "
                try:
                    found = roots_with_mult(polys.from_rationals(bk, A), partial=partial)
                except BerkdynError as exc:
                    lines.append(head + f"{type(exc).__name__}: {exc}")
                    continue
                lines.append(head + "; ".join(f"{r!r} x{m}" for r, m in found))
    return "".join(line + "\n" for line in lines)


def test_typei_root_outcomes_match_golden():
    assert typei_root_outcomes() == TYPEI_GOLDEN.read_text()


PADIC_GOLDEN = GOLDEN / "padic-arith.out"


def _padic_operand(rng, bk):
    """A random element of the tower over Q_p: up to five terms c*p^(i/e)
    with e | 12 or e = 8, i from -2e to 3e (negative valuations, and carries
    into the coefficient), c with a denominator divisible by p or prime to
    it; a quarter of them known only to a random precision."""
    p = bk.p
    shape = rng.random()
    if shape < 0.3:
        nterms, e = 1, rng.choice([1, 2, 3, 4, 6, 8, 12])
    elif shape < 0.7:
        nterms, e = rng.randint(2, 5), rng.choice([2, 3, 4, 6, 8])
    else:
        nterms, e = rng.randint(2, 5), 12
    x = bk.zero()
    for _ in range(nterms):
        c = F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.choice([1, 2, 5, 7, p, p * p, 5 * p]))
        x = x + bk.from_term(F(rng.randint(-2 * e, 3 * e), e), c)
    if rng.random() < 0.25:
        x = FieldElement(bk, dict(x.terms), F(rng.randint(-6, 24), rng.choice([1, 2, 3, 4])))
    return x


def _padic_line(head, f):
    try:
        r = f()
    except BerkdynError as exc:
        return f"{head}: {type(exc).__name__}: {exc}"
    if not isinstance(r, FieldElement):  # a residue
        return f"{head}: {r!r}"
    lit = f" | {r.literal()}" if r.is_exact else ""
    return f"{head}: {r!r}{lit} | vlb {r.valuation_lower_bound()}"


def padic_outcomes():
    """Eight lines per pair of operands, 13 pairs per prime p = 2, 3, 101
    over a 12-term backend (so products and inverses hit the term cap),
    drawn from seed 1809: x and y, then x*y, x + y, x - y, 1/x (monomial,
    Euclid and Newton paths), x truncated below a random v, and the residue
    of x.  Every fourth y is -x plus a small term, or -x itself: sums that
    cancel."""
    rng = random.Random(1809)
    lines = []
    for p in (2, 3, 101):
        bk = Backend(PADIC, p=p, precision=12)
        for n in range(13):
            x, y = _padic_operand(rng, bk), _padic_operand(rng, bk)
            if n % 4 == 3:
                y = -x if rng.random() < 0.5 else -x + bk.from_term(F(rng.randint(0, 12), 4), F(1))
            v = F(rng.randint(-6, 18), rng.choice([1, 2, 3, 4, 6]))
            head = f"p={p} #{n}"
            lines.append(f"{head} x = {x!r}")
            lines.append(f"{head} y = {y!r}")
            lines.append(_padic_line(f"{head} x*y", lambda: x * y))
            lines.append(_padic_line(f"{head} x+y", lambda: x + y))
            lines.append(_padic_line(f"{head} x-y", lambda: x - y))
            lines.append(_padic_line(f"{head} 1/x", x.inverse))
            lines.append(_padic_line(f"{head} x<{v}", lambda: x.truncate_below(v)))
            lines.append(_padic_line(f"{head} res x", x.reduce))
    return "".join(line + "\n" for line in lines)


def test_padic_outcomes_match_golden():
    assert padic_outcomes() == PADIC_GOLDEN.read_text()


RESIDUE_GOLDEN = GOLDEN / "residue-roots.out"
# residue fields GF(p, k) of the root-search corpus: prime and extension
# fields on both sides of residue.TABLE_LIMIT
RESIDUE_FIELDS = [(2, 1), (3, 1), (7, 1), (11, 1), (101, 1), (2, 4), (3, 2), (7, 2), (101, 2)]


def _residue_poly(rng, field, deg):
    p, k = field.p, field.k
    coeffs = [rs.ResidueElement(field, tuple(rng.randrange(p) for _ in range(k)))
              for _ in range(deg + 1)]
    if coeffs[-1].is_zero():
        coeffs[-1] = field.one()
    return coeffs


def _residue_line(head, f):
    try:
        found = f()
    except BerkdynError as exc:
        return f"{head}: {type(exc).__name__}: {exc}"
    return head + ": " + "; ".join(
        (f"{r!r}" if isinstance(r, UnsplitRoots) else f"{r.field.k}:{r.value}") + f" x{m}"
        for r, m in found)


def residue_outcomes():
    """Two lines per polynomial, drawn from seed 1901: `residue_roots` with
    split_k as PADIC sets it (the base field's degree) and unset, at one
    k_max from 1 to 4; each line the roots (field degree, coordinates, in
    order) and multiplicities, the UnsplitRoots mark, or the typed error.
    32 polynomials per field of RESIDUE_FIELDS, a third of them a^2*b with
    repeated factors; 12 over F_101 with an irreducible cubic factor, whose
    roots lie in F_(101^3).  Then `rpoly_split_roots` over F_(2^8), where the
    split takes the absolute trace: products of distinct linear factors
    (q = 2^8) and of irreducibles over F_2 (q = 2, one orbit each)."""
    rng = random.Random(1901)
    lines = []
    cases = []
    for p, k in RESIDUE_FIELDS:
        field = rs.ResidueField(p, k)
        for n in range(32):
            if n % 3 == 2:
                a = _residue_poly(rng, field, rng.randint(1, 2))
                coeffs = rs.rpoly_mul(rs.rpoly_mul(a, a, field),
                                      _residue_poly(rng, field, rng.randint(0, 2)), field)
            else:
                coeffs = _residue_poly(rng, field, rng.randint(1, 6))
            cases.append((field, coeffs, rng.randint(1, 4)))
    f101 = rs.ResidueField(101)
    x = sympy.Symbol("x")
    for _ in range(12):
        while True:
            cubic = [rng.randrange(101) for _ in range(3)] + [1]
            if sympy.Poly(list(reversed(cubic)), x, modulus=101).is_irreducible:
                break
        coeffs = rs.rpoly_mul([f101.from_int(c) for c in cubic],
                              _residue_poly(rng, f101, rng.randint(0, 3)), f101)
        cases.append((f101, coeffs, rng.randint(3, 4)))
    for field, coeffs, k_max in cases:
        for split_k in (field.k, None):
            head = f"{field!r} {[c.value for c in coeffs]} k_max={k_max} split_k={split_k}"
            lines.append(_residue_line(
                head, lambda: residue_roots(coeffs, k_max=k_max, split_k=split_k)))
    big = rs.ResidueField(2, 8)
    for n in range(8):
        g = [big.one()]
        roots = set()
        while len(roots) < rng.randint(3, 6):
            roots.add(tuple(rng.randrange(2) for _ in range(8)))
        for r in sorted(roots):
            g = rs.rpoly_mul(g, [-rs.ResidueElement(big, r), big.one()], big)
        lines.append(f"GF(2^8) {[c.value for c in g]} q=256: "
                     + "; ".join(str(r.value) for r in rs.rpoly_split_roots(g, big, 2**8)))
    x, x1 = (0, 1), (1, 1)
    f2, f4, f8 = (rs._find_irreducible(2, d) for d in (2, 4, 8))
    for factors in [(x1, f2), (f4,), (f2, f4), (f8,), (x, x1, f8), (f2, f8), (f4, f8), (x, f2, f4, f8)]:
        g = [big.one()]
        for f in factors:
            g = rs.rpoly_mul(g, [big.from_int(c) for c in f], big)
        lines.append(f"GF(2^8) {[c.value for c in g]} q=2: "
                     + "; ".join(str(r.value) for r in rs.rpoly_split_roots(g, big, 2)))
    return "".join(line + "\n" for line in lines)


def test_residue_outcomes_match_golden():
    assert residue_outcomes() == RESIDUE_GOLDEN.read_text()


if __name__ == "__main__":
    FIBER_GOLDEN.write_text(fiber_outcomes())
    ROOT_GOLDEN.write_text(root_outcomes())
    TYPEI_GOLDEN.write_text(typei_root_outcomes())
    PADIC_GOLDEN.write_text(padic_outcomes())
    RESIDUE_GOLDEN.write_text(residue_outcomes())
