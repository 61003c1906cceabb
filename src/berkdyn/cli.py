"""Command-line entry point.

Every subcommand parses a backend spec, runs one computation, and prints a
deterministic JSON report (or DOT, or a plain-text table for the example
suite).  Numeric report fields are tagged "exact" (rational, printed as a
fraction string) or "approx(<tol>)" (floating point).  Usage errors exit 2;
computational errors exit 3 with a machine-readable error object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from .berkovich import BerkPoint, seminorm_eval
from .equilibrium import (
    equilibrium_approx,
    invariance_defect,
    mean_degree,
    partition_masses,
    periodic_solution_measure,
    theorem_e_detect,
)
from .errors import BerkdynError, Inconclusive
from .fields import INF, parse_backend
from .measures import AtomicMeasure
from .ratmap import RationalMap
from . import skeleton as sk


# -- report helpers -----------------------------------------------------


def exact(value):
    """Tag an exact rational (or integer / fraction-valued) field."""
    return {"tag": "exact", "value": str(value)}


def approx(value, tol="1e-12"):
    """Tag a floating-point field with its tolerance."""
    return {"tag": f"approx({tol})", "value": float(value)}


def emit(report, out=None):
    text = json.dumps(report, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _backend(args):
    override = os.environ.get("BERK_PRECISION")
    try:
        precision = int(override) if override else None
        return parse_backend(args.backend, precision=precision)
    except (ValueError, KeyError) as e:
        env = f" with BERK_PRECISION={override}" if override else ""
        raise UsageError(f"bad backend spec {args.backend!r}{env}: {e}")


def _consts(args):
    out = {}
    for item in args.const or []:
        name, eq, val = item.partition("=")
        if not eq:
            raise UsageError(f"bad --const {item!r}, expected name=value")
        out[name.strip()] = Fraction(val)
    return out


def _map(args, bk):
    try:
        return RationalMap.parse(args.map, bk, consts=_consts(args) or None)
    except BerkdynError:
        raise
    except (ValueError, SyntaxError) as e:
        raise UsageError(f"bad map literal {args.map!r}: {e}")


def _point(args, bk, attr="point"):
    text = getattr(args, attr)
    if text == "can":
        return BerkPoint.canonical(bk)
    try:
        return BerkPoint.from_json(bk, json.loads(text))
    except (ValueError, KeyError, TypeError) as e:
        raise UsageError(f"bad point {text!r}: {e}")


def _measure_report(rho: AtomicMeasure):
    return [
        {"point": p.to_json(), "mass": exact(m)}
        for p, m in sorted(rho.atoms, key=lambda a: a[0].sort_key())
    ]


class UsageError(Exception):
    pass


# -- subcommand handlers ------------------------------------------------


def cmd_eval_norm(args):
    bk = _backend(args)
    R = _map(args, bk)
    if any(not c.is_zero_to_precision() for c in R.den[1:]):
        raise UsageError("eval-norm expects a polynomial (constant denominator)")
    S = _point(args, bk)
    num = [c / R.den[0] for c in R.num]
    v = seminorm_eval(S, num)
    report = {"valuation": exact(v) if v != INF else {"tag": "exact", "value": "inf"}}
    emit(report, args.out)


def cmd_image(args):
    bk = _backend(args)
    R = _map(args, bk)
    S = _point(args, bk)
    emit({"image": R.image_point(S).to_json()}, args.out)


def cmd_preimages(args):
    bk = _backend(args)
    R = _map(args, bk)
    T = _point(args, bk)
    fiber = R.preimages(T, partial=args.partial)
    report = {
        "fiber": [{"point": S.to_json(), "mult": m} for S, m in fiber],
        "total_multiplicity": sum(m for _, m in fiber),
    }
    emit(report, args.out)


def cmd_local_degree(args):
    bk = _backend(args)
    R = _map(args, bk)
    S = _point(args, bk)
    emit({"local_degree": R.local_degree(S)}, args.out)


def cmd_degtop(args):
    bk = _backend(args)
    R = _map(args, bk)
    emit(
        {"degree": R.degree, "topological_degree": R.topological_degree()},
        args.out,
    )


def cmd_good_reduction(args):
    bk = _backend(args)
    R = _map(args, bk)
    emit({"good_reduction": R.good_reduction_check()}, args.out)


def cmd_exceptional(args):
    bk = _backend(args)
    R = _map(args, bk)
    pts = R.exceptional_points()
    emit({"exceptional": [p.to_json() for p in pts]}, args.out)


def cmd_equilibrium(args):
    bk = _backend(args)
    R = _map(args, bk)
    base = _point(args, bk, "base")
    approx_chain = equilibrium_approx(R, base, args.iters, partial=args.partial)
    report = {
        "iters": args.iters,
        "measure": _measure_report(approx_chain.measure),
    }
    if args.check_invariance:
        report["invariance_defect"] = exact(invariance_defect(approx_chain))
    if args.partition:
        kind, _, spec = args.partition.partition(":")
        if kind != "residue":
            raise UsageError(f"unknown partition kind {kind!r}")
        opts = dict(item.partition("=")[::2] for item in spec.split(",") if item)
        depth = int(opts.get("depth", 1))
        masses = partition_masses(approx_chain, depth)
        report["partition"] = {str(k): exact(v) for k, v in masses.items()}
    emit(report, args.out)


def cmd_detect_pgr(args):
    bk = _backend(args)
    R = _map(args, bk)
    result = theorem_e_detect(R, n_max=args.n_max)
    emit({"single_invariant_atom": bool(result)}, args.out)


def cmd_entropy_bounds(args):
    bk = _backend(args)
    R = _map(args, bk)
    base = _point(args, bk, "base")
    chain = equilibrium_approx(R, base, args.iters)
    md = mean_degree(R, chain)
    emit(
        {
            "degtop_log": approx(math.log(R.topological_degree())),
            # the same expression as entropy_lower_bound, without a second
            # pass over the atoms
            "h_lower": approx(math.log(R.degree) - math.log(md)),
            "mean_degree": approx(md),
        },
        args.out,
    )


def cmd_periodic_measure(args):
    bk = _backend(args)
    R = _map(args, bk)
    try:
        rhs = RationalMap.parse(args.rhs, bk)
    except (ValueError, SyntaxError) as e:
        raise UsageError(f"bad map literal {args.rhs!r}: {e}")
    rho = periodic_solution_measure(R, rhs, args.n, partial=args.partial)
    emit(
        {
            "n": args.n,
            "solutions": _measure_report(rho),
            "total": exact(rho.total_mass),
        },
        args.out,
    )


def cmd_skeleton(args):
    params = {}
    for key in ("d", "alog", "p", "m"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    M = sk.catalog(args.example, **params)
    reports = [r.strip() for r in args.report.split(",") if r.strip()]
    out = {"example": args.example.upper(), "branches": len(M.branches)}
    for r in reports:
        if r == "entropies":
            h_top, h_eq, weights = sk.entropies(M)
            out["entropies"] = {
                "h_top": approx(h_top),
                "h_eq": approx(h_eq),
                "weights": [exact(w) for w in weights],
            }
        elif r == "invariant-set":
            kind, gaps = sk.invariant_set(M)
            out["invariant_set"] = {"kind": kind}
            if gaps is not None:
                out["invariant_set"]["gaps"] = [
                    [exact(a), exact(b)] for a, b in gaps
                ]
        elif r == "cross-validate":
            out["cross_validate"] = {"checked": sk.cross_validate(M, args.samples)}
        elif r == "cylinders":
            code = sk.SymbolicCode(M)
            out["cylinders"] = [
                {
                    "word": list(word),
                    "interval": [exact(lo), exact(hi)],
                    "mass": exact(mass),
                }
                for word, (lo, hi), mass in code.cylinders(args.depth)
            ]
        else:
            raise UsageError(f"unknown report {r!r}")
    if args.dot:
        print(_cylinder_dot(sk.SymbolicCode(M), args.depth))
        return
    emit(out, args.out)


def _cylinder_dot(code, depth):
    lines = ["digraph cylinders {"]
    lines.append('  root [label="[]"];')
    for d in range(1, depth + 1):
        for word, (lo, hi), mass in code.cylinders(d):
            name = "c" + "_".join(map(str, word))
            parent = "c" + "_".join(map(str, word[:-1])) if d > 1 else "root"
            lines.append(f'  {name} [label="{list(word)} [{lo},{hi}] m={mass}"];')
            lines.append(f"  {parent} -> {name};")
    lines.append("}")
    return "\n".join(lines)


def cmd_shift(args):
    report = {"p": args.p, "depth": args.depth}
    report["radii"] = [exact(sk.shift_radius(args.p, k)) for k in range(1, args.depth + 1)]
    report["counts"] = [args.p ** k for k in range(1, args.depth + 1)]
    if args.check_against_solver:
        levels, _code = sk.shift_model(args.p, args.depth)
        report["levels"] = [
            [S.to_json() for S in level] for level in levels
        ]
        report["solver_check"] = "PASS"
    emit(report, args.out)


# -- the example reproduction suite -------------------------------------


def _suite_rows():
    def r0():
        M = sk.catalog("R0")
        h_top, h_eq, _ = sk.entropies(M)
        kind, _ = sk.invariant_set(M)
        assert kind == sk.CANTOR
        assert abs(h_eq - 0.6730116670092565) < 1e-9
        assert 0 < h_eq < math.log(2) < math.log(5)
        sk.cross_validate(M, 40)

    def r1():
        M = sk.catalog("R1")
        h_top, h_eq, _ = sk.entropies(M)
        kind, _ = sk.invariant_set(M)
        assert kind == sk.FULL_SEGMENT
        assert abs(h_top - math.log(3)) < 1e-12
        assert abs(h_eq - 1.0549201679861442) < 1e-9
        sk.cross_validate(M, 100)

    def lattes():
        for m in (2, 3):
            M = sk.catalog("LATTES", m=m, p=5)
            h_top, _, _ = sk.entropies(M)
            assert abs(h_top - math.log(m)) < 1e-12
            sk.cross_validate(M, 100)

    def shift():
        levels, _ = sk.shift_model(2, 3)
        for k, level in enumerate(levels[1:], start=1):
            assert len(level) == 2 ** k
            assert all(S.logr == sk.shift_radius(2, k) for S in level)

    return [("R0", r0), ("R1", r1), ("LATTES", lattes), ("SHIFT", shift)]


def cmd_examples(args):
    if args.action != "run-all":
        raise UsageError(f"unknown examples action {args.action!r}")
    rows = []
    failed = False
    for name, fn in _suite_rows():
        t0 = time.time()
        try:
            fn()
            status = "PASS"
        except (AssertionError, BerkdynError) as e:
            status = f"FAIL ({type(e).__name__})"
            failed = True
        rows.append((name, status, time.time() - t0))
    width = max(len(n) for n, _, _ in rows)
    print(f"{'example':<{width}}  status  seconds")
    for name, status, dt in rows:
        print(f"{name:<{width}}  {status:<6}  {dt:.2f}")
    return 1 if failed else 0


# -- argument parsing ---------------------------------------------------


def _add_common(sp, point=False, map_=True):
    sp.add_argument("--backend", default="padic:p=2,prec=40", help="backend spec")
    if map_:
        sp.add_argument("--map", required=True, help="rational map literal")
        sp.add_argument(
            "--const", action="append", help="bind a named constant, name=value"
        )
    if point:
        sp.add_argument("--point", required=True, help="point JSON or 'can'")
    sp.add_argument("--out", help="write the JSON report to a file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="berk",
        description="Exact dynamics of rational maps on the Berkovich line",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("eval-norm", help="seminorm of a polynomial at a point")
    _add_common(sp, point=True)
    sp.set_defaults(fn=cmd_eval_norm)

    sp = sub.add_parser("image", help="image of a point under the map")
    _add_common(sp, point=True)
    sp.set_defaults(fn=cmd_image)

    sp = sub.add_parser("preimages", help="fiber of a point with multiplicities")
    _add_common(sp, point=True)
    sp.add_argument("--partial", action="store_true", help="skip unrepresentable fiber points")
    sp.set_defaults(fn=cmd_preimages)

    sp = sub.add_parser("local-degree", help="local degree at a point")
    _add_common(sp, point=True)
    sp.set_defaults(fn=cmd_local_degree)

    sp = sub.add_parser("degtop", help="algebraic and topological degrees")
    _add_common(sp)
    sp.set_defaults(fn=cmd_degtop)

    sp = sub.add_parser("good-reduction", help="good reduction at the canonical point")
    _add_common(sp)
    sp.set_defaults(fn=cmd_good_reduction)

    sp = sub.add_parser("exceptional", help="exceptional type-I points")
    _add_common(sp)
    sp.set_defaults(fn=cmd_exceptional)

    sp = sub.add_parser("equilibrium", help="normalized iterated pullback measure")
    _add_common(sp)
    sp.add_argument("--base", default="can", help="base point JSON or 'can'")
    sp.add_argument("--iters", type=int, default=4)
    sp.add_argument("--partial", action="store_true")
    sp.add_argument("--check-invariance", action="store_true")
    sp.add_argument("--partition", help="partition spec, e.g. residue:depth=2")
    sp.set_defaults(fn=cmd_equilibrium)

    sp = sub.add_parser("detect-pgr", help="single invariant type-II atom?")
    _add_common(sp)
    sp.add_argument("--n-max", type=int, default=8)
    sp.set_defaults(fn=cmd_detect_pgr)

    sp = sub.add_parser("entropy-bounds", help="entropy lower bound report")
    _add_common(sp)
    sp.add_argument("--base", default="can")
    sp.add_argument("--iters", type=int, default=4)
    sp.set_defaults(fn=cmd_entropy_bounds)

    sp = sub.add_parser("periodic-measure", help="divisor of solutions of R^n = S")
    _add_common(sp)
    sp.add_argument("--rhs", default="z", help="right-hand map literal")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--partial", action="store_true")
    sp.set_defaults(fn=cmd_periodic_measure)

    sp = sub.add_parser("skeleton", help="catalog segment dynamics reports")
    sp.add_argument("--example", required=True, help="R0 | R1 | LATTES")
    sp.add_argument("--d", type=int)
    sp.add_argument("--alog", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--report", default="entropies,invariant-set")
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--depth", type=int, default=2, help="cylinder depth")
    sp.add_argument("--dot", action="store_true", help="emit the cylinder tree as DOT")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_skeleton)

    sp = sub.add_parser("shift", help="ball-splitting polynomial component tree")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--check-against-solver", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_shift)

    sp = sub.add_parser("examples", help="run the example reproduction suite")
    sp.add_argument("action", help="run-all")
    sp.set_defaults(fn=cmd_examples)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        return 0 if code is None else code
    except UsageError as e:
        print(f"berk: {e}", file=sys.stderr)
        return 2
    except (BerkdynError, Inconclusive) as e:
        print(
            json.dumps(
                {"error": type(e).__name__, "message": str(e)}, sort_keys=True
            )
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
