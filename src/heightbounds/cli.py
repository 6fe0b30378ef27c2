"""Command-line interface: every operation behind one entry point with
stable JSON output.

Exit codes: 0 success / holds / equality-candidate; 1 violated hypotheses or
not-applicable; 2 undecided at precision; 3 runtime or schema errors;
64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import jsonio
from .algebraic import DEFAULT_DEGREE_CAP, AlgebraicNumber, _isolated, conjugate_box
from .bounds import ThresholdError, bound_constants, optimal_b, rho, segment_min
from .forms import FormError, weight_scheme
from .heights import HeightError, mahler_measure, weil_log_height
from .intervals import decimal_midpoint
from .polys import PolynomialError, parse_polynomial, squarefree_part
from .search import (CursorError, SearchError, SearchSpace, equality_hunt,
                     min_height_survey)
from .spotcheck import SpotcheckError, polydisk_spotcheck
from .verify import (EQUALITY, HOLDS, PRECISION_CAP, VIOLATED, InstanceError,
                     UndecidedError, schinzel_check, verify_corollary, verify_theorem)

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3
EXIT_USAGE = 64

JOBS_CAP = 256  # worker processes; each takes its own memory


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(EXIT_USAGE)


class CliError(Exception):
    def __init__(self, message, code=EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise CliError("%s is not valid JSON: %s" % (path, e))


def parse_algnum(text: str) -> AlgebraicNumber:
    """Literal forms: 'p/q', '<poly>@<selector>', or a .json file path.

    Selectors: '#k' picks the k-th root in canonical order; a decimal or
    complex literal ('1.618', 'i', '-0.5+0.866i') picks the nearest root.
    """
    text = text.strip()
    if text.endswith(".json"):
        return jsonio.algnum_from_json(_load_json(text))
    if "@" not in text:
        try:
            return AlgebraicNumber.from_rational(Fraction(text))
        except (ValueError, ZeroDivisionError):
            pass
        poly = parse_polynomial(text)
        sf = squarefree_part(poly)
        boxes = _isolated(sf.canonical())
        if len(boxes) == 1:
            return AlgebraicNumber.from_root(poly, boxes[0])
        raise CliError("polynomial %r has %d roots; add '@<selector>'"
                       % (text, len(boxes)))
    poly_text, sel = text.rsplit("@", 1)
    poly = parse_polynomial(poly_text)
    sf = squarefree_part(poly).canonical()
    boxes = [conjugate_box(sf, i, Fraction(1, 1 << 40)) for i in range(len(_isolated(sf)))]
    sel = sel.strip()
    if sel.startswith("#"):
        try:
            k = int(sel[1:])
            box = boxes[k]
        except (ValueError, IndexError):
            raise CliError("bad root index %r (have %d roots)" % (sel, len(boxes)))
        return AlgebraicNumber.from_root(poly, box)
    try:
        target = complex(sel.replace("i", "j"))
    except ValueError:
        raise CliError("bad root selector %r" % sel)
    dists = []
    for b in boxes:
        mid = complex(float(b.re.mid), float(b.im.mid))
        dists.append(abs(mid - target))
    order = sorted(range(len(boxes)), key=lambda k: dists[k])
    best = order[0]
    if len(order) > 1 and dists[order[1]] < 2 * dists[best] + 1e-12:
        raise CliError("selector %r is ambiguous between roots near %s and %s"
                       % (sel, dists[best], dists[order[1]]))
    return AlgebraicNumber.from_root(poly, boxes[best])


def _emit(doc: dict, fmt: str, headline: str = ""):
    if fmt == "text" and headline:
        print(headline)
    print(jsonio.dumps(doc))


def _verdict_exit(status: str) -> int:
    if status in (HOLDS, EQUALITY):
        return EXIT_OK
    if status == VIOLATED:
        return EXIT_HYPOTHESIS
    return EXIT_UNDECIDED


# -- subcommand implementations ----------------------------------------------


def _cmd_mahler(args) -> int:
    f = parse_polynomial(args.poly)
    # max(|lead|, |f(0)|) <= M(f), so this asks for relative precision
    tol = Fraction(1, 1 << (args.precision + 2))
    m = mahler_measure(f, max(abs(f.lead), abs(f.constant)) * tol)
    approx, pm = decimal_midpoint(m, max_digits=min(40, args.precision * 3 // 10))
    _emit({"measure": jsonio.interval_to_json(m, args.precision),
           "approx": approx, "pm": pm}, args.format,
          "M(%s) = %s ±%s" % (f, approx, pm))
    return EXIT_OK


def _cmd_height(args) -> int:
    a = parse_algnum(args.number)
    h = weil_log_height(a, args.precision)
    approx, pm = decimal_midpoint(h.log_height, max_digits=min(40, args.precision * 3 // 10))
    _emit({"log_height": jsonio.height_to_json(h), "approx": approx, "pm": pm,
           "minpoly": list(a.minpoly.coeffs)}, args.format,
          "log h = %s ±%s" % (approx, pm))
    return EXIT_OK


def _cmd_constants(args) -> int:
    F, E = jsonio.form_from_json(_load_json(args.form))
    bc = bound_constants(F, E, args.precision)
    _emit(jsonio.constants_to_json(bc), args.format,
          "delta=%s C_F=%d rho~%.10g" % (bc.delta, bc.c_f, float(bc.rho)))
    return EXIT_OK


def _cmd_rho(args) -> int:
    value, log_rho = rho(args.cf, Fraction(args.delta), args.precision)
    box = value.box(Fraction(1, 1 << (args.precision + 2)))
    approx, pm = decimal_midpoint(box.re, max_digits=min(40, args.precision * 3 // 10))
    _emit({"minpoly": list(value.minpoly.coeffs), "approx": approx, "pm": pm,
           "log_rho": jsonio.interval_to_json(log_rho, args.precision)},
          args.format, "rho = %s ±%s" % (approx, pm))
    return EXIT_OK


def _cmd_lemma33(args) -> int:
    bits = min(args.precision, 80)
    sol = segment_min(Fraction(args.alpha), Fraction(args.beta),
                      Fraction(args.gamma), bits)
    gap = sol.exp_neg_value - sol.root
    _emit({
        "u": jsonio.frac_str(sol.u),
        "v": jsonio.frac_str(sol.v),
        "min_value": jsonio.interval_to_json(sol.value, bits),
        "exp_neg_min": jsonio.interval_to_json(sol.exp_neg_value, bits),
        "root": jsonio.interval_to_json(sol.root, bits),
        "max_discrepancy": "%.3g" % float(max(abs(gap.lo), abs(gap.hi))),
    }, args.format, "l = %.12g, e^-l = %.12g" % (
        float(sol.value.mid), float(sol.exp_neg_value.mid)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    F, E = jsonio.form_from_json(_load_json(args.form))
    point = jsonio.point_from_json(_load_json(args.point))
    verdict = verify_theorem(F, E, point, args.precision, cap=args.cap)
    _emit(jsonio.verdict_to_json(verdict), args.format, "status: %s" % verdict.status)
    return _verdict_exit(verdict.status)


def _cmd_corollary(args) -> int:
    inst = jsonio.instance_from_json(_load_json(args.instance))
    verdict = verify_corollary(inst, args.precision, cap=args.cap)
    _emit(jsonio.verdict_to_json(verdict), args.format, "status: %s" % verdict.status)
    return _verdict_exit(verdict.status)


def _cmd_schinzel(args) -> int:
    a = parse_algnum(args.number)
    result = schinzel_check(a, args.precision, cap=args.cap)
    if not result.applicable:
        _emit({"applicable": False, "reasons": list(result.reasons)},
              args.format, "not applicable: %s" % "; ".join(result.reasons))
        return EXIT_HYPOTHESIS
    doc = jsonio.verdict_to_json(result.verdict)
    doc["applicable"] = True
    _emit(doc, args.format, "status: %s" % result.verdict.status)
    return _verdict_exit(result.verdict.status)


def _cmd_search(args) -> int:
    space = SearchSpace.from_json_dict(_load_json(args.space))
    result = min_height_survey(space, bits=args.precision, jobs=args.jobs,
                               records_path=args.records, cursor_path=args.cursor)
    doc = {
        "records": len(result.records),
        "stats": result.stats,
        "bits": result.bits,
        "strict_minimum": result.strict,
        "minimum": None,
        "tie_class": [list(r.minpoly.coeffs) for r in result.tie_class],
    }
    if result.minimum is not None:
        doc["minimum"] = result.minimum.to_json_dict()
    if args.records:
        doc["records_path"] = args.records
    _emit(doc, args.format,
          "%d records; minimum %s" % (len(result.records),
                                      result.minimum and result.minimum.minpoly))
    return EXIT_OK


def _cmd_hunt(args) -> int:
    space = SearchSpace.from_json_dict(_load_json(args.space))
    found = equality_hunt(args.r, space, bits=args.precision)
    doc = {"count": len(found),
           "instances": [{"instance": jsonio.instance_to_json(inst),
                          "verdict": jsonio.verdict_to_json(v)}
                         for inst, v in found]}
    _emit(doc, args.format, "%d equality candidates" % len(found))
    return EXIT_OK


def _cmd_spotcheck(args) -> int:
    F, E = jsonio.form_from_json(_load_json(args.form))
    bc = bound_constants(F, E, 64)
    if args.b is not None:
        b = Fraction(args.b)
    else:
        b = Fraction(optimal_b(bc.delta, bc.c_f, bits=48).b).limit_denominator(10 ** 9)
    scheme = weight_scheme(F, E, b)
    report = polydisk_spotcheck(F, E, scheme, trials=args.trials,
                                reference=-float(bc.log_rho.mid), seed=args.seed)
    _emit({
        "feasible": report.feasible,
        "best_phi": None if not report.feasible else report.best_phi,
        "moduli": [float(m) for m in report.best_moduli],
        "structure_ok": report.structure_ok,
        "neg_log_rho": report.reference,
        "consistent": report.consistent,
        "trials": report.trials,
        "b": jsonio.frac_str(b),
    }, args.format, repr(report))
    return EXIT_OK


# -- argument wiring -------------------------------------------------------------


def build_parser() -> _Parser:
    top = _Parser(prog="heightbounds",
                  description="Exact heights of algebraic numbers and certified "
                              "lower-bound constants for multihomogeneous forms")
    top.add_argument("--precision", type=int, default=128,
                     help="working precision in bits, 32 to %d (default %%(default)s)"
                          % PRECISION_CAP)
    top.add_argument("--format", choices=("json", "text"), default="json")
    top.add_argument("--jobs", type=int, default=1,
                     help="worker processes, 1 to %d (default %%(default)s)" % JOBS_CAP)
    top.add_argument("--cap", type=int, default=DEFAULT_DEGREE_CAP,
                     help="composite-degree cap for exact algebraic arithmetic")
    sub = top.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("mahler", help="Mahler measure of an integer polynomial")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_mahler)

    p = sub.add_parser("height", help="Weil log-height of an algebraic number")
    p.add_argument("number", help="'p/q', '<poly>@<selector>' or algnum .json path")
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("constants", help="bound constants for an F.json")
    p.add_argument("form")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("rho", help="the threshold root > 1 of x^-2 + C^-1 x^-delta = 1")
    p.add_argument("--cf", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("lemma33", help="constrained segment minimization and its root")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.set_defaults(func=_cmd_lemma33)

    p = sub.add_parser("verify", help="verify the height inequality on a point")
    p.add_argument("form")
    p.add_argument("point")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corollary", help="verify a sum-equals-N instance")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_corollary)

    p = sub.add_parser("schinzel", help="totally-real integer height floor check")
    p.add_argument("number")
    p.set_defaults(func=_cmd_schinzel)

    p = sub.add_parser("search", help="exhaustive minimum-height survey")
    p.add_argument("space")
    p.add_argument("--records", default=None, help="records JSONL output path")
    p.add_argument("--cursor", default=None, help="checkpoint cursor path")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("hunt", help="equality-case hunt for the sum bound")
    p.add_argument("space")
    p.add_argument("--r", type=int, default=1, choices=(1, 2))
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("spotcheck", help="numeric polydisk maximization report")
    p.add_argument("form")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--b", default=None, help="weight b (default: optimal)")
    p.set_defaults(func=_cmd_spotcheck)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if not 32 <= args.precision <= PRECISION_CAP:
        sys.stderr.write("error: precision must be between 32 and %d\n" % PRECISION_CAP)
        return EXIT_USAGE
    if not 1 <= args.jobs <= JOBS_CAP:
        sys.stderr.write("error: jobs must be between 1 and %d\n" % JOBS_CAP)
        return EXIT_USAGE
    if args.cap < 1:
        sys.stderr.write("error: cap must be >= 1\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except CliError as e:
        sys.stderr.write("error: %s\n" % e)
        return e.code
    except UndecidedError as e:
        sys.stderr.write("undecided: %s\n" % e)
        return EXIT_UNDECIDED
    except jsonio.SchemaError as e:
        sys.stderr.write("schema error: %s\n" % e)
        return EXIT_ERROR
    except (PolynomialError, FormError, InstanceError, ThresholdError,
            HeightError, SearchError, CursorError, SpotcheckError,
            ValueError, ZeroDivisionError, ArithmeticError) as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
