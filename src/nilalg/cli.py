"""Command-line front door: bounds tables, exact nilpotency degrees,
membership/equivalence verdicts, n = 4 canonical forms, and invariant
generation checks.  JSON is the canonical machine format; the text output
is a convenience view of the same data.

Exit codes: 0 success, 1 runtime guard breached, 2 usage error.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import bounds as B
from . import ideal as I
from . import invariants as V
from . import rewrite4 as R
from .formal import check_characteristic, format_sum, parse_sum
from .words import WordError, format_word


def _add_common(sub, *names, limits=True):
    if "n" in names:
        sub.add_argument("--n", type=int, required=True)
    if "d" in names:
        sub.add_argument("--d", type=int, required=True)
    if "p" in names:
        sub.add_argument("--p", type=int, default=0)
    sub.add_argument("--json", action="store_true", help="emit JSON only")
    if limits:
        sub.add_argument("--limit-rows", type=int, dest="limit_rows",
                         default=I.Limits.max_component_words)
        sub.add_argument("--timeout-sec", type=float, default=None, dest="timeout_sec")


def build_parser():
    parser = argparse.ArgumentParser(prog="nilalg")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("bounds", help="all applicable bound formulas for C(n,d,p)")
    _add_common(sp, "n", "d", "p", limits=False)
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--assume-conjecture-n2", action="store_true", dest="assume_conjecture_n2")

    sp = subs.add_parser("exact", help="exact nilpotency degree by component elimination")
    _add_common(sp, "n", "d", "p")
    sp.add_argument("--max-deg", type=int, required=True, dest="max_deg")

    sp = subs.add_parser("member", help="ideal membership of a formal sum")
    _add_common(sp, "n", "d", "p")
    sp.add_argument("--expr")
    sp.add_argument("--file")

    sp = subs.add_parser("equiv", help="equivalence to zero modulo greater words")
    _add_common(sp, "n", "d", "p")
    sp.add_argument("--order", choices=["gtr", "succ"], default="gtr")
    sp.add_argument("--expr")
    sp.add_argument("--file")

    sp = subs.add_parser("reduce4", help="canonical form in the n = 4 quotient")
    _add_common(sp, "d", "p")
    sp.add_argument("--expr")
    sp.add_argument("--file")

    sp = subs.add_parser("witness4", help="maximal-degree nonzero word, n = 4")
    _add_common(sp, "d", "p")
    sp.add_argument("--max-deg", type=int, required=True, dest="max_deg")

    sp = subs.add_parser("invariants", help="matrix-invariant generation checks")
    sp.add_argument("action", choices=["gen-check"])
    _add_common(sp, "n", "d", "p")
    sp.add_argument("--extra-deg", type=int, default=1, dest="extra_deg")

    sp = subs.add_parser("compare", help="bound-ratio table against the comparator bounds")
    sp.add_argument("--n", type=int, default=2000, help="top of the n range (from 4)")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--csv", action="store_true")
    return parser


def _limits(args):
    """The command's limits, with its one deadline already running."""
    return I.Limits(max_component_words=args.limit_rows, timeout_sec=args.timeout_sec)


def _read_expr(args, d, p):
    if getattr(args, "expr", None) and getattr(args, "file", None):
        raise UsageError("give --expr or --file, not both")
    if getattr(args, "expr", None):
        text = args.expr
    elif getattr(args, "file", None):
        try:
            text = Path(args.file).read_text()
        except OSError as exc:  # missing, a directory, unreadable
            raise UsageError("cannot read --file %s: %s" % (args.file, exc.strerror))
    else:
        raise UsageError("one of --expr or --file is required")
    return parse_sum(text, d, p)


class UsageError(ValueError):
    pass


def _validate(args):
    for name in ("n", "d", "max_deg", "extra_deg", "limit_rows"):
        v = getattr(args, name, None)
        if v is not None and v < 1:
            raise UsageError("--%s must be >= 1" % name.replace("_", "-"))
    timeout = getattr(args, "timeout_sec", None)
    if timeout is not None and not timeout >= 0:  # also refuses NaN
        raise UsageError("--timeout-sec must be a number >= 0")
    p = getattr(args, "p", None)
    if p is not None:
        try:
            check_characteristic(p)
        except ValueError as exc:
            raise UsageError(str(exc))


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def run_bounds(args):
    summary = B.best_bounds(args.n, args.d, args.p, args.assume_conjecture_n2)
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["formula_id", "direction", "value_exact", "value_log10",
                         "applicability", "conditional"])
        for r in summary.all:
            writer.writerow([r.formula_id, r.direction, r.value_exact,
                             "%.6f" % r.value_log10, r.applicability, r.conditional])
        return 0
    lines = ["bounds for C(n=%d, d=%d, p=%d)" % (args.n, args.d, args.p)]
    for r in summary.all:
        val = str(r.value_exact) if r.value_exact is not None else "10^%.3f" % r.value_log10
        lines.append("  %-28s %-5s %-22s %s" % (r.formula_id, r.direction, val,
                                                "(conditional)" if r.conditional else ""))
    lines.append("best upper: %s via %s" %
                 (summary.best_upper.value_exact, summary.best_upper.formula_id))
    lines.append("best lower: %s via %s" %
                 (summary.best_lower.value_exact, summary.best_lower.formula_id))
    _emit(args, summary.to_json(), lines)
    return 0


def run_exact(args):
    result = I.nilpotency_degree(args.n, args.d, args.p, args.max_deg, _limits(args))
    print(json.dumps(result.to_json(), sort_keys=True))
    return 0


def run_member(args):
    f = _read_expr(args, args.d, args.p)
    residual = I.reduce(args.n, args.p, f, _limits(args))
    verdict = residual.is_zero()
    payload = {"member": verdict, "residual": format_sum(residual)}
    _emit(args, payload, ["member: %s" % str(verdict).lower(),
                          "residual: %s" % format_sum(residual)])
    return 0


def run_equiv(args):
    f = _read_expr(args, args.d, args.p)
    verdict, cert = I.equiv_zero_certificate(args.n, args.p, f, args.order, _limits(args))
    payload = {
        "equiv_zero": verdict,
        "order": args.order,
        "certificate": format_sum(cert) if cert is not None else None,
    }
    _emit(args, payload, ["equiv_zero (%s): %s" % (args.order, str(verdict).lower()),
                          "certificate: %s" % payload["certificate"]])
    return 0


def run_reduce4(args):
    f = _read_expr(args, args.d, args.p)
    limits = _limits(args)
    g = R.canonicalize(args.d, args.p, f, limits)
    in_ideal = I.contains(R.N4, args.p, f - g, limits)
    payload = {"canonical": format_sum(g), "difference_in_ideal": in_ideal}
    _emit(args, payload, ["canonical form: %s" % format_sum(g),
                          "difference in ideal: %s" % str(in_ideal).lower()])
    return 0


def run_witness4(args):
    w = R.witness_search(args.d, args.p, range(1, args.max_deg + 1), _limits(args))
    payload = {"witness": format_word(w) if w else None,
               "degree": len(w) if w else None}
    _emit(args, payload, ["witness: %s" % payload["witness"],
                          "degree: %s" % payload["degree"]])
    return 0


def run_invariants(args):
    report = V.generation_check(args.n, args.d, args.p, args.extra_deg,
                                limits=_limits(args))
    print(json.dumps(report, sort_keys=True))
    return 0 if report["summary"]["all_pass"] else 1


def run_compare(args):
    if args.n < 4:
        raise UsageError("compare needs --n >= 4")
    rows = B.comparator_rows(4, args.n, args.d)  # made one at a time
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "log10_ratio"])
        for n, ratio in rows:
            writer.writerow([n, "%.6f" % ratio])
        return 0
    argmin_n, min_ratio = min(rows, key=lambda r: r[1])
    payload = {"d": args.d, "n_min": 4, "n_max": args.n,
               "min_log10_ratio": min_ratio, "argmin_n": argmin_n}
    _emit(args, payload, [
        "comparator ratio, d=%d, n in [4, %d]" % (args.d, args.n),
        "min log10(comparator / ours) = %.3f at n = %d" % (min_ratio, argmin_n),
    ])
    return 0


_RUNNERS = {
    "bounds": run_bounds,
    "exact": run_exact,
    "member": run_member,
    "equiv": run_equiv,
    "reduce4": run_reduce4,
    "witness4": run_witness4,
    "invariants": run_invariants,
    "compare": run_compare,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        _validate(args)
        return _RUNNERS[args.subcommand](args)
    except (UsageError, WordError, ValueError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except I.GuardError as exc:
        print("guard breached: %s" % exc, file=sys.stderr)
        if exc.partial is not None:
            print(json.dumps(exc.partial.to_json(), sort_keys=True), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head`): not a failure; stdout
        # goes to devnull so that the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
