"""Command-line surface.  One subcommand per capability, JSON or text reports.

Exit status: 0 success, 2 validation errors, 3 scope errors (requests the
tool refuses, e.g. enumerating an infinite resonance set without a cap),
4 certificate failures (an exact re-check of a proven bound or identity
failed: a defect in nfkit, not in the input).
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .centralizer import centralizer_exact, centralizer_truncated, normalizer_truncated
from .errors import (
    InfiniteResonance,
    InputError,
    NFKitError,
    NotPDNF,
    SearchCapReached,
    ZeroEigenvalue,
)
from .fields import pdnf_basis
from .invariants import (
    check_free_module,
    check_onediv,
    invariant_generators,
    reduce_vectorfield,
)
from .jacobi import divergence_integral_check, solve_multiplier
from .resonance import resonance_set
from .spectrum import classify_dim3


def _integer(text):
    """An integer argument: an optional sign and ASCII digits, as `serialize` reads them.

    Blanks, digit separators and non-ASCII digits, which `int` accepts, exit 2.
    """
    if not serialize.INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


def _build_parser():
    parser = argparse.ArgumentParser(prog="nfkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, spectrum=True, field=False):
        p = sub.add_parser(name, help=help_text)
        if spectrum:
            p.add_argument("--spectrum", required=True, help="spectrum JSON file")
        if field:
            p.add_argument("--field", required=True, help="field JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = add("resonances", "enumerate resonant multi-indices")
    p.add_argument("--max-degree", type=_integer, default=None, help="cap for infinite sets")

    p = add("pdnf-basis", "unit vector monomials spanning the normal-form space")
    p.add_argument("--max-degree", type=_integer, default=None)

    p = add("centralizer", "commuting vector fields", field=True)
    p.add_argument("--truncate", type=_integer, default=None, help="force the truncated solver")

    p = add("normalizer", "orbital-symmetry generators", field=True)
    p.add_argument("--truncate", type=_integer, required=True)

    add("invariants", "monomial first integrals and module checks")

    add("reduce", "reduction by invariants", field=True)

    p = add("jacobi", "inverse Jacobi multiplier ladder", field=True)
    p.add_argument("--r-min", type=_integer, required=True)
    p.add_argument("--r-max", type=_integer, required=True)
    p.add_argument("--truncate", type=_integer, required=True)

    p = sub.add_parser("classify3", help="dimension-3 distinguished-setting test")
    p.add_argument("d", type=_integer, nargs=3)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = add("check", "validate inputs and the normal-form property", field=False)
    p.add_argument("--field", default=None)

    return parser


# parse_args leaves the parser unchanged, so one tree serves every call
_PARSER = _build_parser()


def _emit(args, doc, text_lines):
    if args.format == "json":
        sys.stdout.write(serialize.dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _cmd_resonances(args):
    s = serialize.spectrum_from_json(serialize.load_json_file(args.spectrum))
    rs = resonance_set(s, cap=args.max_degree)
    doc = serialize.resonance_set_to_json(rs)
    lines = [
        f"finite: {rs.finite}"
        + (f", degree bound {rs.degree_bound}" if rs.finite else f", cap {rs.cap}"),
        f"total resonances: {rs.total}",
    ]
    for j, rj in enumerate(rs.by_component):
        if rj:
            lines.append(f"  component {j + 1}: " + " ".join(str(list(m)) for m in rj))
    _emit(args, doc, lines)


def _cmd_pdnf_basis(args):
    s = serialize.spectrum_from_json(serialize.load_json_file(args.spectrum))
    basis = pdnf_basis(s, args.max_degree)
    doc = {"count": len(basis), "basis": [serialize.field_to_json(b) for b in basis]}
    lines = [f"{len(basis)} resonant vector monomials"]
    for b in basis:
        (j, m), _ = next(iter(b.sorted_terms()))
        lines.append(f"  x^{list(m)} e_{j + 1}")
    _emit(args, doc, lines)


def _cmd_centralizer(args):
    s = serialize.spectrum_from_json(serialize.load_json_file(args.spectrum))
    f = serialize.field_from_json(serialize.load_json_file(args.field))
    if args.truncate is not None:
        res = centralizer_truncated(s, f, args.truncate)
    else:
        try:
            res = centralizer_exact(s, f)
        except InfiniteResonance:
            raise InputError("infinite resonance set: pass --truncate") from None
    doc = serialize.centralizer_to_json(res)
    lines = [
        f"dimension: {res.dimension} ({'exact' if res.exact else f'truncated at {res.truncation}'})",
        f"bounds: d = {res.d}, r = {res.r}",
    ]
    if res.note:
        lines.append(res.note)
    _emit(args, doc, lines)


def _cmd_normalizer(args):
    s = serialize.spectrum_from_json(serialize.load_json_file(args.spectrum))
    f = serialize.field_from_json(serialize.load_json_file(args.field))
    res = normalizer_truncated(s, f, args.truncate)
    doc = serialize.normalizer_to_json(res)
    _emit(args, doc, [f"dimension: {res.dimension} (truncated at {res.truncation})"])


def _cmd_invariants(args):
    s = serialize.spectrum_from_json(serialize.load_json_file(args.spectrum))
    inv = invariant_generators(s)
    doc = serialize.invariants_to_json(inv)
    try:
        free = check_free_module(s).free
    except ZeroEigenvalue:
        free = None
    onediv = check_onediv(s)
    doc["free_module"] = free
    doc["onediv"] = onediv.holds
    lines = [
        f"generators: {[list(g) for g in inv.generators]}",
        f"independent: {inv.independent}",
        f"free module: {doc['free_module']}",
        f"onediv: {onediv.holds}",
    ]
    _emit(args, doc, lines)


def _cmd_reduce(args):
    s = serialize.spectrum_from_json(serialize.load_json_file(args.spectrum))
    f = serialize.field_from_json(serialize.load_json_file(args.field))
    inv = invariant_generators(s)
    red = reduce_vectorfield(s, inv, f)
    doc = serialize.reduced_to_json(red)
    _emit(args, doc, [f"reduced to {red.r} variables", f"nu: {[list(map(str, r)) for r in red.nu]}"])


def _cmd_jacobi(args):
    s = serialize.spectrum_from_json(serialize.load_json_file(args.spectrum))
    f = serialize.field_from_json(serialize.load_json_file(args.field))
    ladder = solve_multiplier(s, f, args.r_min, args.r_max, args.truncate)
    doc = serialize.ladder_to_json(ladder)
    lines = [ladder.support_note]
    for e in ladder.entries:
        if e.status == "solved":
            lines.append(f"  r = {e.r}: solved up to degree {ladder.D}")
        else:
            lines.append(f"  r = {e.r}: inconsistent at degree {e.failed_degree}")
    if ladder.ladder_note:
        lines.append(ladder.ladder_note)
    _emit(args, doc, lines)


def _cmd_classify3(args):
    d1, d2, d3 = args.d
    verdict = classify_dim3(d1, d2, d3)
    doc = {"holds": verdict.holds}
    if verdict.holds:
        doc["l1"] = verdict.l1
        doc["l2"] = verdict.l2
        lines = [f"holds with l1 = {verdict.l1}, l2 = {verdict.l2}"]
    else:
        lines = ["does not hold"]
    _emit(args, doc, lines)


def _cmd_check(args):
    s = serialize.spectrum_from_json(serialize.load_json_file(args.spectrum))
    doc = {"spectrum": "ok", "n": s.n, "q": s.q}
    lines = [f"spectrum ok: n = {s.n}, q = {s.q}"]
    if args.field:
        f = serialize.field_from_json(serialize.load_json_file(args.field))
        try:
            ok = divergence_integral_check(s, f)
        except NotPDNF:
            ok = None
        doc["pdnf"] = ok is not None
        lines.append(f"normal form: {ok is not None}")
        if ok is not None:
            doc["divergence_integral"] = ok
            lines.append(f"divergence is a first integral of the linear flow: {ok}")
    _emit(args, doc, lines)


_DISPATCH = {
    "resonances": _cmd_resonances,
    "pdnf-basis": _cmd_pdnf_basis,
    "centralizer": _cmd_centralizer,
    "normalizer": _cmd_normalizer,
    "invariants": _cmd_invariants,
    "reduce": _cmd_reduce,
    "jacobi": _cmd_jacobi,
    "classify3": _cmd_classify3,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _DISPATCH[args.command](args)
    except NFKitError as exc:
        doc = {"error": exc.code, "message": str(exc)}
        if isinstance(exc, SearchCapReached):
            doc["partial"] = [list(g) for g in exc.partial]
        sys.stderr.write(serialize.dumps(doc))
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
