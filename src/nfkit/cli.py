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

    def add(name, run, help_text, spectrum=True, field=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if spectrum:
            p.add_argument("--spectrum", required=True, help="spectrum JSON file")
        if field:
            p.add_argument("--field", required=True, help="field JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = add("resonances", _cmd_resonances, "enumerate resonant multi-indices")
    p.add_argument("--max-degree", type=_integer, default=None, help="cap for infinite sets")

    p = add("pdnf-basis", _cmd_pdnf_basis, "unit vector monomials spanning the normal-form space")
    p.add_argument("--max-degree", type=_integer, default=None)

    p = add("centralizer", _cmd_centralizer, "commuting vector fields", field=True)
    p.add_argument("--truncate", type=_integer, default=None, help="force the truncated solver")

    p = add("normalizer", _cmd_normalizer, "orbital-symmetry generators", field=True)
    p.add_argument("--truncate", type=_integer, required=True)

    add("invariants", _cmd_invariants, "monomial first integrals and module checks")

    add("reduce", _cmd_reduce, "reduction by invariants", field=True)

    p = add("jacobi", _cmd_jacobi, "inverse Jacobi multiplier ladder", field=True)
    p.add_argument("--r-min", type=_integer, required=True)
    p.add_argument("--r-max", type=_integer, required=True)
    p.add_argument("--truncate", type=_integer, required=True)

    p = add("classify3", _cmd_classify3, "dimension-3 distinguished-setting test", spectrum=False)
    p.add_argument("d", type=_integer, nargs=3)

    p = add("check", _cmd_check, "validate inputs and the normal-form property", field=False)
    p.add_argument("--field", default=None)

    return parser


def _cmd_resonances(args, s):
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
    return doc, lines


def _cmd_pdnf_basis(args, s):
    basis = pdnf_basis(s, args.max_degree)
    doc = {"count": len(basis), "basis": [serialize.field_to_json(b) for b in basis]}
    lines = [f"{len(basis)} resonant vector monomials"]
    for b in basis:
        (j, m), _ = next(iter(b.sorted_terms()))
        lines.append(f"  x^{list(m)} e_{j + 1}")
    return doc, lines


def _cmd_centralizer(args, s, f):
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
    return doc, lines


def _cmd_normalizer(args, s, f):
    res = normalizer_truncated(s, f, args.truncate)
    doc = serialize.normalizer_to_json(res)
    return doc, [f"dimension: {res.dimension} (truncated at {res.truncation})"]


def _cmd_invariants(args, s):
    inv = invariant_generators(s)
    doc = serialize.invariants_to_json(inv)
    try:
        doc["free_module"] = check_free_module(s).free
    except ZeroEigenvalue:
        doc["free_module"] = None
    onediv = check_onediv(s)
    doc["onediv"] = onediv.holds
    lines = [
        f"generators: {[list(g) for g in inv.generators]}",
        f"independent: {inv.independent}",
        f"free module: {doc['free_module']}",
        f"onediv: {onediv.holds}",
    ]
    return doc, lines


def _cmd_reduce(args, s, f):
    inv = invariant_generators(s)
    red = reduce_vectorfield(s, inv, f)
    doc = serialize.reduced_to_json(red)
    return doc, [f"reduced to {red.r} variables", f"nu: {[list(map(str, r)) for r in red.nu]}"]


def _cmd_jacobi(args, s, f):
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
    return doc, lines


def _cmd_classify3(args):
    verdict = classify_dim3(*args.d)
    doc = {"holds": verdict.holds}
    if verdict.holds:
        doc["l1"] = verdict.l1
        doc["l2"] = verdict.l2
        lines = [f"holds with l1 = {verdict.l1}, l2 = {verdict.l2}"]
    else:
        lines = ["does not hold"]
    return doc, lines


def _cmd_check(args, s, f=None):
    doc = {"spectrum": "ok", "n": s.n, "q": s.q}
    lines = [f"spectrum ok: n = {s.n}, q = {s.q}"]
    if f is not None:
        try:
            ok = divergence_integral_check(s, f)
        except NotPDNF:
            ok = None
        doc["pdnf"] = ok is not None
        lines.append(f"normal form: {ok is not None}")
        if ok is not None:
            doc["divergence_integral"] = ok
            lines.append(f"divergence is a first integral of the linear flow: {ok}")
    return doc, lines


# parse_args leaves the parser unchanged, so one tree serves every call
_PARSER = _build_parser()


def main(argv=None) -> int:
    """Parse argv, read the spectrum and then the field file if the subcommand
    takes them, run its handler and print the report it returns."""
    args = _PARSER.parse_args(argv)
    try:
        inputs = []
        if "spectrum" in args:
            inputs.append(serialize.spectrum_from_json(serialize.load_json_file(args.spectrum)))
        if getattr(args, "field", None) is not None:
            inputs.append(serialize.field_from_json(serialize.load_json_file(args.field)))
        doc, lines = args.run(args, *inputs)
        if args.format == "json":
            sys.stdout.write(serialize.dumps(doc))
        else:
            for line in lines:
                print(line)
    except NFKitError as exc:
        doc = {"error": exc.code, "message": str(exc)}
        if isinstance(exc, SearchCapReached):
            doc["partial"] = [list(g) for g in exc.partial]
        sys.stderr.write(serialize.dumps(doc))
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
