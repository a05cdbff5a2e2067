"""JSON schemas for all inputs and reports.

Component indices are 1-based on the wire and 0-based internally; rationals
travel as strings "p/q" (or "p" when the denominator is one); reports are
dumped with sorted keys and fixed separators so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .centralizer import CentralizerResult, NormalizerResult
from .errors import InputError
from .fields import INF, PolySeries, PolyVectorField
from .invariants import InvariantAlgebra, ReducedField
from .jacobi import MultiplierLadder, SOLVED
from .resonance import ResonanceSet
from .spectrum import EigenSpectrum, build_spectrum


def frac_to_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# an optional sign and ASCII digits; a rational may add "/" and ASCII digits
INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(INTEGER.pattern + r"(?:/[0-9]+)?")


def parse_frac(text) -> Fraction:
    """A JSON integer (not a bool) or a string "p" or "p/q"; anything else is refused.

    Exponents, decimal points, blanks and digit separators are refused, so
    a short input can never stand for a huge number.
    """
    if type(text) is int:
        return Fraction(text)
    if not (type(text) is str and _RATIONAL.fullmatch(text)):
        raise InputError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


def _json_int(value) -> int:
    """A JSON integer as an int; floats, booleans and strings are refused."""
    if type(value) is not int:
        raise InputError(f"expected a JSON integer, got {value!r}")
    return value


def spectrum_to_json(s: EigenSpectrum) -> dict:
    return {
        "n": s.n,
        "q": s.q,
        "lambda": [[frac_to_str(x) for x in row] for row in s.lam],
        "nilpotent": [[i + 1, j + 1, frac_to_str(c)] for i, j, c in s.nilpotent],
    }


def spectrum_from_json(doc) -> EigenSpectrum:
    try:
        n = _json_int(doc["n"])
        q = _json_int(doc["q"])
        rows = [[parse_frac(x) for x in row] for row in doc["lambda"]]
        nil = [
            (_json_int(i), _json_int(j), parse_frac(c))
            for i, j, c in doc.get("nilpotent", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad spectrum document: {exc}") from exc
    return build_spectrum(n, q, rows, nil, index_base=1)


def _terms_to_json(p, wire_key) -> dict:
    """n, budget and sorted terms of a series or field; ``wire_key`` writes one key."""
    return {
        "n": p.n,
        "trunc": "inf" if p.trunc == INF else int(p.trunc),
        "terms": [dict(wire_key(key), c=frac_to_str(c)) for key, c in p.sorted_terms()],
    }


def _terms_from_json(cls, doc, key_of, what):
    """Inverse of `_terms_to_json`; ``key_of(item, m)`` reads one key."""
    try:
        n = _json_int(doc["n"])
        trunc = doc.get("trunc", "inf")
        trunc = INF if trunc == "inf" else _json_int(trunc)
        terms = {}
        for item in doc.get("terms", []):
            m = tuple(_json_int(x) for x in item["m"])
            c = parse_frac(item["c"])
            if sum(m) > trunc:
                raise InputError(f"term {item} lies beyond the declared truncation")
            key = key_of(item, m)
            terms[key] = terms.get(key, Fraction(0)) + c
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} document: {exc}") from exc
    return cls(n, terms, trunc)


def field_to_json(f: PolyVectorField) -> dict:
    return _terms_to_json(f, lambda key: {"j": key[0] + 1, "m": list(key[1])})


def field_from_json(doc) -> PolyVectorField:
    return _terms_from_json(
        PolyVectorField, doc, lambda item, m: (_json_int(item["j"]) - 1, m), "field"
    )


def series_to_json(p: PolySeries) -> dict:
    return _terms_to_json(p, lambda m: {"m": list(m)})


def series_from_json(doc) -> PolySeries:
    return _terms_from_json(PolySeries, doc, lambda item, m: m, "series")


def resonance_set_to_json(rs: ResonanceSet) -> dict:
    return {
        "finite": rs.finite,
        "degree_bound": rs.degree_bound,
        "r": rs.total,
        "R": {
            str(j + 1): [list(m) for m in rj]
            for j, rj in enumerate(rs.by_component)
            if rj
        },
    }


def centralizer_to_json(res: CentralizerResult) -> dict:
    doc = {
        "dimension": res.dimension,
        "exact": res.exact,
        "basis": [field_to_json(b) for b in res.basis],
        "bounds": {"d": res.d, "r": res.r},
    }
    if res.block_bounds is not None:
        doc["block_bounds"] = list(res.block_bounds)
    if not res.exact:
        doc["truncation"] = res.truncation
        doc["graded"] = [[deg, cnt] for deg, cnt in (res.graded or ())]
        doc["note"] = res.note
    return doc


def normalizer_to_json(res: NormalizerResult) -> dict:
    return {
        "dimension": res.dimension,
        "truncation": res.truncation,
        "basis": [
            {"g": field_to_json(g), "lambda": series_to_json(lam)}
            for g, lam in res.basis
        ],
    }


def invariants_to_json(inv: InvariantAlgebra) -> dict:
    return {
        "generators": [list(g) for g in inv.generators],
        "independent": inv.independent,
    }


def reduced_to_json(red: ReducedField) -> dict:
    doc = field_to_json(red.field)
    doc["nu"] = [[frac_to_str(x) for x in row] for row in red.nu]
    return doc


def ladder_to_json(ladder: MultiplierLadder) -> dict:
    entries = []
    for e in ladder.entries:
        item = {"r": e.r, "status": e.status}
        if e.status == SOLVED:
            item["multiplier"] = series_to_json(e.multiplier)
            item["solution_dimension"] = e.solution_dimension
            item["lowest_order_dimension"] = e.lowest_order_dimension
        else:
            item["failed_degree"] = e.failed_degree
        entries.append(item)
    doc = {"D": ladder.D, "entries": entries, "support_note": ladder.support_note}
    if ladder.ladder_note:
        doc["ladder_note"] = ladder.ladder_note
    return doc


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # bad JSON, bad UTF-8, an integer past the digit limit, nesting past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
