"""JSON schemas for all inputs and reports.

Component indices are 1-based on the wire and 0-based internally; rationals
travel as strings "p/q" (or "p" when the denominator is one); reports are
dumped with sorted keys and fixed separators so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
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


def parse_frac(text) -> Fraction:
    try:
        return Fraction(str(text))
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
            (_json_int(i) - 1, _json_int(j) - 1, parse_frac(c))
            for i, j, c in doc.get("nilpotent", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad spectrum document: {exc}") from exc
    return build_spectrum(n, q, rows, nil)


def _trunc_to_json(trunc):
    return "inf" if trunc == INF else int(trunc)


def _trunc_from_json(value):
    if value == "inf":
        return INF
    return _json_int(value)


def field_to_json(f: PolyVectorField) -> dict:
    return {
        "n": f.n,
        "trunc": _trunc_to_json(f.trunc),
        "terms": [
            {"j": j + 1, "m": list(m), "c": frac_to_str(c)}
            for (j, m), c in f.sorted_terms()
        ],
    }


def field_from_json(doc) -> PolyVectorField:
    try:
        n = _json_int(doc["n"])
        trunc = _trunc_from_json(doc.get("trunc", "inf"))
        terms = {}
        for item in doc.get("terms", []):
            j = _json_int(item["j"]) - 1
            m = tuple(_json_int(x) for x in item["m"])
            c = parse_frac(item["c"])
            if sum(m) > trunc:
                raise InputError(f"term {item} lies beyond the declared truncation")
            key = (j, m)
            terms[key] = terms.get(key, Fraction(0)) + c
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad field document: {exc}") from exc
    return PolyVectorField(n, terms, trunc)


def series_to_json(p: PolySeries) -> dict:
    return {
        "n": p.n,
        "trunc": _trunc_to_json(p.trunc),
        "terms": [{"m": list(m), "c": frac_to_str(c)} for m, c in p.sorted_terms()],
    }


def series_from_json(doc) -> PolySeries:
    try:
        n = _json_int(doc["n"])
        trunc = _trunc_from_json(doc.get("trunc", "inf"))
        terms = {}
        for item in doc.get("terms", []):
            m = tuple(_json_int(x) for x in item["m"])
            c = parse_frac(item["c"])
            if sum(m) > trunc:
                raise InputError(f"term {item} lies beyond the declared truncation")
            terms[m] = terms.get(m, Fraction(0)) + c
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad series document: {exc}") from exc
    return PolySeries(n, terms, trunc)


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
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
