"""JSON round trips and determinism of the wire formats."""

from fractions import Fraction as F

import pytest

from nfkit.errors import InputError
from nfkit.fields import INF, PolySeries, PolyVectorField
from nfkit.serialize import (
    dumps,
    field_from_json,
    field_to_json,
    frac_to_str,
    parse_frac,
    series_from_json,
    series_to_json,
    spectrum_from_json,
    spectrum_to_json,
)
from nfkit.spectrum import build_spectrum


def test_frac_strings():
    assert frac_to_str(F(3, 4)) == "3/4"
    assert frac_to_str(F(-5)) == "-5"
    assert parse_frac("7/2") == F(7, 2)
    assert parse_frac("-3") == -3
    with pytest.raises(InputError):
        parse_frac("x")
    with pytest.raises(InputError):
        parse_frac("1/0")
    assert parse_frac(5) == 5 and parse_frac("+4/6") == F(2, 3) and parse_frac("007") == 7
    for text in ("1e3", "0.5", 0.5, " 1", "1 ", "1_0", True, False, None, "1/-2", "-", "", "1\n"):
        with pytest.raises(InputError):
            parse_frac(text)


def test_spectrum_round_trip():
    s = build_spectrum(3, 1, [[3], [3], [F(-6, 5)]], [(0, 1, F(1, 2))])
    doc = spectrum_to_json(s)
    assert doc["nilpotent"] == [[1, 2, "1/2"]]
    assert spectrum_from_json(doc) == s


def test_field_round_trip():
    f = PolyVectorField(2, {(0, (1, 0)): F(1, 3), (1, (2, 1)): -2}, trunc=5)
    doc = field_to_json(f)
    assert doc["trunc"] == 5
    assert field_from_json(doc) == f
    g = PolyVectorField(2, {(0, (3, 0)): 1})
    assert field_from_json(field_to_json(g)).trunc == INF


def test_series_round_trip():
    p = PolySeries(3, {(1, 1, 0): F(2, 7), (0, 0, 2): 1}, trunc=4)
    assert series_from_json(series_to_json(p)) == p


def test_term_beyond_truncation_rejected():
    with pytest.raises(InputError):
        field_from_json({"n": 2, "trunc": 1, "terms": [{"j": 1, "m": [2, 0], "c": "1"}]})


@pytest.mark.parametrize(
    "load, doc",
    [
        (field_from_json, {"n": 2, "trunc": "inf", "terms": [{"j": 1, "m": [2.7, 0], "c": "1"}]}),
        (field_from_json, {"n": 2, "trunc": "inf", "terms": [{"j": 1, "m": [True, 1], "c": "1"}]}),
        (series_from_json, {"n": 2, "trunc": 3.9, "terms": [{"m": [1, 1], "c": "1"}]}),
        (spectrum_from_json, {"n": 2, "q": True, "lambda": [["1"], ["2"]], "nilpotent": []}),
    ],
)
def test_integers_are_parsed_strictly(load, doc):
    with pytest.raises(InputError):
        load(doc)


def test_dumps_deterministic():
    doc = {"b": 1, "a": [2, 3]}
    assert dumps(doc) == dumps({"a": [2, 3], "b": 1})
    assert dumps(doc).endswith("\n")
