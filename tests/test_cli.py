"""Command-line surface: golden outputs, determinism, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nfkit
from nfkit import centralizer, fields, jacobi, linalg, resonance, spectrum
from nfkit.cli import _PARSER, main
from nfkit.linalg import SolutionSpace
from nfkit.serialize import spectrum_from_json

EG3_SPECTRUM = {
    "n": 3,
    "q": 1,
    "lambda": [["12"], ["6"], ["3"]],
    "nilpotent": [],
}

EG3_FIELD = {
    "n": 3,
    "trunc": "inf",
    "terms": [
        {"j": 1, "m": [1, 0, 0], "c": "12"},
        {"j": 2, "m": [0, 1, 0], "c": "6"},
        {"j": 3, "m": [0, 0, 1], "c": "3"},
        {"j": 1, "m": [0, 2, 0], "c": "1"},
        {"j": 1, "m": [0, 1, 2], "c": "1"},
        {"j": 1, "m": [0, 0, 4], "c": "1"},
        {"j": 2, "m": [0, 0, 2], "c": "1"},
    ],
}

IFAC_SPECTRUM = {
    "n": 3,
    "q": 1,
    "lambda": [["1"], ["-1"], ["0"]],
    "nilpotent": [],
}

IFAC_FIELD = {
    "n": 3,
    "trunc": "inf",
    "terms": [
        {"j": 1, "m": [1, 0, 0], "c": "1"},
        {"j": 2, "m": [0, 1, 0], "c": "-1"},
        {"j": 1, "m": [1, 0, 1], "c": "1/2"},
        {"j": 2, "m": [0, 1, 1], "c": "1/3"},
        {"j": 3, "m": [0, 0, 2], "c": "1"},
        {"j": 3, "m": [1, 1, 0], "c": "1/5"},
    ],
}


# diag(1, -1) with the resonant cubic terms x1^2 x2 e_1 and 2 x1 x2^2 e_2
SADDLE_FIELD = {
    "n": 2,
    "trunc": "inf",
    "terms": [
        {"j": 1, "m": [1, 0], "c": "1"},
        {"j": 2, "m": [0, 1], "c": "-1"},
        {"j": 1, "m": [2, 1], "c": "1"},
        {"j": 2, "m": [1, 2], "c": "2"},
    ],
}


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return {
        "eg3": write("eg3.json", EG3_SPECTRUM),
        "eg3_field": write("eg3_all_ones.json", EG3_FIELD),
        "ifac": write("ifac.json", IFAC_SPECTRUM),
        "ifac_field": write("ifac_quadratic.json", IFAC_FIELD),
        "saddle": write("saddle.json", {"n": 2, "q": 1, "lambda": [["1"], ["-1"]], "nilpotent": []}),
        "saddle_field": write("saddle_field.json", SADDLE_FIELD),
        "bad": write("bad.json", {"n": 2, "q": 2, "lambda": [["1", "0"], ["2", "0"]], "nilpotent": []}),
        "empty": write("empty.json", {"n": 0, "q": 0, "lambda": [], "nilpotent": []}),
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_centralizer_golden(files, capsys):
    code, out = run(capsys, ["centralizer", "--spectrum", files["eg3"], "--field", files["eg3_field"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3
    assert doc["exact"] is True
    assert doc["bounds"] == {"d": 3, "r": 4}


def test_classify3_golden(capsys):
    code, out = run(capsys, ["classify3", "3", "2", "6"])
    assert code == 0
    assert json.loads(out) == {"holds": True, "l1": 2, "l2": 3}


def test_jacobi_golden(files, capsys):
    code, out = run(
        capsys,
        [
            "jacobi",
            "--spectrum", files["ifac"],
            "--field", files["ifac_field"],
            "--r-min", "2", "--r-max", "6", "--truncate", "6",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    by_r = {e["r"]: e for e in doc["entries"]}
    assert by_r[4]["status"] == "solved"
    coeffs = {tuple(t["m"]): t["c"] for t in by_r[4]["multiplier"]["terms"]}
    assert coeffs[(1, 1, 2)] == "1"
    assert coeffs[(2, 2, 0)] == "12/35"
    assert by_r[3]["status"] == "inconsistent"


def test_resonances_golden(files, capsys):
    code, out = run(capsys, ["resonances", "--spectrum", files["eg3"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["finite"] is True and doc["degree_bound"] == 4 and doc["r"] == 4
    assert doc["R"]["1"] == [[0, 2, 0], [0, 1, 2], [0, 0, 4]]


def test_invariants_command(files, capsys):
    code, out = run(capsys, ["invariants", "--spectrum", files["saddle"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == [[1, 1]]
    assert doc["independent"] is True
    assert doc["onediv"] is False


def test_pdnf_basis_command(files, capsys):
    code, out = run(capsys, ["pdnf-basis", "--spectrum", files["eg3"]])
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_pdnf_basis_without_resonances(tmp_path, capsys):
    path = tmp_path / "diag64.json"
    path.write_text(json.dumps({"n": 2, "q": 1, "lambda": [["6"], ["4"]], "nilpotent": []}))
    code, out = run(capsys, ["pdnf-basis", "--spectrum", str(path)])
    assert code == 0
    assert json.loads(out) == {"basis": [], "count": 0}
    # only a bound the caller passed must be at least 2
    assert main(["pdnf-basis", "--spectrum", str(path), "--max-degree", "1"]) == 2


def test_check_command(files, capsys):
    code, out = run(capsys, ["check", "--spectrum", files["eg3"], "--field", files["eg3_field"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["pdnf"] is True and doc["divergence_integral"] is True


def test_check_refuses_a_constant_term(files, tmp_path, capsys):
    # 5 e_1 moves the stationary point off the origin
    field = dict(SADDLE_FIELD, terms=SADDLE_FIELD["terms"] + [{"j": 1, "m": [0, 0], "c": "5"}])
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(field))
    code, out = run(capsys, ["check", "--spectrum", files["saddle"], "--field", str(path)])
    assert code == 0
    assert json.loads(out) == {"n": 2, "pdnf": False, "q": 1, "spectrum": "ok"}
    code = main(["centralizer", "--spectrum", files["saddle"], "--field", str(path), "--truncate", "3"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "not-pdnf"


def test_byte_determinism(files, capsys):
    argv = ["centralizer", "--spectrum", files["eg3"], "--field", files["eg3_field"]]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2
    # report re-parses under the schema
    json.loads(out1)


def test_exit_code_validation_error(files, capsys):
    code = main(["resonances", "--spectrum", files["bad"]])
    err = capsys.readouterr().err
    assert code == 2
    assert "rank" in err


def test_exit_code_scope_error(files, capsys):
    code = main(["resonances", "--spectrum", files["saddle"]])
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err)["error"] == "infinite-resonance-without-cap"


@pytest.mark.parametrize(
    "values, limit, partial",
    [
        (["1", "-1"], "1", []),
        (["0", "1", "-1"], "2", [[1, 0, 0]]),
        # degree 1 creates four candidates of 4 units each; degree 2 passes 16
        (["1", "-1", "2", "-2"], "16", [[0, 0, 1, 1], [1, 1, 0, 0]]),
    ],
)
def test_search_cap_reports_partial_generators(tmp_path, capsys, monkeypatch, values, limit, partial):
    monkeypatch.setattr(spectrum, "COMPLETION_WORK_LIMIT", int(limit))
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"n": len(values), "q": 1, "lambda": [[v] for v in values]}))
    code = main(["invariants", "--spectrum", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "search-cap-reached"
    assert err["partial"] == partial
    degree = max((sum(g) for g in partial), default=1)
    assert f" passed the limit {limit} at degree {degree} with " in err["message"]


def test_resonance_scan_too_large_is_refused_up_front(tmp_path, capsys):
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"n": 8, "q": 1, "lambda": [["1"], ["-1"]] * 4}))
    code = main(["resonances", "--spectrum", str(path), "--max-degree", "30"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    # sum over d = 2..30 of C(d + 7, 7) = C(38, 8) - 1 - 8 per eigenvalue block
    assert json.loads(captured.err) == {
        "error": "scope-error",
        "message": "resonance scan up to degree 30 tests 48903483 monomials for each of"
                   " 2 eigenvalue blocks, 97806966 in all, above the limit 200000",
    }


@pytest.mark.parametrize(
    "limit, message",
    [
        # (1, 1, -1) scans 2 eigenvalue blocks, not 3 components, of C(6, 3) - C(4, 3) = 16
        # monomials each: 32 fits, where a count per component (48) would not
        (32, None),
        (31, "resonance scan up to degree 3 tests 16 monomials for each of 2 eigenvalue blocks,"
             " 32 in all, above the limit 31"),
    ],
    ids=["fits", "refused"],
)
def test_resonance_scan_limit_counts_eigenvalue_blocks(tmp_path, capsys, monkeypatch, limit, message):
    monkeypatch.setattr(resonance, "RESONANCE_SCAN_LIMIT", limit)
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"n": 3, "q": 1, "lambda": [["1"], ["1"], ["-1"]]}))
    code = main(["resonances", "--spectrum", str(path), "--max-degree", "3"])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0
        shared = [[0, 2, 1], [1, 1, 1], [2, 0, 1]]
        assert json.loads(captured.out)["R"] == {"1": shared, "2": shared, "3": [[0, 1, 2], [1, 0, 2]]}
        return
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {"error": "scope-error", "message": message}


def _zero_block_files(tmp_path, n):
    """diag(1, 0^(n - 1)) and the field x1 e1 on it."""
    spectrum_path = tmp_path / "spectrum.json"
    spectrum_path.write_text(json.dumps({"n": n, "q": 1, "lambda": [["1"]] + [["0"]] * (n - 1)}))
    field_path = tmp_path / "field.json"
    field_path.write_text(
        json.dumps({"n": n, "trunc": "inf", "terms": [{"j": 1, "m": [1] + [0] * (n - 1), "c": "1"}]})
    )
    return ["--spectrum", str(spectrum_path)], ["--field", str(field_path)]


# diag(1, 0^9): each of the 9 zero components has the C(10, 2) = 45 quadratic monomials
# in the zero variables, component 1 has x1 x_k for the 9 zero k, so 9 * 45 + 9 = 414 pairs
# up to degree 2, and 414 + 9 * 9 + 1 = 496 with degree 1 (truncated centralizer)
@pytest.mark.parametrize(
    "command, limit, pairs",
    [
        (["resonances", "--max-degree", "2"], 414, None),
        (["resonances", "--max-degree", "2"], 413, 414),
        (["pdnf-basis", "--max-degree", "2"], 413, 414),
        (["centralizer", "--truncate", "2"], 495, 496),
    ],
    ids=["resonances-fits", "resonances", "pdnf-basis", "centralizer-truncated"],
)
def test_resonance_listing_limit_counts_pairs_of_every_component(
    tmp_path, capsys, monkeypatch, command, limit, pairs
):
    # the scan of 2 blocks of C(12, 2) - C(11, 1) = 55 quadratic monomials fits every limit
    monkeypatch.setattr(resonance, "RESONANCE_SCAN_LIMIT", limit)
    spectrum_args, field_args = _zero_block_files(tmp_path, 10)
    argv = command + spectrum_args + (field_args if command[0] == "centralizer" else [])
    code = main(argv)
    captured = capsys.readouterr()
    if pairs is None:
        assert code == 0
        assert json.loads(captured.out)["r"] == 414
        return
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "scope-error",
        "message": f"resonance listing up to degree 2 has {pairs} resonant pairs (j, m)"
                   f" over 10 components, above the limit {limit}",
    }


def test_large_zero_block_is_refused_before_its_report_is_built(tmp_path, capsys):
    # diag(1, 0^74) scans 2 * 2850 monomials, within the limit, but its components
    # share 74 * C(75, 2) + 74 = 205424 resonances
    spectrum_args, _ = _zero_block_files(tmp_path, 75)
    code = main(["resonances", "--max-degree", "2"] + spectrum_args)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "scope-error",
        "message": "resonance listing up to degree 2 has 205424 resonant pairs (j, m)"
                   " over 75 components, above the limit 200000",
    }


@pytest.mark.parametrize(
    "nilpotent, code",
    [
        # both entries are zero, but (7, 9) is out of range and (2, 1) below the diagonal
        ([[7, 9, "0"], [2, 1, "0"]], 2),
        # a zero entry on equal eigenvalues is valid and dropped
        ([[1, 2, "0"]], 0),
    ],
    ids=["invalid", "valid"],
)
def test_zero_nilpotent_entries_are_validated_before_they_are_dropped(
    tmp_path, capsys, nilpotent, code
):
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"n": 2, "q": 1, "lambda": [["1"], ["1"]], "nilpotent": nilpotent}))
    assert main(["check", "--spectrum", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "nilpotent-violates-commutation"
        assert err["message"] == "nilpotent entry (7, 9) is not strictly upper triangular"
        return
    assert json.loads(captured.out) == {"n": 2, "q": 1, "spectrum": "ok"}
    assert spectrum_from_json(json.loads(path.read_text())).nilpotent == ()


BAD_RATIONALS = ["1e10000000", "1e1000000000000", "0.5", 0.5, " 1 ", "1_0", True, "1/-2", "١"]


@pytest.mark.parametrize("value", BAD_RATIONALS, ids=repr)
@pytest.mark.parametrize("where", ["lambda", "coefficient"])
def test_only_strict_rationals_are_read(tmp_path, capsys, value, where):
    spectrum = {"n": 2, "q": 1, "lambda": [["1"], ["-1"]]}
    field = {"n": 2, "trunc": "inf", "terms": [{"j": 1, "m": [1, 0], "c": "1"},
                                               {"j": 2, "m": [0, 1], "c": "-1"}]}
    if where == "lambda":
        spectrum["lambda"][0] = [value]
    else:
        field["terms"].append({"j": 1, "m": [2, 1], "c": value})
    spectrum_path, field_path = tmp_path / "spectrum.json", tmp_path / "field.json"
    spectrum_path.write_text(json.dumps(spectrum))
    field_path.write_text(json.dumps(field))
    start = time.perf_counter()
    code = main(["check", "--spectrum", str(spectrum_path), "--field", str(field_path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {"error": "input-error", "message": f"bad rational {value!r}"}
    assert elapsed < 0.5


@pytest.mark.parametrize(
    "content",
    [
        b'{"n": 1' + b"0" * 5000 + b', "q": 1, "lambda": [["1"]]}',
        b'{"n": 1, "q": 1, "lambda": [["\xff"]]}',
        b"[" * 100000,
    ],
    ids=["integer-past-the-digit-limit", "not-utf-8", "nested-past-the-recursion-limit"],
)
def test_unreadable_json_is_an_input_error(tmp_path, capsys, content):
    path = tmp_path / "spectrum.json"
    path.write_bytes(content)
    assert main(["check", "--spectrum", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["message"].startswith(f"cannot read {path}: ")


@pytest.mark.parametrize(
    "a2, code, message",
    [
        # mu = (4, a2, 2) and cofactor 6 + a2 at the axis fixed point: bound 6 / a2 + 1
        ("1/6", 0, "ladder complete with bound 37: orders in (5, 37] remain unexamined"),
        # the smallest bound above the limit: C(49, 4) - 5 compositions
        ("3/22", 3, "degree ladder up to degree 45 tests 211871 compositions,"
                    " above the limit 200000"),
        # C(125, 4) - 5 compositions
        ("1/20", 3, "degree ladder up to degree 121 tests 9691370 compositions,"
                    " above the limit 200000"),
        ("1/40", 3, "degree ladder up to degree 241 tests 146475940 compositions,"
                    " above the limit 200000"),
    ],
)
def test_degree_ladder_too_large_is_refused_up_front(tmp_path, capsys, a2, code, message):
    spectrum_path = tmp_path / "spectrum.json"
    spectrum_path.write_text(json.dumps({"n": 3, "q": 1, "lambda": [["1"], ["-1"], ["0"]]}))
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps({
        "n": 3,
        "trunc": "inf",
        "terms": [
            {"j": 1, "m": [1, 0, 0], "c": "1"},
            {"j": 2, "m": [0, 1, 0], "c": "-1"},
            {"j": 1, "m": [1, 0, 1], "c": "4"},
            {"j": 2, "m": [0, 1, 1], "c": a2},
            {"j": 3, "m": [0, 0, 2], "c": "1"},
            {"j": 3, "m": [1, 1, 0], "c": "1"},
        ],
    }))
    argv = ["jacobi", "--spectrum", str(spectrum_path), "--field", str(field_path),
            "--r-min", "2", "--r-max", "5", "--truncate", "7"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["ladder_note"] == message
        return
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "scope-error", "message": message}


@pytest.mark.parametrize(
    "D, limit, message",
    [
        # C(9, 3) - 1 = 83 support monomials up to degree 6, at a lowered limit of 83
        (6, 83, None),
        (7, 83, "multiplier support scan up to degree 7 tests 119 monomials, above the limit 83"),
        # the smallest refused degree at the real limit: C(108, 3) - 1 monomials
        (105, None, "multiplier support scan up to degree 105 tests 204155 monomials,"
                    " above the limit 200000"),
    ],
)
def test_multiplier_support_scan_too_large_is_refused_up_front(
    files, capsys, monkeypatch, D, limit, message
):
    if limit is not None:
        monkeypatch.setattr(jacobi, "RESONANCE_SCAN_LIMIT", limit)
    scanned = []
    support = jacobi.multiplier_support

    def counted(s, d):
        scanned.append(d)
        return support(s, d)

    monkeypatch.setattr(jacobi, "multiplier_support", counted)
    argv = ["jacobi", "--spectrum", files["ifac"], "--field", files["ifac_field"],
            "--r-min", "2", "--r-max", "5", "--truncate", str(D)]
    code = main(argv)
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and scanned == list(range(1, D + 1))
        assert json.loads(captured.out)["D"] == D
        return
    assert code == 3 and scanned == [] and captured.out == ""
    assert json.loads(captured.err) == {"error": "scope-error", "message": message}


@pytest.mark.parametrize(
    "D, limit, message",
    [
        # the r = 2 sweep up to degree 6 has 14 unknowns x^a y^a z^b, at a lowered limit of 14
        (6, 14, None),
        (7, 14, "multiplier sweep from order 2 up to degree 7 has 18 unknowns, above the limit 14"),
        # the smallest refused degree at the real limit, and a degree far past it
        (33, None, "multiplier sweep from order 2 up to degree 33 has 304 unknowns,"
                   " above the limit 300"),
        (60, None, "multiplier sweep from order 2 up to degree 60 has 959 unknowns,"
                   " above the limit 300"),
    ],
)
def test_multiplier_sweep_too_large_is_refused_before_listing(
    files, capsys, monkeypatch, D, limit, message
):
    if limit is not None:
        monkeypatch.setattr(jacobi, "MULTIPLIER_UNKNOWN_LIMIT", limit)
    scanned = []
    support = jacobi.multiplier_support

    def counted(s, d):
        scanned.append(d)
        return support(s, d)

    monkeypatch.setattr(jacobi, "multiplier_support", counted)
    argv = ["jacobi", "--spectrum", files["ifac"], "--field", files["ifac_field"],
            "--r-min", "2", "--r-max", "5", "--truncate", str(D)]
    code = main(argv)
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and scanned == list(range(1, D + 1))
        assert json.loads(captured.out)["D"] == D
        return
    assert code == 3 and scanned == [] and captured.out == ""
    assert json.loads(captured.err) == {"error": "scope-error", "message": message}


@pytest.mark.parametrize("D, code", [(6, 0), (7, 3)])
def test_normalizer_too_large_is_refused_up_front(tmp_path, capsys, monkeypatch, D, code):
    spectrum_path = tmp_path / "spectrum.json"
    spectrum_path.write_text(json.dumps({"n": 3, "q": 1, "lambda": [["1"], ["1"], ["-1"]]}))
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps({
        "n": 3,
        "trunc": "inf",
        "terms": [
            {"j": 1, "m": [1, 0, 0], "c": "1"},
            {"j": 2, "m": [0, 1, 0], "c": "1"},
            {"j": 3, "m": [0, 0, 1], "c": "-1"},
        ],
    }))
    # D = 6 (305 unknowns) is accepted; its elimination (3-9 s) is skipped, and with it
    # both certificates, which the empty stand-in kernel could not pass
    solved = []
    certified = []

    def no_kernel(M):
        solved.append(M.cols)
        return SolutionSpace(basis=(), supports=())

    def no_certificate(known, index, kernel, what):
        certified.append((len(known), len(index), kernel.dimension))

    monkeypatch.setattr(centralizer, "mat_kernel", no_kernel)
    monkeypatch.setattr(centralizer, "_check_known_solutions", no_certificate)
    monkeypatch.setattr(centralizer, "_check_class_dimensions", lambda *args: None)
    argv = ["normalizer", "--spectrum", str(spectrum_path), "--field", str(field_path)]
    assert main(argv + ["--truncate", str(D)]) == code
    captured = capsys.readouterr()
    if code == 0:
        # (f, 0), (C_1 x, 0) and (beta f, -X_f beta) for the C(8, 3) - 1 monomials
        # 1 <= |beta| <= 5, against all 305 unknowns
        assert solved == [305] and certified == [(57, 305, 0)]
        return
    assert solved == [] and certified == [] and captured.out == ""
    # 3 (C(10, 3) - 1) vector and C(9, 3) scalar monomials
    assert json.loads(captured.err) == {
        "error": "scope-error",
        "message": "normalizer truncated at degree 7 has 441 unknowns, above the limit 320",
    }


def test_exact_centralizer_of_infinite_spectrum_needs_truncate(files, tmp_path, capsys):
    field = tmp_path / "saddle_field.json"
    field.write_text(json.dumps({
        "n": 2,
        "trunc": "inf",
        "terms": [{"j": 1, "m": [1, 0], "c": "1"}, {"j": 2, "m": [0, 1], "c": "-1"}],
    }))
    code = main(["centralizer", "--spectrum", files["saddle"], "--field", str(field)])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err == {"error": "input-error", "message": "infinite resonance set: pass --truncate"}


@pytest.mark.parametrize(
    "command", ["centralizer", "resonances", "pdnf-basis", "invariants", "reduce"]
)
def test_completion_runs_once_per_request(files, capsys, monkeypatch, command):
    calls = []
    completion = spectrum.minimal_nonneg_solutions

    def counted(*args, **kwargs):
        calls.append(args)
        return completion(*args, **kwargs)

    monkeypatch.setattr(spectrum, "minimal_nonneg_solutions", counted)
    # the saddle has a monomial first integral, so reduction has a generator to use
    name = "saddle" if command in ("invariants", "reduce") else "eg3"
    argv = [command, "--spectrum", files[name]]
    if command in ("centralizer", "reduce"):
        argv += ["--field", files[f"{name}_field"]]
    code, out = run(capsys, argv)
    assert code == 0
    if command == "centralizer":
        assert json.loads(out)["exact"] is True
    if command == "invariants":
        assert json.loads(out)["generators"] == [[1, 1]]
    if command == "reduce":
        assert json.loads(out)["n"] == 1
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["centralizer", "resonances", "pdnf-basis"])
def test_degree_bound_needs_no_simplex(files, capsys, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("the simplex is not on the request path")

    monkeypatch.setattr(linalg, "lp_max", refuse)
    argv = [command, "--spectrum", files["eg3"]]
    if command == "centralizer":
        argv += ["--field", files["eg3_field"]]
    code, out = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    if command == "centralizer":
        assert doc["exact"] is True and doc["dimension"] == 3
    elif command == "resonances":
        assert doc["degree_bound"] == 4


@pytest.mark.parametrize("n, code", [(126, 0), (127, 3)])
def test_degree_bound_too_large_is_refused_up_front(tmp_path, capsys, n, code):
    # distinct rows (100 + i, i) with positive first coordinates below 200:
    # finite, and no resonance of degree 2, so the bound is 1 and the scan empty
    path = tmp_path / "spectrum.json"
    lam = [[str(100 + i), str(i)] for i in range(n)]
    path.write_text(json.dumps({"n": n, "q": 2, "lambda": lam}))
    assert main(["resonances", "--spectrum", str(path)]) == code
    captured = capsys.readouterr()
    if code == 0:
        # C(126, 2) = 7875 column sets for 126 blocks: 992250 systems
        doc = json.loads(captured.out)
        assert doc == {"finite": True, "degree_bound": 1, "r": 0, "R": {}}
        return
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "scope-error",
        "message": "degree bound solves C(127, 2) = 8001 column sets for 127 eigenvalue blocks,"
                   " 1016127 systems, above the limit 1000000",
    }



@pytest.mark.parametrize(
    "n, truncate, message",
    [
        (31, None, None),
        (31, "1", None),
        # one block of 32 and no resonances: 32^2 unknowns
        (32, None, "exact centralizer has 1024 unknowns, a kernel of up to 1048576 entries,"
                   " above the limit 1000000"),
        # every x_k e_j is a degree-1 resonance: 32^2 unknowns
        (32, "1", "truncated centralizer has 1024 unknowns, a kernel of up to 1048576 entries,"
                  " above the limit 1000000"),
    ],
    ids=["31-exact", "31-truncated", "32-exact", "32-truncated"],
)
def test_centralizer_of_a_huge_eigenvalue_block_is_refused_up_front(
    tmp_path, capsys, n, truncate, message
):
    spectrum_path = tmp_path / "spectrum.json"
    spectrum_path.write_text(json.dumps({"n": n, "q": 1, "lambda": [["1"]] * n}))
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps({"n": n, "trunc": "inf", "terms": []}))
    argv = ["centralizer", "--spectrum", str(spectrum_path), "--field", str(field_path)]
    if truncate is not None:
        argv += ["--truncate", truncate]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    if message is None:
        doc = json.loads(captured.out)
        assert code == 0 and doc["dimension"] == n * n and doc["exact"] is (truncate is None)
        return
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {"error": "scope-error", "message": message}
    assert elapsed < 0.5


@pytest.mark.parametrize(
    "block, lead, m, unknowns",
    [
        # blocks 1 and 17 (d <= 1 + 289), r = C(19, 3) = 969 resonances x^m e_1, |m| = 3
        (17, 3, [0, 2, 1], 1259),
        # blocks 1 and 30 (d <= 1 + 900), r = C(31, 2) = 465 resonances x^m e_1, |m| = 2
        (30, 2, [0, 1, 1], 1366),
    ],
    ids=["3-1x17", "2-1x30"],
)
def test_exact_centralizer_of_many_resonances_is_refused_up_front(
    tmp_path, capsys, monkeypatch, block, lead, m, unknowns
):
    n = block + 1
    spectrum_path = tmp_path / "spectrum.json"
    spectrum_path.write_text(
        json.dumps({"n": n, "q": 1, "lambda": [[str(lead)]] + [["1"]] * block})
    )
    field_path = tmp_path / "field.json"
    row = m + [0] * (n - len(m))
    field_path.write_text(
        json.dumps({"n": n, "trunc": "inf", "terms": [{"j": 1, "m": row, "c": "1"}]})
    )
    scanned = []
    scan = resonance.resonant_multiindices

    def counted(s, j, d):
        scanned.append((j, d))
        return scan(s, j, d)

    monkeypatch.setattr(resonance, "resonant_multiindices", counted)
    start = time.perf_counter()
    code = main(["centralizer", "--spectrum", str(spectrum_path), "--field", str(field_path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "scope-error",
        "message": f"exact centralizer has {unknowns} unknowns, a kernel of up to"
                   f" {unknowns ** 2} entries, above the limit 1000000",
    }
    # the degree bound is lead; each of the two blocks is scanned once per degree
    assert scanned == [(j, d) for j in (0, 1) for d in range(2, lead + 1)]
    assert elapsed < 5


# every subcommand on the fixtures, after a bad argv and --help
SHARED_PARSER_CALLS = [
    ["centralizer", "--spectrum"],
    ["--help"],
    ["resonances", "--spectrum", "eg3"],
    ["pdnf-basis", "--spectrum", "eg3"],
    ["centralizer", "--spectrum", "eg3", "--field", "eg3_field"],
    ["centralizer", "--spectrum", "saddle", "--field", "saddle_field", "--truncate", "3"],
    ["normalizer", "--spectrum", "saddle", "--field", "saddle_field", "--truncate", "3"],
    ["invariants", "--spectrum", "saddle"],
    ["reduce", "--spectrum", "saddle", "--field", "saddle_field"],
    ["jacobi", "--spectrum", "ifac", "--field", "ifac_field",
     "--r-min", "2", "--r-max", "4", "--truncate", "4"],
    ["classify3", "3", "2", "6", "--format", "text"],
    ["check", "--spectrum", "eg3", "--field", "eg3_field"],
]


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def test_one_parser_serves_every_call_in_a_process(files, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    codes = []
    for argv in SHARED_PARSER_CALLS:
        argv = [files.get(a, a) for a in argv]
        got = _in_process(capsys, argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "nfkit.cli", *argv], capture_output=True, env=env, timeout=120,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(got[0])
    assert codes == [2] + [0] * (len(SHARED_PARSER_CALLS) - 1)


# every integer argument; {} stands for the value under test
INTEGER_ARGUMENTS = [
    ["resonances", "--spectrum", "saddle", "--max-degree", "{}"],
    ["pdnf-basis", "--spectrum", "saddle", "--max-degree", "{}"],
    ["centralizer", "--spectrum", "saddle", "--field", "saddle_field", "--truncate", "{}"],
    ["normalizer", "--spectrum", "saddle", "--field", "saddle_field", "--truncate", "{}"],
    ["jacobi", "--spectrum", "ifac", "--field", "ifac_field",
     "--r-min", "{}", "--r-max", "4", "--truncate", "4"],
    ["jacobi", "--spectrum", "ifac", "--field", "ifac_field",
     "--r-min", "2", "--r-max", "{}", "--truncate", "4"],
    ["jacobi", "--spectrum", "ifac", "--field", "ifac_field",
     "--r-min", "2", "--r-max", "4", "--truncate", "{}"],
    ["classify3", "{}", "2", "6"],
    ["classify3", "3", "{}", "6"],
    ["classify3", "3", "2", "{}"],
]
# int() reads each of these as a number; "\u0663" is the Arabic-Indic digit three
BAD_INTEGERS = ["1_0", " 3", "3 ", "\u0663", "3.0", "1e1", "0x3", "+-3", ""]


@pytest.mark.parametrize("template", INTEGER_ARGUMENTS, ids=lambda t: " ".join(t))
def test_integer_arguments_are_strict(files, capsys, template):
    for value in BAD_INTEGERS:
        argv = [files.get(a, a).replace("{}", value) for a in template]
        code, out, err = _in_process(capsys, argv)
        assert code == 2 and out == b"", argv
        assert f"invalid integer {value!r}".encode() in err, argv
    # a sign and leading zeros are ASCII digits too
    signed = _in_process(capsys, [files.get(a, a).replace("{}", "+03") for a in template])
    plain = _in_process(capsys, [files.get(a, a).replace("{}", "3") for a in template])
    assert signed == plain


def test_main_builds_no_parser(files, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    for argv in SHARED_PARSER_CALLS[2:]:
        code, out, _ = _in_process(capsys, [files.get(a, a) for a in argv])
        assert code == 0 and out, argv


CERTIFICATE_SCRIPT = """
import sys
from nfkit import centralizer
from nfkit.cli import main
from nfkit.errors import CertificateFailure
from nfkit.linalg import SolutionSpace
from nfkit.serialize import field_from_json, load_json_file, spectrum_from_json

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_kernel = centralizer.mat_kernel
real_block_kernels = centralizer._block_kernels


def no_kernel(M):
    return SolutionSpace(basis=(), supports=())


def block_kernels_with_real_kernel(s, blocks):
    # the commutant (d = 3) keeps its kernel, the centralizer system loses its own
    centralizer.mat_kernel = real_kernel
    try:
        yield from real_block_kernels(s, blocks)
    finally:
        centralizer.mat_kernel = no_kernel


centralizer.mat_kernel = no_kernel
centralizer._block_kernels = block_kernels_with_real_kernel
spectrum_path, field_path = sys.argv[1:]
s = spectrum_from_json(load_json_file(spectrum_path))
f = field_from_json(load_json_file(field_path))
try:
    centralizer.centralizer_exact(s, f)
except CertificateFailure as exc:
    print("api", exc.code, exc)
print("cli", main(["centralizer", "--spectrum", spectrum_path, "--field", field_path]))
"""


def test_exit_code_certificate_failure_under_optimize(files):
    # python -O strips assert statements; the dimension certificate must still fire
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CERTIFICATE_SCRIPT, files["eg3"], files["eg3_field"]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("api certificate-failure dimension 0 violates d = 3 <= dim")
    assert lines[1] == "cli 4"
    assert json.loads(proc.stderr)["error"] == "certificate-failure"


DROPPED_VECTOR_SCRIPT = """
import sys
from nfkit import centralizer
from nfkit.cli import main
from nfkit.linalg import SolutionSpace

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_kernel = centralizer.mat_kernel


def without_last_vector(M):
    space = real_kernel(M)
    return SolutionSpace(space.basis[:-1], space.supports[:-1])


centralizer.mat_kernel = without_last_vector
spectrum_path, field_path = sys.argv[1:]
print("cli", main(["centralizer", "--spectrum", spectrum_path, "--field", field_path, "--truncate", "3"]))
"""


def test_truncated_centralizer_certificate_catches_a_dropped_vector_under_optimize(files):
    """The saddle's deviation x1^2 x2 e_1 + 2 x1 x2^2 e_2 needs the last basis vector,
    the unit vector of x1 x2^2 e_2 (a top-degree column, empty in the system)."""
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_VECTOR_SCRIPT, files["saddle"], files["saddle_field"]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cli 4"]
    assert json.loads(proc.stderr) == {
        "error": "certificate-failure",
        "message": "the deviation f~ truncated at D is not in the span of the truncated"
                   " centralizer basis",
    }


MUTATED_SYSTEM_SCRIPT = """
import sys
from nfkit import centralizer
from nfkit.cli import main

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_matrix = centralizer.RatMatrix
spectrum_path, field_path, mutation = sys.argv[1:]


def mutated_matrix(columns):
    # the bracket system is the first the truncated centralizer builds, and the
    # certificate runs before any other
    columns = list(columns)
    if mutation == "drop-last-column":
        columns.pop()
    else:
        columns[0] = {key: -c for key, c in columns[0].items()}
    return real_matrix(columns)


centralizer.RatMatrix = mutated_matrix
print("cli", main(["centralizer", "--spectrum", spectrum_path, "--field", field_path, "--truncate", "3"]))
"""


# the known solution that each mutation of the saddle's system leaves outside the span
MUTATION_CATCHES = {
    # the saddle's deviation has the term 2 x1 x2^2 e_2 at the last unknown
    "drop-last-column": "the deviation f~ truncated at D",
    # C_1 x = x1 e_1 - x2 e_2 solves the system only while [x1 e_1, f~] keeps its sign
    "flip-first-column": "C_1 x",
}


@pytest.mark.parametrize("mutation", MUTATION_CATCHES)
def test_truncated_centralizer_certificate_catches_a_mutated_system_under_optimize(files, mutation):
    """Dropping the last unknown's column, or negating the first bracket column,
    leaves a known solution outside the returned span, also under `python -O`."""
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MUTATED_SYSTEM_SCRIPT,
         files["saddle"], files["saddle_field"], mutation],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cli 4"]
    assert json.loads(proc.stderr) == {
        "error": "certificate-failure",
        "message": f"{MUTATION_CATCHES[mutation]} is not in the span of the truncated centralizer basis",
    }


DROPPED_NORMALIZER_VECTOR_SCRIPT = """
import sys
from nfkit import centralizer
from nfkit.cli import main
from nfkit.linalg import SolutionSpace

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_kernel = centralizer.mat_kernel
spectrum_path, field_path, dropped = sys.argv[1:]


def without_vector(M):
    space = real_kernel(M)
    kept = [k for k, sup in enumerate(space.supports) if sup[-1] != int(dropped)]
    if len(kept) != len(space.supports) - 1:
        sys.exit(f"no kernel vector has the free column {dropped}")
    return SolutionSpace(tuple(space.basis[k] for k in kept), tuple(space.supports[k] for k in kept))


centralizer.mat_kernel = without_vector
print("cli", main(["normalizer", "--spectrum", spectrum_path, "--field", field_path, "--truncate", "3"]))
"""


def test_truncated_normalizer_certificate_catches_a_dropped_vector_under_optimize(files):
    """(f truncated at 3, 0) for the saddle needs the vector of free column 15, the unit
    vector of x1 x2^2 e_2 (unknown 15 of the vector monomials, lex within each degree
    and component), which holds its term 2 x1 x2^2 e_2."""
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_NORMALIZER_VECTOR_SCRIPT,
         files["saddle"], files["saddle_field"], "15"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cli 4"]
    assert json.loads(proc.stderr) == {
        "error": "certificate-failure",
        "message": "(f truncated at D, 0) is not in the span of the truncated normalizer basis",
    }


MUTATED_NORMALIZER_SCRIPT = """
import sys
from nfkit import centralizer
from nfkit.cli import main

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_matrix = centralizer.RatMatrix
spectrum_path, field_path, mutation, column = sys.argv[1:]


def mutated_matrix(columns):
    # the normalizer builds one system, and its certificate runs before any other
    columns = list(columns)
    t = int(column)
    columns[t] = {} if mutation == "drop" else {key: -c for key, c in columns[t].items()}
    return real_matrix(columns)


centralizer.RatMatrix = mutated_matrix
print("cli", main(["normalizer", "--spectrum", spectrum_path, "--field", field_path, "--truncate", "3"]))
"""


# The saddle's normalizer at D = 3 has 18 vector unknowns, x^m e_j by degree, then
# component, then lex m, and 6 scalar unknowns x^k from 18 on: 1, x2, x1, x2^2, x1 x2,
# x1^2.  Each mutation leaves the named known solution outside the returned span.
NORMALIZER_MUTATIONS = {
    # f holds x2 e_2 (unknown 2), so f no longer solves the system
    ("drop", 2): "(f truncated at D, 0)",
    # the first bracket column that a solution uses, [x1 e_1, f] (unknown 1): column 0,
    # [x2 e_1, f], is 0 in every kernel vector, so negating it changes no kernel
    ("negate", 1): "(f truncated at D, 0)",
    # lambda = -X_f x1 = -x1 mod degree 2 for beta = x1, the first beta that reads x1
    ("negate", 20): "(x^(1, 0) f, -X_f x^(1, 0))",
}


@pytest.mark.parametrize("mutation, column", NORMALIZER_MUTATIONS)
def test_truncated_normalizer_certificate_catches_a_mutated_system_under_optimize(
    files, mutation, column
):
    """Dropping the column of an unknown that f uses, negating a bracket column, or
    negating a lambda column leaves a known solution outside the returned span, also
    under `python -O`.  Only the (beta f, -X_f beta) solutions read the lambda columns."""
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MUTATED_NORMALIZER_SCRIPT,
         files["saddle"], files["saddle_field"], mutation, str(column)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cli 4"]
    label = NORMALIZER_MUTATIONS[(mutation, column)]
    assert json.loads(proc.stderr) == {
        "error": "certificate-failure",
        "message": f"{label} is not in the span of the truncated normalizer basis",
    }


def test_truncated_normalizer_class_certificate_catches_an_emptied_column_under_optimize(files):
    """Emptying the column of x2 e_1 (unknown 0, class -1 - 1 = -2) adds its unit vector
    to the kernel.  Every known solution is 0 there, so each stays in the span, and
    only the class count sees the eighth vector, also under `python -O`."""
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MUTATED_NORMALIZER_SCRIPT,
         files["saddle"], files["saddle_field"], "drop", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cli 4"]
    assert json.loads(proc.stderr) == {
        "error": "certificate-failure",
        "message": "the truncated normalizer basis has dimension 2 in class (-2), not 1,"
                   " the number of scalar unknowns of the class",
    }


def test_resonances_with_cap(files, capsys):
    code, out = run(capsys, ["resonances", "--spectrum", files["saddle"], "--max-degree", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["finite"] is False and doc["r"] > 0


def test_normalizer_command(files, capsys):
    spectrum = {"n": 2, "q": 1, "lambda": [["2"], ["3"]], "nilpotent": []}
    field = {
        "n": 2,
        "trunc": "inf",
        "terms": [{"j": 1, "m": [1, 0], "c": "2"}, {"j": 2, "m": [0, 1], "c": "3"}],
    }
    import json as j

    code, out = None, None
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        sp = os.path.join(td, "s.json")
        fp = os.path.join(td, "f.json")
        open(sp, "w").write(j.dumps(spectrum))
        open(fp, "w").write(j.dumps(field))
        code, out = run(capsys, ["normalizer", "--spectrum", sp, "--field", fp, "--truncate", "2"])
    assert code == 0
    assert json.loads(out)["dimension"] == 4


def test_reduce_command(capsys, tmp_path):
    spectrum = {"n": 2, "q": 1, "lambda": [["1"], ["-1"]], "nilpotent": []}
    field = {
        "n": 2,
        "trunc": "inf",
        "terms": [
            {"j": 1, "m": [1, 0], "c": "1"},
            {"j": 2, "m": [0, 1], "c": "-1"},
            {"j": 1, "m": [2, 1], "c": "1"},
            {"j": 2, "m": [1, 2], "c": "2"},
        ],
    }
    sp = tmp_path / "s.json"
    fp = tmp_path / "f.json"
    sp.write_text(json.dumps(spectrum))
    fp.write_text(json.dumps(field))
    code, out = run(capsys, ["reduce", "--spectrum", str(sp), "--field", str(fp)])
    assert code == 0
    doc = json.loads(out)
    assert doc["nu"] == [["3"]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["centralizer", "--spectrum", "saddle", "--field", "saddle_field", "--truncate", "0"],
         "truncation degree D = 0 is below 1"),
        (["centralizer", "--spectrum", "eg3", "--field", "eg3_field", "--truncate", "-1"],
         "truncation degree D = -1 is below 1"),
        (["normalizer", "--spectrum", "saddle", "--field", "saddle_field", "--truncate", "0"],
         "truncation degree D = 0 is below 1"),
        (["resonances", "--spectrum", "saddle", "--max-degree", "-3"],
         "max_degree must be at least 2"),
        (["resonances", "--spectrum", "empty"], "a spectrum needs n >= 1, got n = 0"),
        (["check", "--spectrum", "empty"], "a spectrum needs n >= 1, got n = 0"),
    ],
)
def test_out_of_range_budgets_are_input_errors(files, capsys, argv, message):
    argv = [files.get(a, a) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["message"] == message


@pytest.mark.parametrize("command", ["check", "reduce"])
def test_linear_part_is_stripped_once_per_request(files, capsys, monkeypatch, command):
    calls = []
    strip = fields.deviation_part

    def counted(*args, **kwargs):
        calls.append(args)
        return strip(*args, **kwargs)

    # every nfkit module that holds the function, as `from .fields import` copies it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nfkit" and getattr(module, "deviation_part", None) is strip:
            monkeypatch.setattr(module, "deviation_part", counted)
    code, out = run(capsys, [command, "--spectrum", files["saddle"], "--field", files["saddle_field"]])
    assert code == 0
    if command == "check":
        assert json.loads(out)["pdnf"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("trunc", [3, "inf"])
def test_reduce_without_generators(tmp_path, capsys, trunc):
    # diag(2, 3) has no monomial first integrals: the reduced field has no variables
    sp = tmp_path / "diag23.json"
    fp = tmp_path / "diag23_field.json"
    sp.write_text(json.dumps({"n": 2, "q": 1, "lambda": [["2"], ["3"]], "nilpotent": []}))
    fp.write_text(json.dumps({
        "n": 2,
        "trunc": trunc,
        "terms": [{"j": 1, "m": [1, 0], "c": "2"}, {"j": 2, "m": [0, 1], "c": "3"}],
    }))
    code, out = run(capsys, ["reduce", "--spectrum", str(sp), "--field", str(fp)])
    assert code == 0
    assert json.loads(out) == {"n": 0, "nu": [], "terms": [], "trunc": "inf"}


def test_text_format(files, capsys):
    code, out = run(
        capsys,
        ["centralizer", "--spectrum", files["eg3"], "--field", files["eg3_field"], "--format", "text"],
    )
    assert code == 0
    assert "dimension: 3" in out


def test_readme_commands_match_the_parser():
    """Every subcommand and --option in README's Commands block exists, and back."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\nCommands:\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        program, command, *rest = line.split()
        assert program == "nfkit", line
        documented[command] = {w.strip("[]") for w in rest if w.strip("[]").startswith("--")}
    commands = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
        - {"--format", "--help"}
        for name, p in commands.choices.items()
    }
    assert documented == parsed


# the --format text summary of every subcommand on the fixtures
TEXT_CALLS = [
    ["resonances", "--spectrum", "eg3"],
    ["resonances", "--spectrum", "ifac", "--max-degree", "3"],
    ["pdnf-basis", "--spectrum", "eg3"],
    ["pdnf-basis", "--spectrum", "saddle", "--max-degree", "3"],
    ["centralizer", "--spectrum", "eg3", "--field", "eg3_field"],
    ["centralizer", "--spectrum", "saddle", "--field", "saddle_field", "--truncate", "3"],
    ["normalizer", "--spectrum", "saddle", "--field", "saddle_field", "--truncate", "3"],
    ["invariants", "--spectrum", "eg3"],
    ["invariants", "--spectrum", "saddle"],
    ["invariants", "--spectrum", "ifac"],
    ["reduce", "--spectrum", "saddle", "--field", "saddle_field"],
    ["jacobi", "--spectrum", "ifac", "--field", "ifac_field",
     "--r-min", "2", "--r-max", "4", "--truncate", "4"],
    ["classify3", "3", "2", "6"],
    ["classify3", "1", "1", "1"],
    ["check", "--spectrum", "eg3"],
    ["check", "--spectrum", "eg3", "--field", "eg3_field"],
    ["check", "--spectrum", "ifac", "--field", "ifac_field"],
]


def _text_transcript(files, capsys):
    """Each call as ``$ nfkit <argv>`` with fixture names, then its exit code and stdout."""
    out = []
    for argv in TEXT_CALLS:
        code, text = run(capsys, [files.get(a, a) for a in argv] + ["--format", "text"])
        out.append(f"$ nfkit {' '.join(argv)} --format text  # exit {code}\n{text}")
    return "".join(out)


def test_text_format_matches_golden(files, capsys):
    golden = Path(__file__).resolve().parent / "golden" / "cli_text.txt"
    assert _text_transcript(files, capsys) == golden.read_text()
