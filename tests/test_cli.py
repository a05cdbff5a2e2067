"""Command-line surface: golden outputs, determinism, exit codes."""

import json

import pytest

from nfkit.cli import main

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
        "bad": write("bad.json", {"n": 2, "q": 2, "lambda": [["1", "0"], ["2", "0"]], "nilpotent": []}),
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


def test_text_format(files, capsys):
    code, out = run(
        capsys,
        ["centralizer", "--spectrum", files["eg3"], "--field", files["eg3_field"], "--format", "text"],
    )
    assert code == 0
    assert "dimension: 3" in out
