"""Command line behaviour: payloads, exit codes, output formats."""

import json

import pytest

from newton_monodromy import cli
from newton_monodromy.errors import InternalConsistencyError
from newton_monodromy.oracles import CheckResult, ValidationReport


def _json_run(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return json.loads(out), code


def test_json_cusp(capsys):
    payload, code = _json_run(capsys, ["x^2 + y^3"])
    assert code == 0
    assert payload["source"] == "x^2 + y^3"
    assert payload["variables"] == ["x", "y"]
    assert payload["n"] == 2
    assert payload["support"] == [[0, 3], [2, 0]]
    assert payload["convenient"] is True
    assert payload["mu"] == 2
    assert payload["eigenvalues"] == [
        {"eigenvalue": "1/6", "multiplicity": 1, "blocks": {"1": 1}},
        {"eigenvalue": "5/6", "multiplicity": 1, "blocks": {"1": 1}},
    ]
    assert payload["fastpath"] == {"unipotent_largest": [0, 0]}
    assert isinstance(payload["timing_ms"], int)
    assert len(payload["faces"]) == 3
    edge = payload["faces"][2]
    assert edge["dim"] == 1
    assert sorted(edge["vertices"]) == [[0, 3], [2, 0]]
    assert edge["distance"] == 6
    assert edge["character"] == {"modulus": 6, "coeffs": [3, 2]}
    assert edge["twist"] == 0
    assert edge["interior_touching"] is True


def test_table_output_default(capsys):
    code = cli.main(["x^2 + y^3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mu: 2" in out
    assert "1/6" in out and "5/6" in out
    assert "timing:" in out


def test_json_and_table_mutually_exclusive(capsys):
    code = cli.main(["x^2 + y^3", "--json", "--table"])
    err = capsys.readouterr().err
    assert code == 2
    assert "mutually exclusive" in err


def test_no_input_gives_exit_2(capsys):
    assert cli.main([]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_both_inputs_give_exit_2(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"variables": ["x"], "support": [[2]]}')
    assert cli.main(["x^2 + y^3", "--support", str(path)]) == 2


def test_not_convenient_names_axis(capsys):
    code = cli.main(["x^2 + x*y"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "no monomial on the y axis" in err


def test_origin_in_support_via_file(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps({"variables": ["x", "y"], "support": [[0, 0], [2, 0], [0, 3]]})
    )
    code = cli.main(["--support", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "origin is in the support" in err


def test_unreadable_support_file_exits_2(capsys, tmp_path):
    """A --support path that is missing, a directory, or not UTF-8 is
    invalid input: exit code 2 and one error line, no traceback."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (tmp_path / "missing.json", tmp_path, binary):
        code = cli.main(["--support", str(path)])
        err = capsys.readouterr().err
        assert code == 2, path
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_support_file_roundtrip(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps({"variables": ["x", "y"], "support": [[5, 0], [2, 2], [0, 5]]})
    )
    payload, code = _json_run(capsys, ["--support", str(path)])
    assert code == 0
    assert payload["source"] == str(path)
    assert payload["mu"] == 11


def test_eigenvalue_filter(capsys):
    payload, code = _json_run(
        capsys, ["x^5 + x^2*y^2 + y^5", "--eigenvalue", "1/2"]
    )
    assert code == 0
    assert payload["eigenvalues"] == [
        {"eigenvalue": "1/2", "multiplicity": 2, "blocks": {"2": 1}}
    ]
    assert payload["fastpath"]["largest_at_1/2"] == [1, 0]
    assert payload["fastpath"]["unipotent_largest"] == [1, 0]
    assert payload["mu"] == 11


def test_eigenvalue_zero_filters_to_unipotent_part(capsys):
    payload, code = _json_run(capsys, ["x^3 + y^3", "--eigenvalue", "0"])
    assert code == 0
    assert payload["eigenvalues"] == [
        {"eigenvalue": "0/1", "multiplicity": 2, "blocks": {"1": 2}}
    ]
    assert "largest_at_0/1" not in payload["fastpath"]


def test_bad_eigenvalue_gives_exit_2(capsys):
    for bad in ("3/2", "abc", "1/0", "-1/6", "1"):
        code = cli.main(["x^2 + y^3", f"--eigenvalue={bad}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")


def test_fast_only_skips_full_engine(capsys):
    payload, code = _json_run(
        capsys, ["x^5 + x^2*y^2 + y^5", "--fast-only", "--eigenvalue", "2/4"]
    )
    assert code == 0
    assert "mu" not in payload
    assert "eigenvalues" not in payload
    assert payload["fastpath"]["largest_at_1/2"] == [1, 0]


def test_variable_guard(capsys, tmp_path):
    rows = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps({"variables": [f"x{i+1}" for i in range(7)], "support": rows})
    )
    code = cli.main(["--support", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "7 variables exceeds the guard of 6" in err
    payload, code = _json_run(capsys, ["--support", str(path), "--unsafe-large", "--fast-only"])
    assert code == 0
    assert payload["n"] == 7


def test_support_size_guard(capsys, tmp_path):
    pts = [[41, 0], [0, 41]] + [[k, 41 - k] for k in range(1, 40)]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"variables": ["x", "y"], "support": pts}))
    code = cli.main(["--support", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "41 support points exceed the guard of 40" in err
    payload, code = _json_run(capsys, ["--support", str(path), "--unsafe-large", "--fast-only"])
    assert code == 0
    assert len(payload["support"]) == 41


def test_validate_flag_green(capsys):
    payload, code = _json_run(capsys, ["x^2 + y^3", "--validate"])
    assert code == 0
    checks = payload["validation"]
    assert len(checks) == 20
    assert all(c["status"] in ("pass", "skip") for c in checks)
    assert {"check", "status", "detail"} == set(checks[0])


def test_validate_failure_exits_3(capsys, monkeypatch):
    report = ValidationReport(checks=[CheckResult("face-data", "fail", "injected")])
    monkeypatch.setattr(cli, "validate", lambda np_: report)
    payload, code = _json_run(capsys, ["x^2 + y^3", "--validate"])
    assert code == 3
    assert payload["validation"] == [
        {"check": "face-data", "status": "fail", "detail": "injected"}
    ]


def test_internal_error_exits_3(capsys, monkeypatch):
    def boom(np_):
        raise InternalConsistencyError("boom")

    monkeypatch.setattr(cli, "jordan_blocks", boom)
    code = cli.main(["x^2 + y^3"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "internal consistency failure: boom\n"


def test_emit_hodge_tables(capsys):
    payload, code = _json_run(capsys, ["x^2 + y^3", "--emit-hodge-tables"])
    assert code == 0
    tables = payload["hodge_tables"]
    assert len(tables) == 3
    assert tables[0]["face"] == payload["faces"][0]
    assert tables[0]["cone_table"] == [
        [0, 0, "0/1", 1],
        [0, 0, "1/3", 1],
        [0, 0, "2/3", 1],
    ]
    assert tables[2]["cone_table"] == [
        [0, 0, "0/1", -2],
        [0, 0, "1/3", -1],
        [0, 0, "1/2", -1],
        [0, 0, "2/3", -1],
        [0, 1, "1/6", -1],
        [1, 0, "5/6", -1],
        [1, 1, "0/1", 1],
    ]


def test_table_mode_with_tables_and_validation(capsys):
    code = cli.main(["x^2 + y^3", "--emit-hodge-tables", "--validate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check kouchnirenko-mu: pass (mu = 2)" in out
    assert "e[1,1; 0/1] = 1" in out
    assert "distance 6, twist 0" in out


def test_json_output_is_deterministic(capsys):
    a, _ = _json_run(capsys, ["x^5 + x^2*y^2 + y^5"])
    b, _ = _json_run(capsys, ["x^5 + x^2*y^2 + y^5"])
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert a == b
