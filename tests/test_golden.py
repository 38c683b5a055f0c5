"""Golden `--json` corpus: the CLI payload must not change byte for byte.

Each case runs `cli.main` with `--json --emit-hodge-tables --validate`
and compares the printed payload, with `timing_ms` removed, against
`tests/golden/<name>.json`.  A refactor that claims the same results
must leave these files alone.  To write them afresh after an intended
change of output, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from newton_monodromy import cli, clear_caches, fan

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "cusp": ["x^2 + y^3"],
    "node": ["x^2 + y^2"],
    "fermat_cubic": ["x^3 + y^3"],
    # the compact edge holds (1,1), a support point that is not a vertex
    "conic_with_middle_point": ["x^2 + x*y + y^2"],
    "mixed_quintic_half": ["x^5 + x^2*y^2 + y^5", "--eigenvalue", "1/2"],
    "quartic_surface": ["x^4 + y^4 + z^4 + x^2*y^2*z^2"],
    "septic_surface": ["x^7 + y^7 + z^7 + x^2*y^2*z^2"],
    "four_variables": ["x1^4 + x2^4 + x3^4 + x4^4 + x1*x2*x3*x4"],
    # the compact facet (0,0,4), (0,4,0), (2,0,1), (2,1,0) is a
    # quadrilateral, so the cone over it has a non-simplicial normal fan
    "cone_over_a_quadrilateral": ["x^4 + x^2*y + x^2*z + y^4 + z^4"],
    # run from inside GOLDEN, so the payload's "source" is this file name
    "support_file": ["--support", "support_input.json"],
}


FLAGS = ["--json", "--emit-hodge-tables", "--validate"]


def _without_timing(out: str) -> str:
    payload = json.loads(out)
    assert isinstance(payload.pop("timing_ms"), int)
    return json.dumps(payload, indent=2) + "\n"


def _payload_text(capsys, argv) -> str:
    code = cli.main(argv + FLAGS)
    assert code == 0
    return _without_timing(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{name}.json").read_text()
    assert _payload_text(capsys, CASES[name]) == expected


def test_json_does_not_depend_on_memo_state(capsys, monkeypatch):
    """The whole corpus twice in one process: first after clear_caches(),
    then on the memos the first pass filled, which entries shared across
    characters now serve.  Both passes match the golden files."""
    monkeypatch.chdir(GOLDEN)
    clear_caches()
    for label in ("cold", "warm"):
        for name in sorted(CASES):
            expected = (GOLDEN / f"{name}.json").read_text()
            assert _payload_text(capsys, CASES[name]) == expected, (label, name)


def test_answer_builds_no_fan(capsys, monkeypatch):
    """With the normal fan and its refinement made to raise, a cold CLI
    run with --validate still prints the whole golden payload: the
    spectra, every Hodge table and every check come from the face
    lattice alone."""
    monkeypatch.chdir(GOLDEN)

    def no_fan(*args):
        raise AssertionError("a fan was built")

    monkeypatch.setattr(fan, "normal_fan", no_fan)
    monkeypatch.setattr(fan, "simplicial_refinement", no_fan)
    for name in sorted(CASES):
        clear_caches()
        expected = (GOLDEN / f"{name}.json").read_text()
        assert _payload_text(capsys, CASES[name]) == expected, name


def test_json_matches_golden_without_numpy():
    """The engine imports no numpy: with the import blocked in a fresh
    interpreter, the CLI still prints the golden payload."""
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from newton_monodromy import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run(
        [sys.executable, "-c", script, *CASES["septic_surface"], *FLAGS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    expected = (GOLDEN / "septic_surface.json").read_text()
    assert _without_timing(run.stdout) == expected


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv + FLAGS) == 0
        (GOLDEN / f"{name}.json").write_text(_without_timing(buf.getvalue()))
