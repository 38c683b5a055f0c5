"""The benchmark's own tests: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import harness  # noqa: E402
import newton_monodromy as nm  # noqa: E402
from workloads import WORKLOADS, Case  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_unit(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
        "--cases", "2",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    report = json.loads(lines[-2])["report"]
    if trace == "0":
        for name in (
            "answer_ms.p50", "answer_ms.p90", "answers_per_s", "validate_ms.p50",
            "validate_ms.p90", "peak_rss_mb", "setup_s", "failed_frac",
        ):
            assert report["end_to_end"][name]["unit"], name
            assert report["end_to_end"][name]["n"] >= 1, name
    else:
        assert report["digest_equal"] is True


def test_same_seed_same_inputs():
    for w in WORKLOADS.values():
        a, b = w.rounds(5, None), w.rounds(5, None)
        assert next(a) == next(b)


def test_injected_wrong_spectrum_counts_as_failed(monkeypatch):
    real = nm.jordan_blocks

    def wrong(np_):
        spec = real(np_)
        mults = dict(spec.multiplicities)
        ev = min(mults)
        mults[ev] += 1
        return replace(spec, multiplicities=mults)

    monkeypatch.setattr(nm, "jordan_blocks", wrong)
    cases = [Case("x^3 + y^4"), Case("x^5 + x^2*y^2 + y^5")]
    out = harness.run_pass(WORKLOADS["battery"], iter([cases]), 60.0)
    assert out.attempted == 2
    assert len(out.failures) == 2
    assert out.answer_s == []


def test_gate_catches_known_value_and_mu():
    case = Case("x^7 + y^7 + z^7 + x^2*y^2*z^2", 167, ((Fraction(1, 2), ((1, 18), (3, 1))),))
    np_, fast, spec = harness.answer(case.text)
    report = nm.validate(np_)
    assert gate.check(case, np_, fast, spec, report) == []
    assert gate.check(replace(case, mu=168), np_, fast, spec, report)
    bad = replace(spec, blocks={**spec.blocks, (Fraction(1, 2), 3): 2})
    assert gate.check(case, np_, fast, bad, report)
    assert gate.check(case, np_, (fast[0] + 1, fast[1]), spec, report)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(
            ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__")
        )
    done = _run("--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
