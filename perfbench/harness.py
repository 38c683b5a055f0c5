"""The closed loop: one client, one case at a time, in this process.

A case mirrors `newton-monodromy --json --validate` without interpreter
start: the answer (parse, Newton polyhedron, unipotent fast path,
Jordan blocks) is timed, then validate() on the warm memos is timed
separately, then the correctness gate runs untimed.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import newton_monodromy as nm

import gate


@dataclass
class Pass:
    """What one pass over some rounds measured."""

    answer_s: list[float] = field(default_factory=list)
    validate_s: list[float] = field(default_factory=list)
    at: list[tuple[float, float]] = field(default_factory=list)  # (start, end) s
    lines: list[str] = field(default_factory=list)  # canonical output per case
    failures: list[tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    rounds: list[list] = field(default_factory=list)  # the rounds run, all whole

    @property
    def work_s(self) -> float:
        return sum(self.answer_s) + sum(self.validate_s)

    def normalised(self, speed):
        """(answer_s, validate_s) of every case, each divided by the host
        slowdown around it (HostSpeed.around, sampled during this pass)."""
        f = [speed.around(t0, t1) for t0, t1 in self.at]
        return (
            [a / x for a, x in zip(self.answer_s, f)],
            [v / x for v, x in zip(self.validate_s, f)],
        )


def answer(text):
    np_ = nm.newton_polyhedron(nm.parse_polynomial(text))
    return np_, nm.fastpath_unipotent(np_), nm.jordan_blocks(np_)


def _clear(tracer) -> None:
    nm.clear_caches()
    if tracer is not None:
        tracer.reset_keys()


def run_case(case, out: Pass, tracer=None) -> None:
    out.attempted += 1
    clock = time.perf_counter_ns
    try:
        t0 = clock()
        np_, fast, spectrum = answer(case.text)
        t1 = clock()
        report = nm.validate(np_)
        t2 = clock()
    except Exception:  # a case that raises is a failed case, not a crash
        out.failures.append((case.text, traceback.format_exc(limit=3)))
        return
    finally:
        if tracer is not None:
            tracer.fold()
    problems = gate.check(case, np_, fast, spectrum, report)
    if problems:
        out.failures.append((case.text, "; ".join(problems)))
        return
    out.answer_s.append((t1 - t0) / 1e9)
    out.validate_s.append((t2 - t1) / 1e9)
    out.at.append((t0 / 1e9, t2 / 1e9))  # the clock of time.perf_counter()
    out.lines.append(gate.canonical(case.text, fast, spectrum))


def run_pass(workload, rounds, seconds, tracer=None, speed=None) -> Pass:
    """Run whole rounds for about `seconds` of wall time.

    A round is never cut: another one starts only when it is expected to
    end within 10% of the budget, so a run measures the same inputs
    whatever the host's speed, and at least one round always runs.  With
    speed (a HostSpeed), the reference kernels are sampled between cases.
    """
    out = Pass()
    start = time.perf_counter()
    for rnd in rounds:
        t_round = time.perf_counter()
        out.rounds.append(rnd)
        if not workload.cold:
            _clear(tracer)
        for case in rnd:
            if speed is not None:
                speed.sample_if_due()
            if workload.cold:
                _clear(tracer)
            run_case(case, out, tracer)
        now = time.perf_counter()
        if now - start + (now - t_round) > 1.1 * seconds:
            break
    return out
