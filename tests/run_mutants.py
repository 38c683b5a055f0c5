"""Apply each mutant of tests/mutants.py to a temporary copy of the tree
and run its test with -x.

A killed mutant passes when its test fails (pytest exit status 1); an
equivalent one passes when its test still passes (status 0).  Any other
status, a test id that collects nothing for one, is a failure too.  The
copy holds src/, tests/, perfbench/ and pyproject.toml; each mutant is
written into it, run, and undone, so the checkout is never touched.
Standard library only, besides the pytest it runs.  Run from anywhere:

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py 0 3        # mutants 0 and 3 only

Prints one line per mutant and exits 1 if any mutant's outcome is not
the one its entry states.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(tree: Path, test: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test]
    return subprocess.run(
        cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def main(argv) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        for k in picked:
            m = MUTANTS[k]
            path = tree / "src" / "newton_monodromy" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{k:2d} STALE     {m.file}: old text occurs {text.count(m.old)} times")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                status = _run(tree, m.test)
            finally:
                path.write_text(text)
            want = 0 if m.equivalent else 1
            verdict = {0: "survived", 1: "killed"}.get(status, f"status {status}")
            ok = status == want
            bad += not ok
            tag = ("ok" if ok else "WRONG") + (" (equivalent)" if m.equivalent else "")
            print(
                f"{k:2d} {verdict:9s} {tag:18s} {time.perf_counter() - start:5.1f} s"
                f"  {m.file}: {m.new.strip()[:60]!r}  [{m.test}]"
            )
    print(f"{len(picked) - bad} of {len(picked)} mutants as stated")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
