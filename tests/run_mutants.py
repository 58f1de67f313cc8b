"""Replay the registered source mutations (tests/mutants.py).

For each entry, src/ is copied to a temporary directory, the entry's
snippet is replaced there, and the entry's tests run on that copy with
``pytest -x``.  The mutant is killed when pytest reports a failed test
(exit status 1) and survives when every test passes (status 0); any other
status, such as no test collected, is an error.  The run fails when a
snippet does not occur exactly once in its file, or when a mutant is not
killed.  Each run is held to 2 GiB of address space and 10 minutes, as a
mutant may loop or grow without bound; reaching either (a MemoryError in
the output, or the timeout) is an error, not a kill.  Tests that start
their own interpreter on the repository's src/ do not see the mutation,
so no entry names them.

    python tests/run_mutants.py
"""

import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
import time

from mutants import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
MEMORY = 2 << 30        # bytes of address space per run
SECONDS = 600


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def apply(src, mutant):
    """Replace the mutant's snippet in the copy of src; it must occur once."""
    path = src / "blockposets" / mutant.file
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run(mutant):
    """('killed' or 'survived', pytest's FAILED lines); RuntimeError on any
    other pytest status or on a MemoryError."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        apply(src, mutant)
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SECONDS, preexec_fn=_limit_memory)
    if proc.returncode in (0, 1) and "MemoryError" not in proc.stdout:
        failed = [line for line in proc.stdout.splitlines()
                  if line.startswith("FAILED")]
        return ("survived" if proc.returncode == 0 else "killed"), failed
    raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n"
                       f"{proc.stdout}{proc.stderr}")


def main(mutants):
    """Run each mutant, print one line per mutant; 0 iff all are killed."""
    survivors = 0
    for mutant in mutants:
        start = time.perf_counter()
        verdict, failed = run(mutant)
        survivors += verdict != "killed"
        print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  "
              f"{mutant.file}: {mutant.name}", flush=True)
        for line in failed:
            print("    " + line)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(MUTANTS))
