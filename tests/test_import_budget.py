"""Importing the command line interface loads only what a verify run uses.

Each `blockposets verify` is a fresh process, so every stdlib module the
import pulls in is paid for on every run.  FORBIDDEN lists what a disk
cache (hashlib, tempfile), dataclass records (dataclasses, inspect) or a
rational-rank oracle (fractions, decimal) would bring in; the library has
none of these, and the rational oracle lives in tests/oracles.py.  The
import runs in a fresh interpreter under -I -S, so neither the test
runner's modules nor site packages can mask a regression (-B: it writes
no bytecode).
"""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FORBIDDEN = ("hashlib", "_hashlib", "dataclasses", "inspect", "fractions",
             "decimal", "tempfile")


def modules_after_import(module):
    script = (f"import sys\n"
              f"sys.path.insert(0, {str(SRC)!r})\n"
              f"import {module}\n"
              f"print('\\n'.join(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script],
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_forbidden_module():
    loaded = modules_after_import("blockposets.cli")
    assert "blockposets.verify" in loaded
    assert sorted(loaded.intersection(FORBIDDEN)) == []
