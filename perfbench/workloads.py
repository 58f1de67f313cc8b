"""Workloads of the verify benchmark and its correctness gate.

A workload is a list of verify targets, run closed-loop in one process and
one thread. Seed 0 runs the presets as shipped. Any other seed relabels the
points of each group's domain with a seeded random permutation and passes
the conjugated generators as a ``{"type": "generators", ...}`` spec. Verdicts
and sizes do not depend on labels, so each seed gives new inputs with known
answers: the label-free summary of every check must equal seed 0's.
"""

from __future__ import annotations

import functools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass

PRESETS = {
    "S3": ("symmetric", 3), "S4": ("symmetric", 4), "S5": ("symmetric", 5),
    "S6": ("symmetric", 6), "S7": ("symmetric", 7), "D8": ("dihedral", 8),
}


@dataclass(frozen=True)
class Target:
    group: str          # a preset name
    p: int
    selector: str = "all"


@dataclass(frozen=True)
class Workload:
    targets: tuple
    checks: str | None = None           # None: every check
    seed0_argv: tuple | None = None     # one invocation replacing the targets


# The corpus entries of `verify --corpus --slow` as shipped, so that other
# seeds relabel exactly the groups seed 0 runs.
CORPUS = (Target("S3", 2), Target("S3", 3), Target("S4", 2), Target("S5", 2),
          Target("D8", 2), Target("S7", 2, "nonprincipal"))

WORKLOADS = {
    "corpus": Workload(CORPUS, seed0_argv=("verify", "--corpus", "--slow")),
    "s6_p2_principal": Workload((Target("S6", 2, "principal"),),
                                checks="theorem1,nonclique"),
    # Not in BENCHMARK.json: one repetition takes 26-51 s, so a run cannot
    # repeat it enough to be steady. Run it by name for the blocks and
    # brauer layers (see README.md).
    "s6_p5_all": Workload((Target("S6", 5),)),
    # Tiny list for the harness smoke test; not a benchmark workload.
    "smoke": Workload((Target("S3", 2), Target("S4", 2), Target("D8", 2))),
}


def preset_generators(name):
    """Generators, as 1-based cycle lists, of the library's preset groups."""
    kind, size = PRESETS[name]
    if kind == "symmetric":
        return size, [[[1, 2]], [list(range(1, size + 1))]]
    n = size // 2
    reflection = [[i + 1, n - i] for i in range(n // 2)]
    return n, [[list(range(1, n + 1))], reflection]


def relabelled_spec(name, rng):
    """The preset with its points renamed by a random permutation."""
    degree, gens = preset_generators(name)
    image = list(range(1, degree + 1))
    rng.shuffle(image)
    return {"type": "generators", "degree": degree,
            "gens": [[[image[x - 1] for x in cycle] for cycle in gen]
                     for gen in gens]}


def group_specs(workload, seed):
    """Group spec text per target: preset names on seed 0, else relabelled."""
    if seed == 0:
        return [t.group for t in workload.targets]
    rng = random.Random(seed)
    return [json.dumps(relabelled_spec(t.group, rng), separators=(",", ":"))
            for t in workload.targets]


def invocations(workload, seed):
    """The `blockposets` argument lists one run of the workload makes."""
    if seed == 0 and workload.seed0_argv:
        return [list(workload.seed0_argv)]
    out = []
    for t, spec in zip(workload.targets, group_specs(workload, seed)):
        argv = ["verify", "--group", spec, "--prime", str(t.p),
                "--block", t.selector]
        if workload.checks:
            argv += ["--checks", workload.checks]
        out.append(argv)
    return out


def setup_targets(workload, seed):
    """(group spec, p) per target, for the set-up measurement."""
    return [(spec, t.p)
            for t, spec in zip(workload.targets, group_specs(workload, seed))]


# ---------------------------------------------------------------------------
# correctness gate


def expected_reports(expected_dir, name):
    """Seed 0's reports as recorded, in invocation order."""
    folder = os.path.join(expected_dir, name)
    files = sorted(os.listdir(folder), key=lambda f: int(f.split(".")[0]))
    out = []
    for f in files:
        with open(os.path.join(folder, f)) as fh:
            out.append(fh.read())
    return out


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, obj


def _checks(report_text):
    for entry in json.loads(report_text)["entries"]:
        yield from entry["checks"]


# Details that print group elements: only their number is label-free.
LABELLED_DETAILS = ("obstruction",)


def label_free_summary(check):
    """Name, status, principal flag, group order, p, d and the details.

    Every detail is kept (counts, flags, homology groups, certificate
    directions) except the labelled ones, which are reduced to their length.
    """
    t = check["target"]
    details = dict(check["details"])
    for key in LABELLED_DETAILS:
        if details.get(key) is not None:
            details[key] = len(details[key])
    return (check["name"], check["status"], t.get("principal"), t["order"],
            t["p"], t["d"], tuple(_leaves(details)))


def gate(actual, expected, seed):
    """(attempted, failed) for one run of a workload.

    `actual` holds the run's report texts, or None where the invocation
    crashed. Attempted checks are the checks of seed 0's expected reports.
    A check is verified when it passed and matches an expected check: its
    whole JSON on seed 0 (the reports must also be byte-identical), its
    label-free summary on other seeds. A crash or a resource-bound skip
    leaves its checks unmatched, so they count as failed.
    """
    want = [c for text in expected for c in _checks(text)]
    attempted = len(want)
    key = functools.partial(json.dumps, sort_keys=True) if seed == 0 \
        else label_free_summary
    remaining = Counter(key(c) for c in want if c["status"] == "pass")
    verified = 0
    for text in actual:
        if text is None:
            continue
        try:
            checks = list(_checks(text))
        except (ValueError, KeyError, TypeError):
            continue
        for c in checks:
            k = key(c)
            if c["status"] == "pass" and remaining[k] > 0:
                remaining[k] -= 1
                verified += 1
    failed = attempted - verified
    if seed == 0 and failed == 0 and list(actual) != list(expected):
        failed = 1          # same checks, but the report bytes differ
    return attempted, failed
