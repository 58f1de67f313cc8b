"""Command line interface: block listings, verification runs, poset exports.

Group specs are preset names (S3..S7, D8) or JSON records:

    {"type": "symmetric", "n": 4}
    {"type": "dihedral", "order": 8}
    {"type": "generators", "degree": 4, "gens": [[[1,2],[3,4]], [[1,3]]]}

Exit status of `verify`: 0 all pass, 1 at least one failure, 2 skips but no
failure.  Every command exits with status 2 and one line on stderr when its
input is bad (a malformed group spec, a prime that is not prime, an unknown
or repeated check, an unknown block selector, a field degree,
--max-elements or --min below 1, a negative --max-simplices).  Reports are
deterministic JSON; wall-clock timings are only embedded with --timings
(they would break byte-for-byte reproducibility).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from . import __version__
from .brauer import BlockContext, GroupContext
from .commuting import block_geometry
from .errors import SizeLimitExceeded, TheoryViolation
from .fusion import CommutingCategory, FusionSystem, IsoClassPoset
from .gf import field_context
from .perms import (
    MAX_GROUP_ORDER,
    PermGroup,
    Permutation,
    dihedral_group,
    exponent_p_part_complement,
    symmetric_group,
)
from .topology import orbit_poset
from .verify import (
    CHECKS_BY_NAME,
    DEFAULT_CHECKS,
    HOMOLOGY_SIMPLEX_BOUND,
    run_block_checks,
)

PRESETS = {
    "S3": {"type": "symmetric", "n": 3},
    "S4": {"type": "symmetric", "n": 4},
    "S5": {"type": "symmetric", "n": 5},
    "S6": {"type": "symmetric", "n": 6},
    "S7": {"type": "symmetric", "n": 7},
    "D8": {"type": "dihedral", "order": 8},
}


class CorpusEntry(namedtuple("CorpusEntry", "name spec p d selector slow",
                             defaults=(False,))):
    """One verify target: a group spec, GF(p^d) and a block selector."""

    __slots__ = ()


CORPUS = (
    CorpusEntry("S3_p2", PRESETS["S3"], 2, 1, "all"),
    CorpusEntry("S3_p3", PRESETS["S3"], 3, 1, "all"),
    CorpusEntry("S4_p2", PRESETS["S4"], 2, 1, "all"),
    CorpusEntry("S5_p2", PRESETS["S5"], 2, 1, "all"),
    CorpusEntry("D8_p2", PRESETS["D8"], 2, 1, "all"),
    CorpusEntry("S7_p2_nonprincipal", PRESETS["S7"], 2, 1, "nonprincipal",
                slow=True),
)


def _bad_input(message):
    """Stop on bad input: one line on stderr, exit status 2."""
    print(f"blockposets: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_group_spec(text):
    if text in PRESETS:
        return PRESETS[text]
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        _bad_input(f"unrecognized group spec {text!r}: {exc}")
    if not isinstance(spec, dict) or "type" not in spec:
        _bad_input("group spec must be a preset name or a JSON record")
    return spec


def _integer(value):
    """Is value a JSON integer?  bool is an int subclass, and is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _size(spec, field):
    """The integer field of a group spec; a float or a bool is refused,
    not truncated."""
    value = spec[field]
    if not _integer(value):
        raise ValueError(f"{field} must be an integer, not "
                         f"{json.dumps(value)}")
    return value


def _cycle_lists(gens):
    """gens, checked to be a list of generators, each a list of cycles,
    each a list of integer points."""
    if not (isinstance(gens, list) and all(
            isinstance(gen, list) and all(
                isinstance(cycle, list) and all(map(_integer, cycle))
                for cycle in gen)
            for gen in gens)):
        raise ValueError("gens must be a list of cycle lists of integer "
                         "points")
    return gens


def build_group(spec, max_elements=MAX_GROUP_ORDER):
    kind = spec["type"]
    try:
        if kind == "symmetric":
            n = _size(spec, "n")
            if n < 1:
                raise ValueError("n >= 1")
            order = 1
            for k in range(2, n + 1):       # stops at the first excess
                order *= k
                if order > max_elements:
                    raise SizeLimitExceeded(f"symmetric group of degree {n} "
                                            f"exceeds {max_elements} elements")
            return symmetric_group(n)
        if kind == "dihedral":
            order = _size(spec, "order")
            if order > max_elements:
                raise SizeLimitExceeded(f"dihedral group of order {order} "
                                        f"exceeds {max_elements} elements")
            return dihedral_group(order)
        if kind == "generators":
            degree = _size(spec, "degree")
            if degree < 1:
                raise ValueError("degree >= 1")
            gens = [Permutation.from_cycles(degree, cycles)
                    for cycles in _cycle_lists(spec["gens"])]
            return PermGroup.from_generators(degree, gens, label="custom",
                                             max_elements=max_elements)
    except KeyError as exc:
        _bad_input(f"{kind} group spec needs the field {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        _bad_input(f"bad {kind} group spec: {exc}")
    _bad_input(f"unknown group type {kind!r}")


def _field(p, d):
    """GF(p^d), with a bad p or d reported as bad input."""
    try:
        return field_context(p, d)
    except ValueError as exc:
        _bad_input(f"no field GF({p}^{d}): {exc}")


def field_for(args, G):
    if getattr(args, "auto_split", False):
        _field(args.prime, 1)        # reject a bad prime before using it
        m = exponent_p_part_complement(G, args.prime)
        d = 1
        while m > 1 and pow(args.prime, d, m) != 1:
            d += 1
        return _field(args.prime, d)
    return _field(args.prime, args.field_degree)


def select_blocks(block_list, selector):
    if selector == "all":
        return list(block_list)
    if selector == "principal":
        return [b for b in block_list if b.principal]
    if selector == "nonprincipal":
        return [b for b in block_list if not b.principal]
    try:
        index = int(selector)
    except ValueError:
        _bad_input(f"bad block selector {selector!r}")
    if not 0 <= index < len(block_list):
        _bad_input(f"block index {index} out of range")
    return [block_list[index]]


def _fingerprint_text(fp):
    parts = [f"order={fp['order']}", f"exponent={fp['exponent']}",
             "abelian" if fp["abelian"] else "nonabelian",
             "cyclic" if fp["cyclic"] else "noncyclic"]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# commands


def cmd_blocks(args):
    G = build_group(parse_group_spec(args.group), args.max_elements)
    F = field_for(args, G)
    group = GroupContext(G, F)
    block_list = group.blocks
    rows = []
    for b in block_list:
        dd = BlockContext(group, b).defect_data()
        rows.append({
            "index": b.index,
            "principal": b.principal,
            "augmentation": F.encode(b.augment),
            "support_size": len(b.element.support),
            "defect_order": dd.order,
            "defect_fingerprint": dd.fingerprint,
            "defect_is_dihedral_8": dd.is_dihedral_order_8(),
        })
    if args.format == "json":
        doc = {"group": G.label, "order": G.order, "p": F.p, "d": F.d,
               "block_count": len(block_list), "blocks": rows,
               "version": __version__}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return 0
    lines = [f"{G.label} (order {G.order}), p={F.p}, d={F.d}: "
             f"{len(block_list)} block(s)"]
    for r in rows:
        tag = "principal" if r["principal"] else "non-principal"
        lines.append(
            f"  block {r['index']}: {tag}, augmentation {r['augmentation']}, "
            f"defect order {r['defect_order']} "
            f"[{_fingerprint_text(r['defect_fingerprint'])}]"
            + ("  <- dihedral of order 8" if r["defect_is_dihedral_8"] else ""))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _verify_entry(entry, G, checks, max_simplices):
    """The entry's check results on its group G."""
    group = GroupContext(G, _field(entry.p, entry.d))
    results = []
    for b in select_blocks(group.blocks, entry.selector):
        results.extend(run_block_checks(group, b, checks, max_simplices))
    return results


def cmd_verify(args):
    checks = args.checks.split(",") if args.checks else list(DEFAULT_CHECKS)
    for k, c in enumerate(checks):
        if c not in CHECKS_BY_NAME:
            _bad_input(f"unknown check {c!r}; choose from "
                      f"{', '.join(CHECKS_BY_NAME)}")
        if c in checks[:k]:
            _bad_input(f"check {c!r} named twice")
    built = None                # the target's group, once built
    if args.corpus:
        entries = list(CORPUS)
    else:
        if not args.group:
            _bad_input("need --group or --corpus")
        spec = parse_group_spec(args.group)
        d = args.field_degree
        if args.auto_split:
            try:
                built = build_group(spec, args.max_elements)
            except SizeLimitExceeded:
                pass    # the entry reports the bound as skipped
            else:
                d = field_for(args, built).d
        entries = [CorpusEntry("target", spec, args.prime, d, args.block)]
    report_entries = []
    statuses = []
    for entry in entries:
        if entry.slow and not args.slow:
            report_entries.append({
                "entry": entry.name,
                "status": "skipped",
                "reason": "slow entry gated; pass --slow to run",
                "checks": [],
            })
            statuses.append("skipped")
            continue
        try:
            G = built or build_group(entry.spec, args.max_elements)
            outcome = _verify_entry(entry, G, checks, args.max_simplices)
        except SizeLimitExceeded as exc:
            report_entries.append({
                "entry": entry.name,
                "status": "skipped",
                "reason": f"resource bound: {exc}",
                "checks": [],
            })
            statuses.append("skipped")
            continue
        checks_json = [r.to_json_dict(include_timing=args.timings)
                       for r in outcome]
        worst = "fail" if any(r.status == "fail" for r in outcome) else (
            "skipped" if any(r.status == "skipped" for r in outcome) else "pass")
        report_entries.append({
            "entry": entry.name,
            "status": worst,
            "checks": checks_json,
        })
        statuses.append(worst)
        for r in outcome:
            blk = r.target.get("block", "-")
            print(f"[{r.status}] {entry.name} block={blk} {r.name}",
                  file=sys.stderr)

    report = {"version": __version__, "checks_requested": checks,
              "entries": report_entries}
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    if "fail" in statuses:
        return 1
    if "skipped" in statuses:
        return 2
    return 0


def cmd_poset(args):
    G = build_group(parse_group_spec(args.group), args.max_elements)
    group = GroupContext(G, field_for(args, G))
    selected = select_blocks(group.blocks, args.block)
    if len(selected) != 1:
        _bad_input("poset export needs exactly one block; "
                  "use --block principal|nonprincipal|<index>")
    ctx = BlockContext(group, selected[0])
    if args.which in ("A", "K", "K-orbit"):
        geom = block_geometry(ctx)
        if args.which == "A":
            poset = geom.aposet
        elif args.which == "K":
            poset = geom.kposet
        else:
            poset, _ = orbit_poset(geom.kposet)
    elif args.which == "brauer-pairs":
        family = [Q for i in range(len(group.classes))
                  for Q in group.conjugates(i)]
        poset = ctx.pair_poset(family).poset
    elif args.which == "iso-classes":
        fs = FusionSystem.from_block_context(ctx)
        poset = IsoClassPoset(CommutingCategory(fs)).poset
    else:
        _bad_input(f"unknown poset kind {args.which!r}")
    if args.format == "dot":
        _emit(poset.to_dot(), args.out)
    else:
        _emit(json.dumps(poset.to_json_dict(), indent=2,
                         sort_keys=True) + "\n", args.out)
    return 0


def cmd_find_dihedral_block(args):
    """First symmetric group in range with a nonprincipal block of dihedral
    defect of order 8."""
    for n in range(args.min, args.max + 1):
        group = GroupContext(symmetric_group(n), field_context(2, 1))
        for b in group.blocks:
            if b.principal:
                continue
            dd = BlockContext(group, b).defect_data()
            if dd.order == 8 and dd.is_dihedral_order_8():
                doc = {"n": n, "block_index": b.index,
                       "defect_order": dd.order,
                       "defect_fingerprint": dd.fingerprint}
                _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                      args.out)
                return 0
    _emit(json.dumps({"n": None, "reason": "no dihedral-defect block in range"},
                     indent=2, sort_keys=True) + "\n", args.out)
    return 1


def _check_numeric_flags(args):
    """Reject a numeric flag below its least meaningful value."""
    if getattr(args, "field_degree", 1) < 1:
        _bad_input("field degree must be >= 1")
    if getattr(args, "max_elements", 1) < 1:
        _bad_input("--max-elements must be >= 1")
    if getattr(args, "max_simplices", 0) < 0:
        _bad_input("--max-simplices must be >= 0")
    if getattr(args, "min", 1) < 1:
        _bad_input("--min must be >= 1")


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_flags(sub, with_block=True):
    sub.add_argument("--group", help="preset name or JSON group spec")
    sub.add_argument("--prime", type=int, default=2)
    sub.add_argument("--field-degree", type=int, default=1)
    sub.add_argument("--auto-split", action="store_true",
                     help="set the field degree to a splitting degree for G")
    if with_block:
        sub.add_argument("--block", default="all",
                         help="principal | nonprincipal | all | <index>")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    sub.add_argument("--max-elements", type=int, default=MAX_GROUP_ORDER)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="blockposets",
        description="Commuting posets of blocks and fusion-system "
                    "commuting categories for small finite groups.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_blocks = subs.add_parser("blocks", help="list the blocks of kG")
    _common_flags(p_blocks, with_block=False)
    p_blocks.add_argument("--format", choices=("text", "json"), default="text")
    p_blocks.set_defaults(fn=cmd_blocks)

    p_verify = subs.add_parser("verify", help="run verification suites")
    _common_flags(p_verify)
    p_verify.add_argument("--max-simplices", type=int,
                          default=HOMOLOGY_SIMPLEX_BOUND)
    p_verify.add_argument("--corpus", action="store_true",
                          help="run the shipped corpus instead of a single group")
    p_verify.add_argument("--checks",
                          help="comma list from: " + ",".join(CHECKS_BY_NAME)
                          + " (default: " + ",".join(DEFAULT_CHECKS) + ")")
    p_verify.add_argument("--slow", action="store_true",
                          help="include entries marked slow (degree 7)")
    p_verify.add_argument("--timings", action="store_true",
                          help="embed wall-clock times in the report")
    p_verify.set_defaults(fn=cmd_verify)

    p_poset = subs.add_parser("poset", help="export a poset as JSON or DOT")
    _common_flags(p_poset)
    p_poset.add_argument("--which", required=True,
                         choices=("A", "K", "K-orbit", "brauer-pairs",
                                  "iso-classes"))
    p_poset.add_argument("--format", choices=("json", "dot"), default="json")
    p_poset.set_defaults(fn=cmd_poset)

    p_find = subs.add_parser("find-dihedral-block",
                             help="scan symmetric groups for a nonprincipal "
                                  "block with dihedral defect of order 8")
    p_find.add_argument("--min", type=int, default=6)
    p_find.add_argument("--max", type=int, default=8)
    p_find.add_argument("--out")
    p_find.set_defaults(fn=cmd_find_dihedral_block)

    args = parser.parse_args(argv)
    _check_numeric_flags(args)
    try:
        return args.fn(args)
    except TheoryViolation as exc:
        print(f"theory violation: {exc} (witness: {exc.witness})",
              file=sys.stderr)
        return 1
    except SizeLimitExceeded as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
