"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The degree-7 cases run by
default; deselect them with `-m "not slow"` for a quick pass.
"""

import json
import random
import time

import pytest

from blockposets.blocks import blocks, class_sum_algebra
from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group, main, select_blocks
from blockposets.commuting import block_geometry, clique_witness
from blockposets.gf import (
    ExtensionField,
    PrimeField,
    field_context,
)
from blockposets.perms import PermGroup, Permutation, symmetric_group
from blockposets.topology import (
    boundary_matrices,
    homology,
    order_complex,
    orbit_poset,
    poset_iso_check,
)
from blockposets.verify import (
    check_homology,
    check_nonclique,
    check_principal_clique_complex,
    check_theorem1,
    check_theorem2,
)

from oracles import brute_force_central_idempotents, homology_betti_rational

ORACLE_EXPECTED_COUNTS = {
    "S3_p2": 2, "S3_p3": 1, "S4_p2": 1, "S5_p2": 2, "S7_p2_nonprincipal": 2,
}


def _report(criterion, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} ({name}): {status} {extra}".rstrip())
    assert ok, f"criterion {criterion} ({name}) failed: {extra}"


@pytest.fixture(scope="module")
def corpus_blocks():
    """Resolved corpus: entry name -> (entry, G, F, group context, selected
    blocks)."""
    out = {}
    for entry in CORPUS:
        G = build_group(entry.spec)
        F = field_context(entry.p, entry.d)
        group = GroupContext(G, F)
        out[entry.name] = (entry, G, F, group,
                           select_blocks(group.blocks, entry.selector))
    return out


@pytest.fixture(scope="module")
def corpus_geometries(corpus_blocks):
    """Shared BlockContext + geometry per selected corpus block."""
    out = {}
    for name, (entry, G, F, group, selected) in corpus_blocks.items():
        per_block = []
        for b in selected:
            ctx = BlockContext(group, b)
            geom = block_geometry(ctx)
            per_block.append((b, ctx, geom))
        out[name] = per_block
    return out


@pytest.mark.slow
def test_criterion_1_block_counts_match_oracle(corpus_blocks):
    details = []
    for name, (entry, G, F, _group, _sel) in sorted(corpus_blocks.items()):
        budget = 300.0 if entry.name.startswith("S7") else 5.0
        start = time.monotonic()
        A = class_sum_algebra(G, F)
        computed = sorted(b.coords for b in blocks(G, F, algebra=A))
        oracle = sorted(tuple(u) for u in brute_force_central_idempotents(A))
        elapsed = time.monotonic() - start
        assert computed == oracle, f"{name}: idempotent sets differ"
        if name in ORACLE_EXPECTED_COUNTS:
            assert len(computed) == ORACLE_EXPECTED_COUNTS[name], name
        assert elapsed <= budget, f"{name}: {elapsed:.1f}s over budget {budget}s"
        details.append(f"{name}={len(computed)}({elapsed:.1f}s)")
    _report(1, "block counts vs oracle", True, " ".join(details))


@pytest.mark.slow
def test_criterion_2_dihedral_defect_and_scan(corpus_geometries, tmp_path):
    (b, ctx, _geom) = corpus_geometries["S7_p2_nonprincipal"][0]
    dd = ctx.defect_data()
    fingerprint_ok = (dd.order == 8 and dd.is_dihedral_order_8())
    out = tmp_path / "scan.json"
    rc = main(["find-dihedral-block", "--min", "6", "--max", "8",
               "--out", str(out)])
    doc = json.loads(out.read_text())
    scan_ok = rc == 0 and doc["n"] == 7
    _report(2, "dihedral defect group", fingerprint_ok and scan_ok,
            f"defect={dd.fingerprint} scan hit n={doc['n']}")


@pytest.mark.slow
def test_criterion_3_principal_type_s7(corpus_geometries):
    (_b, ctx, _geom) = corpus_geometries["S7_p2_nonprincipal"][0]
    ok, outcomes, first_failure = ctx.principal_type()
    nonzero = sum(1 for _q, o in outcomes if o != "zero")
    _report(3, "principal type", ok and first_failure is None,
            f"classes={len(outcomes)} with_nonzero_image={nonzero}")


@pytest.mark.slow
def test_criterion_4_theorem1_every_corpus_block(corpus_blocks):
    details = []
    for name, (entry, G, F, group, selected) in sorted(corpus_blocks.items()):
        budget = 600.0 if entry.name.startswith("S7") else 60.0
        for b in selected:
            start = time.monotonic()
            ctx = BlockContext(group, b)
            geom = block_geometry(ctx)
            result = check_theorem1(ctx, geom)
            elapsed = time.monotonic() - start
            assert result.passed, f"{name} block {b.index}: {result.witnesses}"
            cert = result.details["certificate"]
            assert result.details["collapse_expand_is_identity"]
            assert result.details["pointwise_below_expansion"]
            assert cert["forward_equivariant"] and cert["backward_equivariant"]
            assert elapsed <= budget, f"{name}: {elapsed:.1f}s over {budget}s"
            details.append(f"{name}#{b.index}({elapsed:.1f}s)")
    _report(4, "inverse equivalence maps", True, " ".join(details))


@pytest.mark.slow
def test_criterion_5_homology_agreement(corpus_geometries):
    details = []
    for name, per_block in sorted(corpus_geometries.items()):
        for b, ctx, geom in per_block:
            ca = order_complex(geom.aposet)
            ck = order_complex(geom.kposet)
            assert ca.euler_characteristic() == ck.euler_characteristic(), name
            result = check_homology(ctx, geom)
            assert result.status == "pass", f"{name}: {result.details}"
            details.append(f"{name}#{b.index}")
    _report(5, "homology of the two complexes", True, " ".join(details))


def test_criterion_6_principal_block_clique_complex(corpus_geometries):
    (b, ctx, geom) = next(
        (b, ctx, geom) for b, ctx, geom in corpus_geometries["S4_p2"]
        if b.principal)
    result = check_principal_clique_complex(ctx, geom)
    ok = result.passed and result.details["graph_vertices"] == 9
    _report(6, "clique complex specialization", ok,
            f"vertices={result.details['graph_vertices']} "
            f"cliques={result.details['cliques']}")


def _pattern_subgroups():
    make = lambda *cycle: PermGroup.from_generators(
        7, [Permutation.from_cycles(7, [list(cycle)])])
    return {make(1, 2).element_set, make(3, 4).element_set,
            make(5, 6).element_set}


@pytest.mark.slow
def test_criterion_7_nonclique_obstruction(corpus_geometries):
    # principal corpus entries come back clean
    clean = []
    for name, per_block in sorted(corpus_geometries.items()):
        for b, ctx, geom in per_block:
            if not b.principal:
                continue
            assert clique_witness(geom) is None, name
            clean.append(name)
    # the degree-7 nonprincipal block yields the triple
    (b, ctx, geom) = corpus_geometries["S7_p2_nonprincipal"][0]
    w = clique_witness(geom)
    assert w is not None
    assert len(w.minimal_indices) == 3
    assert w.brauer_vanishes, "generated subgroup must have zero Brauer image"
    # pairwise bounded above inside the commuting poset
    kposet = geom.kposet
    up = kposet.up
    for i in w.minimal_indices:
        for j in w.minimal_indices:
            if i != j:
                assert up[i] & up[j], "pair without a common upper bound"
    # the subgroup triple is simultaneously conjugate to the disjoint
    # transposition pattern; honest scan over all 5040 group elements
    pattern = _pattern_subgroups()
    triple = [S.element_set for S in w.subgroups]
    found_g = None
    for g in ctx.G.elements:
        ginv = g.inverse()
        conj = {frozenset(ginv * x * g for x in elems) for elems in triple}
        if conj == pattern:
            found_g = g
            break
    assert found_g is not None, "triple not conjugate to the pattern"
    _report(7, "non-clique obstruction", True,
            f"triple={w.pair_labels} principal_clean={clean}")


@pytest.mark.slow
def test_criterion_8_orbit_category_isomorphism(corpus_geometries):
    details = []
    for name, per_block in sorted(corpus_geometries.items()):
        for b, ctx, geom in per_block:
            result = check_theorem2(ctx, geom)
            assert result.passed, f"{name}: {result.details} {result.witnesses}"
            assert result.details["iso_classes"] == result.details["orbits"]
            details.append(f"{name}#{b.index}"
                           f"={result.details['iso_classes']}")
    _report(8, "iso classes vs orbits", True, " ".join(details))


def test_criterion_9_infrastructure_oracles():
    # SNF betti vs rational-rank betti on 100 random complexes, boundary
    # composites always zero
    from test_topology import random_complex
    rng = random.Random(0xACCE97)
    for _ in range(100):
        C = random_complex(rng)
        boundary_matrices(C)  # raises if any composite is nonzero
        H = homology(C)
        betti = [b for b, _t in H.groups]
        while betti and betti[-1] == 0:
            betti.pop()
        assert betti == homology_betti_rational(C)
    # Frobenius additivity at 10^4 samples
    ext = [PrimeField(2), PrimeField(3), PrimeField(5),
           ExtensionField(2, 2), ExtensionField(2, 3), ExtensionField(3, 2),
           ExtensionField(5, 2)]
    for i in range(10_000):
        F = ext[i % len(ext)]
        a, b = F.rand(rng), F.rand(rng)
        assert F.pow(F.add(a, b), F.p) == F.add(F.pow(a, F.p), F.pow(b, F.p))
    _report(9, "infrastructure oracles", True,
            "100 complexes, 10^4 Frobenius samples")


@pytest.mark.slow
def test_s7_p3_verify_every_block(tmp_path):
    # S7 at p=3: every check on all three blocks, the block 2 homology
    # pinned to the values recorded before the class-coordinate Brauer pairs
    # and the unit-pivot Smith form
    out = tmp_path / "s7p3.json"
    start = time.monotonic()
    rc = main(["verify", "--group", "S7", "--prime", "3", "--out", str(out)])
    elapsed = time.monotonic() - start
    (entry,) = json.loads(out.read_text())["entries"]
    checks = entry["checks"]
    assert rc == 0 and entry["status"] == "pass"
    assert sorted({c["target"]["block"] for c in checks}) == [0, 1, 2]
    assert all(c["status"] == "pass" for c in checks)
    assert len(checks) == 15
    (hom,) = [c for c in checks
              if c["name"] == "homology" and c["target"]["block"] == 2]
    assert hom["details"]["simplices"] == [525, 10325]
    assert hom["details"]["euler_characteristics"] == [-35, -35]
    assert hom["details"]["homology"] == \
        ["HomologyResult(H0=Z^1, H1=Z^36)"] * 2
    _report("S7p3", "verify S7 p=3", True, f"15 checks in {elapsed:.1f}s")
