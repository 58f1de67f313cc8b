"""The principal-clique check on the commuting poset's clique walk.

The check reads the commuting graph, its cliques and their products off
`commuting.product_walk` over every nontrivial elementary abelian subgroup
of G.  The oracle, `oracles.principal_clique_by_closures`, builds the graph
of its own: every order-p subgroup by closure, each face's product by a
permutation closure and the face poset from the downward closure of the
cliques.

* The reports on S5 and S6 p=2 principal are pinned under tests/data/.
* Both give the same result on every block of S3-S6 at p = 2, 3, 5 and of
  S7 at p = 3, once as given and once with the block taken as principal.
* Under five mutations both fail alike: an order-p class dropped from the
  p-subgroup classes, a rank-2 class dropped (its cliques are cut), an
  element of the commuting poset duplicated at its kappa, two elements of
  one orbit swapped in the element list (a row then holds elements whose
  vertices do not contain the face's), and one covering relation dropped
  from a minimal element's row (a row then has fewer members than the
  faces above the face).
* On S7 p=2 principal the check runs in a fresh process under 60 MB.
"""

import copy
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import PRESETS, build_group, main
from blockposets.commuting import block_geometry
from blockposets.gf import field_context
from blockposets.topology import Poset
from blockposets.verify import check_principal_clique_complex

from oracles import principal_clique_by_closures, up_masks
from test_verify import PEAK_CHILD

DATA = Path(__file__).parent / "data"


def group_context(name, p):
    return GroupContext(build_group(PRESETS[name]), field_context(p, 1))


def principal_context(group):
    (principal,) = [b for b in group.blocks if b.principal]
    return BlockContext(group, principal)


def both(ctx, geom):
    """(check, oracle) reports of one block."""
    return (check_principal_clique_complex(ctx, geom).to_json_dict(),
            principal_clique_by_closures(ctx, geom).to_json_dict())


@pytest.mark.parametrize("name", ["S5", "S6"])
def test_reports_match_recorded(name, tmp_path):
    """Recorded before the check moved onto the clique walk."""
    out = tmp_path / "report.json"
    assert main(["verify", "--group", name, "--prime", "2", "--block",
                 "principal", "--checks", "principal-clique",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == \
        (DATA / f"{name.lower()}_p2_principal_clique.json").read_bytes()


@pytest.mark.parametrize("name, p", [
    (name, p) for name in ("S3", "S4", "S5", "S6") for p in (2, 3, 5)
] + [("S7", 3)])
def test_matches_oracle_on_every_block(name, p):
    """As given, the nonprincipal blocks are skipped by both; taken as
    principal, their Brauer-filtered commuting posets lack vertices or
    products, or differ in order, and both must say so alike."""
    group = group_context(name, p)
    statuses = set()
    for block in group.blocks:
        ctx = BlockContext(group, block)
        geom = block_geometry(ctx)
        forced = copy.copy(block)
        forced.principal = True
        for c in (ctx, BlockContext(group, forced)):
            new, old = both(c, geom)
            assert new == old, (name, p, block.index, c.block.principal)
            statuses.add(new["status"])
    assert "pass" in statuses


def rank(R, p):
    """The rank of R if it is elementary abelian, else None."""
    abelian, r = R.is_elementary_abelian(p)
    return r if abelian else None


def without_class(name, p, drop):
    """The principal block's context and geometry, with each class k of
    p-subgroups for which drop(k, rank) holds taken out before anything
    reads the classes."""
    group = group_context(name, p)
    kept = [(R, orbit) for k, (R, orbit) in enumerate(group.classes)
            if not drop(k, rank(R, p))]
    assert len(kept) < len(group.classes)
    group._classes = kept
    ctx = principal_context(group)
    return ctx, block_geometry(ctx)


@pytest.mark.parametrize("name, p", [
    ("S3", 2), ("S4", 3), ("S5", 3), ("S5", 5), ("S6", 5),
])
def test_order_p_class_dropped(name, p):
    """The class of order-p subgroups is G's only one here, so no larger
    subgroup needs it and the commuting poset builds, empty.  The oracle's
    graph still has every vertex; the check counts G's elements of order p
    instead, and stops before any clique is walked."""
    ctx, geom = without_class(name, p, lambda _k, r: r == 1)
    new, old = both(ctx, geom)
    assert new["status"] == old["status"] == "fail"
    assert new["witnesses"] == old["witnesses"] \
        == ["vertex missing from the block poset"]
    old["details"].pop("cliques")
    assert new["details"] == old["details"]


@pytest.mark.parametrize("name, p", [
    ("S4", 2), ("S5", 2), ("S6", 3), ("D8", 2),
])
def test_rank_two_class_dropped(name, p):
    """Each rank-2 class taken out in turn: the walk cuts the cliques that
    generate its members, and the oracle finds no pair at their product.
    No rank-3 subgroup holds them here, so the commuting poset builds."""
    picks = [k for k, (R, _orbit) in enumerate(group_context(name, p).classes)
             if rank(R, p) == 2]
    assert picks
    for pick in picks:
        ctx, geom = without_class(name, p, lambda k, _r: k == pick)
        new, old = both(ctx, geom)
        assert new == old, (name, p, pick)
        assert new["witnesses"] == ["0 pairs at a product"]


def with_duplicate(geom, x):
    """geom with the commuting poset's element x duplicated just after it:
    the copy has x's kappa, pair, up-set and down-set, and is incomparable
    with x."""
    K = geom.kposet
    below_x = (2 << x) - 1

    def shift(mask):
        return mask & below_x | (mask >> (x + 1)) << (x + 2)

    up = []
    for i, mask in enumerate(up_masks(K)):
        mask = shift(mask)
        if i != x and (mask >> x) & 1:
            mask |= 1 << (x + 1)
        up.append(mask)
    up.insert(x + 1, up[x] ^ (1 << x) | 1 << (x + 1))
    elements = list(geom.elements)
    elements.insert(x + 1, elements[x])
    labels = list(K.labels)
    labels.insert(x + 1, labels[x])
    return SimpleNamespace(vertices=geom.vertices, apairs=geom.apairs,
                           elements=elements, kposet=Poset(labels, up))


@pytest.mark.parametrize("name, p", [("S5", 2), ("S6", 3)])
def test_element_duplicated_at_a_kappa(name, p):
    ctx = principal_context(group_context(name, p))
    geom = block_geometry(ctx)
    for x in (0, geom.kposet.n // 2, geom.kposet.n - 1):
        new, old = both(ctx, with_duplicate(geom, x))
        assert new == old, (name, p, x)
        assert new["status"] == "fail"
        assert new["witnesses"] == \
            [str(("size", geom.kposet.n, geom.kposet.n + 1))]


def minimal_off_representatives(K):
    """The least minimal element of K that is not its orbit's
    representative."""
    reps = set(K.orbit_representatives())
    return next(x for x in K.minimal_elements() if x not in reps)


@pytest.mark.parametrize("name, p", [("S5", 2), ("S6", 3)])
def test_orbit_elements_swapped(name, p):
    """Two elements of one orbit, neither its representative, trade places
    in the element list: each face maps to the other's row, of the same
    size, but holding elements whose vertices do not contain its own."""
    ctx = principal_context(group_context(name, p))
    geom = block_geometry(ctx)
    K = geom.kposet
    x = minimal_off_representatives(K)
    reps = set(K.orbit_representatives())
    y = next(z for z in K.orbits()[K.orbit_walk.orbit_of[x]]
             if z != x and z not in reps)
    elements = list(geom.elements)
    elements[x], elements[y] = elements[y], elements[x]
    new, old = both(ctx, SimpleNamespace(
        vertices=geom.vertices, apairs=geom.apairs, elements=elements,
        kposet=K))
    assert new == old, (name, p, x, y)
    assert new["status"] == "fail"
    assert new["witnesses"][0].startswith("('order', ")


@pytest.mark.parametrize("name, p", [("S5", 2), ("S6", 3)])
def test_covering_relation_dropped(name, p):
    """One covering relation x < y left out of the row of a minimal x
    that is not a representative, and K rebuilt without its action: x's
    row holds only elements above its face, but one too few."""
    ctx = principal_context(group_context(name, p))
    geom = block_geometry(ctx)
    K = geom.kposet
    x = minimal_off_representatives(K)
    y = next(j for i, j in K.covering_pairs() if i == x)
    up = up_masks(K)
    up[x] ^= 1 << y
    new, old = both(ctx, SimpleNamespace(
        vertices=geom.vertices, apairs=geom.apairs, elements=geom.elements,
        kposet=Poset(K.labels, up)))
    assert new == old, (name, p, x, y)
    assert new["status"] == "fail"
    assert new["witnesses"][0].startswith("('order', ")


@pytest.mark.slow
def test_s7_p2_principal_peak_memory(tmp_path):
    """S7 p=2 principal, principal-clique alone, in a fresh process: 231
    vertices and 23,051 faces.  Its peak resident memory must stay under
    60 MB; it was 108 MB with one permutation closure per face and a
    |faces|-bit mask per face.  The peak is not asserted in development
    mode, whose debug allocator hooks add to it, nor where the kernel does
    not report it."""
    out = tmp_path / "report.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src)
    child = subprocess.run(
        [sys.executable, "-c", PEAK_CHILD, "verify", "--group", "S7",
         "--prime", "2", "--block", "principal", "--checks",
         "principal-clique", "--out", str(out)],
        env=env, capture_output=True, text=True, check=True)
    code, peak_kb = child.stdout.split()
    assert code == "0"
    report = out.read_text()
    assert '"status": "pass"' in report
    assert '"graph_vertices": 231' in report and '"cliques": 23051' in report
    if sys.flags.dev_mode or peak_kb == "none":
        pytest.skip("peak resident memory not measured here")
    assert int(peak_kb) / 1024 < 60
