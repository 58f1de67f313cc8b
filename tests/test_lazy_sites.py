"""Centralizer algebras only where the block has pairs.

A BlockContext reads Br_R(b) on C_G(R) alone at a class representative R
and builds R's site (the algebra Z(kC_G(R)) and the blocks of kC_G(R))
only when that image is nonzero.  FusionSystem.target reads no idempotent
where the image subgroup holds a single pair, since (Q, e)^g is a pair
there.  Both shortcuts are held against the paths they replace
(oracles.brauer_image_at_site, oracles.target_by_idempotents), and the
algebras and sites that the default checks build are counted.
"""

import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, PRESETS, build_group
from blockposets.commuting import block_geometry
from blockposets.fusion import FusionSystem
from blockposets.gf import field_context
from blockposets.perms import symmetric_group
from blockposets.verify import DEFAULT_CHECKS, check_theorem2, run_block_checks

from oracles import (brauer_image_at_site, every_conjugate,
                     target_by_idempotents)
from test_subpairs import order_24_block

# (group, primes dividing its order)
BRAUER_CASES = [("S3", (2, 3)), ("S4", (2, 3)), ("S5", (2, 3, 5)),
                ("S6", (2, 3, 5)), ("S7", (2, 3, 5, 7)), ("D8", (2,))]
# every conjugate is checked on these, the class representatives elsewhere
SMALL = ("S3", "S4", "S5", "D8")


@pytest.mark.parametrize("name, primes", BRAUER_CASES,
                         ids=[name for name, _primes in BRAUER_CASES])
def test_brauer_image_on_the_centralizer_matches_the_site(name, primes):
    G = build_group(PRESETS[name])
    checked = 0
    for p in primes:
        group = GroupContext(G, field_context(p))
        subgroups = every_conjugate(G, group.classes) if name in SMALL \
            else [R for R, _orbit in group.classes]
        for b in group.blocks:
            ctx = BlockContext(group, b)
            images = [ctx.brauer_image(Q) for Q in subgroups]
            for Q, image in zip(subgroups, images):
                assert image == brauer_image_at_site(ctx, Q), (p, Q.label)
                checked += bool(image)
    assert checked > 0


def shortcut_targets():
    """(name, BlockContext): every block of the corpus, both blocks of S6
    at p = 2, the blocks of S7 at p = 3 and block 0 of the order-24 group
    over GF(4)."""
    for entry in CORPUS:
        group = GroupContext(build_group(entry.spec),
                             field_context(entry.p, entry.d))
        for b in group.blocks:
            if entry.selector == "all" or not b.principal:
                yield f"{entry.name}/{b.index}", BlockContext(group, b)
    for n, p in ((6, 2), (7, 3)):
        group = GroupContext(symmetric_group(n), field_context(p))
        for b in group.blocks:
            yield f"S{n}_p{p}/{b.index}", BlockContext(group, b)
    yield "G24_GF4/0", order_24_block()


def test_one_pair_shortcut_matches_the_idempotent_test(monkeypatch):
    """Every coset that the hom scans and theorem2's scans test, and every
    step that theorem2 carries, gets the same answer from target as from
    the full idempotent comparison."""
    target = FusionSystem.target
    counts = {"shortcut": 0, "compared": 0}

    def checked(fs, pair, image, g, ginv):
        out = target(fs, pair, image, g, ginv)
        assert out is target_by_idempotents(fs, pair, image, g, ginv)
        key = tuple(sorted(image.values()))
        if key in fs.sub_pair:
            counts["compared" if key in fs._shared else "shortcut"] += 1
        return out

    monkeypatch.setattr(FusionSystem, "target", checked)
    names = []
    for name, ctx in shortcut_targets():
        fs = FusionSystem.from_block_context(ctx)
        for Q in fs.family:
            fs.hom(Q, fs.P)
        assert check_theorem2(ctx, block_geometry(ctx)).status == "pass"
        names.append(name)
    assert len(names) == 14
    # the order-24 block holds two pairs at some subgroups of its defect
    # group, so both branches of target are reached
    assert counts["shortcut"] > 0 and counts["compared"] > 0


@pytest.mark.parametrize("n, principal, checks, algebras, sites", [
    (7, False, DEFAULT_CHECKS, 7, 24),   # 19 and 281 built every class
    (8, False, DEFAULT_CHECKS, 2, 2),    # 109 and 136
    (6, True, ("theorem1", "nonclique"), 10, 64),
], ids=["S7-nonprincipal", "S8-nonprincipal", "S6-principal"])
def test_algebras_and_sites_built(n, principal, checks, algebras, sites):
    """Centralizer algebras (GroupContext._centers) and sites built by the
    checks of one block at p = 2."""
    group = GroupContext(symmetric_group(n), field_context(2))
    (b,) = [b for b in group.blocks if b.principal == principal]
    results = run_block_checks(group, b, checks)
    assert [r.status for r in results] == ["pass"] * len(checks)
    assert len(group._centers) == algebras
    assert len(group._sites) == sites
