"""The per-group context: one GroupContext shared by every block of a group.

The oracle for sharing is a fresh GroupContext per block: whatever one block
builds in the shared context (sites, orbits, centralizer blocks) must not
change what another block reads from it, in either query order.
"""

import pytest

from blockposets import brauer, perms
from blockposets.blocks import GroupAlgebraElement
from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import PRESETS, build_group, main
from blockposets.errors import TheoryViolation
from blockposets.gf import PrimeField
from blockposets.perms import (
    PermGroup,
    Permutation,
    centralizer,
    symmetric_group,
)

from oracles import (
    conjugate_element,
    conjugate_subgroup,
    element_set,
    every_conjugate,
    transversal_element,
)

# (group, p, number of blocks)
CASES = [("S4", 2, 1), ("S5", 2, 2), ("D8", 2, 1), ("S6", 2, 2), ("S7", 3, 3)]


def summary(ctx, subgroups):
    """What a block context answers: pairs everywhere, defect, principal type."""
    pairs = [frozenset(pr.ident() for pr in ctx.pairs_at(Q)) for Q in subgroups]
    dd = ctx.defect_data()
    ok, outcomes, first_failure = ctx.principal_type()
    return (pairs,
            (dd.representative.element_set, dd.order, dd.fingerprint,
             dd.num_conjugates),
            (ok, [(Q.element_set, o) for Q, o in outcomes],
             None if first_failure is None else first_failure.element_set))


class TestSharedAgainstFresh:
    @pytest.mark.parametrize("name, p, n", CASES,
                             ids=[f"{name}-p{p}" for name, p, _n in CASES])
    def test_shared_context_matches_fresh_ones(self, name, p, n):
        G, F = build_group(PRESETS[name]), PrimeField(p)
        shared = GroupContext(G, F)
        subgroups = every_conjugate(G, shared.classes)
        assert len(shared.blocks) == n
        forward = [summary(BlockContext(shared, b), subgroups)
                   for b in shared.blocks]
        backward_group = GroupContext(G, F)
        backward = [summary(BlockContext(backward_group, b), subgroups)
                    for b in reversed(backward_group.blocks)][::-1]
        fresh = []
        for k in range(n):
            group = GroupContext(G, F)
            fresh.append(summary(BlockContext(group, group.blocks[k]),
                                 subgroups))
        assert forward == fresh
        assert backward == fresh


class TestLookup:
    def test_locate_gives_the_class(self):
        group = GroupContext(symmetric_group(4), PrimeField(2))
        G = group.G
        for i, (R, orbit) in enumerate(group.classes):
            for key in orbit:
                Q = conjugate_subgroup(R, transversal_element(G, orbit, key))
                assert Q.element_set == element_set(G, key)
                assert group.locate(Q) == i

    def test_non_p_subgroup_raises_value_error(self):
        G = symmetric_group(4)
        group = GroupContext(G, PrimeField(2))
        three = PermGroup.from_generators(
            4, [Permutation.from_cycles(4, [[1, 2, 3]])])
        with pytest.raises(ValueError, match="not a 2-subgroup"):
            group.locate(three)
        ctx = BlockContext(group, group.blocks[0])
        with pytest.raises(ValueError, match="not a 2-subgroup"):
            ctx.pairs_at(three)

    def test_block_of_another_group_is_rejected(self):
        F = PrimeField(2)
        group = GroupContext(symmetric_group(3), F)
        other = GroupContext(symmetric_group(3), F)
        with pytest.raises(ValueError):
            BlockContext(group, other.blocks[0])


class TestGroupWorkDoneOnce:
    def test_s7_p3_orbits_and_centralizers_once_per_class(
            self, monkeypatch, tmp_path):
        calls = {"orbit": 0, "centralizer": 0}
        classes = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def recorded(G, p):
            out = p_subgroups(G, p)
            classes.append(len(out))
            return out

        p_subgroups = perms.p_subgroups_up_to_conjugacy
        monkeypatch.setattr(perms, "subgroup_orbit_transversal",
                            counted("orbit", perms.subgroup_orbit_transversal))
        monkeypatch.setattr(brauer, "centralizer",
                            counted("centralizer", brauer.centralizer))
        monkeypatch.setattr(brauer, "p_subgroups_up_to_conjugacy", recorded)
        rc = main(["verify", "--group", "S7", "--prime", "3",
                   "--out", str(tmp_path / "s7p3.json")])
        assert rc == 0
        # one class list for the three blocks: 1, <(123)>, <(123)(456)>, 3^2
        assert classes == [4]
        assert calls["orbit"] == 4
        # the trivial class's site is kG itself; the other three once each
        assert calls["centralizer"] == 3


# -- sites carried down the orbit tree -------------------------------------


def site_by_conjugation(site, g):
    """(subgroup, centralizer, blocks) at Q^g, conjugating the site at Q
    element by element (the replaced _Site.conjugate)."""
    return (conjugate_subgroup(site.subgroup, g),
            conjugate_subgroup(site.centralizer, g),
            [conjugate_element(e, g) for e in site.blocks])


def same_group(H, K):
    return (H.elements == K.elements and H.generators == K.generators
            and H.label == K.label)


def carries(G, parent, t, child):
    """Does the t-th generator of G conjugate the subgroup keyed parent
    onto the one keyed child?"""
    s = G.generators[t]
    return frozenset(x.conjugate(s) for x in element_set(G, parent)) == \
        element_set(G, child)


TREE_CASES = [("S5", 2), ("S6", 2), ("S7", 3)]


class TestSitesOnTheOrbitTree:
    @pytest.mark.parametrize("name, p", TREE_CASES,
                             ids=[f"{name}-p{p}" for name, p in TREE_CASES])
    def test_carried_sites_match_conjugated_ones(self, name, p):
        group = GroupContext(build_group(PRESETS[name]), PrimeField(p))
        carried = 0
        for i, (R, orbit) in enumerate(group.classes):
            rep = group._site(R)
            assert rep.subgroup is R and rep.index == i
            # the last conjugates first: their walks up the tree are longest
            for key in reversed(list(orbit)):
                Q, C, block_list = site_by_conjugation(
                    rep, transversal_element(group.G, orbit, key))
                site = group._site(Q)
                assert site.index == i
                assert site.subgroup.element_set == element_set(group.G, key)
                assert same_group(site.subgroup, Q), (name, i)
                assert same_group(site.centralizer, C), (name, i)
                assert [list(e.support.items()) for e in site.blocks] == \
                    [list(e.support.items()) for e in block_list], (name, i)
                carried += 1
        assert carried == len(group._sites)

    @pytest.mark.parametrize("name, p", [("S5", 2), ("S6", 3)])
    def test_conjugates_match_conjugated_representatives(self, name, p):
        group = GroupContext(build_group(PRESETS[name]), PrimeField(p))
        for i, (R, orbit) in enumerate(group.classes):
            got = group.conjugates(i)
            assert len(got) == len(orbit)
            for Q, key in zip(got, orbit):
                g = transversal_element(group.G, orbit, key)
                assert same_group(Q, conjugate_subgroup(R, g))

    @pytest.mark.parametrize("name, p", TREE_CASES,
                             ids=[f"{name}-p{p}" for name, p in TREE_CASES])
    def test_wrong_recorded_generator_is_caught(self, name, p):
        # in the longest orbit, the last conjugate that the other of G's two
        # generators does not reach from its parent records that generator
        group = GroupContext(build_group(PRESETS[name]), PrimeField(p))
        R, orbit = max(group.classes, key=lambda c: len(c[1]))
        key = next(k for k in reversed(orbit) if k in orbit.links and
                   not carries(group.G, orbit.links[k], 1 - orbit[k], k))
        orbit[key] = 1 - orbit[key]
        with pytest.raises(TheoryViolation, match="does not carry"):
            group.conjugates(group.locate(R))

    @pytest.mark.parametrize("name, p", TREE_CASES,
                             ids=[f"{name}-p{p}" for name, p in TREE_CASES])
    def test_wrong_parent_link_is_caught(self, name, p):
        # in the longest orbit, the last conjugate that its generator does
        # not reach from the orbit's root links to the root
        group = GroupContext(build_group(PRESETS[name]), PrimeField(p))
        R, orbit = max(group.classes, key=lambda c: len(c[1]))
        root = next(iter(orbit))
        key = next(k for k in reversed(orbit) if k in orbit.links and
                   not carries(group.G, root, orbit[k], k))
        orbit.links[key] = root
        with pytest.raises(TheoryViolation, match="does not carry"):
            group.conjugates(group.locate(R))

    def test_non_central_block_at_a_representative_is_rejected(
            self, monkeypatch):
        G, F = symmetric_group(5), PrimeField(2)
        plain = brauer.blocks

        def moved(C, field, algebra):
            # move one coefficient of a block of a proper centralizer C off
            # its C-class; the blocks of kG itself stay as they are
            out = plain(C, field, algebra=algebra)
            if C is G:
                return out
            e = out[0].element
            x = next(y for y in e.support if any(
                y.conjugate(c) != y for c in C.generators))
            z = next(y for y in C.elements if y not in e.support)
            support = dict(e.support)
            support[z] = support.pop(x)
            out[0].element = GroupAlgebraElement(C, field, support)
            return out

        monkeypatch.setattr(brauer, "blocks", moved)
        group = GroupContext(G, F)
        R = next(R for R, _orbit in group.classes
                 if R.order > 1 and not centralizer(G, R).is_abelian())
        with pytest.raises(TheoryViolation, match="not fixed by"):
            BlockContext(group, group.blocks[0]).pairs_at(R)
