"""Differential tests of the coset scans against the element scans they
replaced.

Conjugation by g acts on a p-subgroup Q, and on a block of kC_G(Q), only
through the right coset C_G(Q) g.  The library therefore scans one g per
coset.  The oracles below know nothing of that: the cosets are built from
the centralizer by products, and the stability verdicts come from
conjugating the whole idempotent by every generator.
"""

import pytest

from blockposets.brauer import BlockContext, BrauerPair, GroupContext
from blockposets.cli import CORPUS, PRESETS, build_group
from blockposets.commuting import block_geometry
from blockposets.fusion import FusionSystem
from blockposets.gf import field_context
from blockposets.perms import (
    PermGroup,
    Permutation,
    all_subgroups,
    p_subgroups_up_to_conjugacy,
    sylow_p,
    symmetric_group,
)

from oracles import (
    algebra_product,
    centralizer,
    conjugate_element,
    is_fixed_by,
)


def coset_firsts_by_products(G, xs, target):
    """The first g of each right coset C_G(xs) g sending xs into target,
    with the cosets built by products."""
    C = [c for c in G.elements if all(c * x == x * c for x in xs)]
    covered = set()
    out = []
    for g in G.elements:
        if g in covered:
            continue
        covered.update(c * g for c in C)
        ginv = g.inverse()
        if all(ginv * x * g in target for x in xs):
            out.append(g)
    return out


class TestCosetConjugators:
    @pytest.mark.parametrize("name", ["S5", "S6"])
    def test_match_cosets_of_the_centralizer(self, name):
        G = build_group(PRESETS[name])
        index = G.element_index()
        checked = multi = 0
        for p in (2, 3):
            P = sylow_p(G, p)
            cases = [(Q, P.element_set) for Q in all_subgroups(P)]
            cases += [(R, G.element_set)
                      for R, _orbit in p_subgroups_up_to_conjugacy(G, p)]
            for Q, target in cases:
                got = index.coset_conjugators(Q.generators, target)
                assert got == coset_firsts_by_products(G, Q.generators,
                                                       target), \
                    (name, p, Q.label)
                checked += 1
                multi += len(Q.generators) > 1
        assert checked > 15 and multi > 3

    def test_one_coset_per_map_of_the_generators(self):
        G = symmetric_group(5)
        P = sylow_p(G, 2)
        index = G.element_index()
        for Q in all_subgroups(P):
            firsts = index.coset_conjugators(Q.generators, P.element_set)
            maps = [tuple(x.conjugate(g) for x in Q.generators)
                    for g in firsts]
            assert len(set(maps)) == len(maps)
            every = index.conjugators(Q.generators, P.element_set)
            assert {tuple(x.conjugate(g) for x in Q.generators)
                    for g in every} == set(maps)


class TestConjugatesTo:
    def test_same_verdict_as_building_the_conjugate(self):
        G = symmetric_group(5)
        group = GroupContext(G, field_context(3))
        elements = []
        for R, _orbit in group.classes:
            elements.extend(group._site(R).blocks)
        elements.extend(b.element for b in group.blocks)
        seen = {True: 0, False: 0}
        for e in elements:
            for f in elements:
                for g in G.elements:
                    verdict = e.conjugates_to(g, g.inverse(), f)
                    assert verdict == (conjugate_element(e, g) == f)
                    seen[verdict] += 1
        assert seen[True] and seen[False]


# -- R-stability in normal containment ------------------------------------


def stable_by_conjugation(lo, hi):
    """None unless Q is normal in R; else whether e is fixed by R, found by
    conjugating e by every generator of R."""
    Q, R = lo.subgroup, hi.subgroup
    if not Q.element_set <= R.element_set:
        return None
    if any(x.conjugate(r) not in Q.element_set
           for r in R.generators for x in Q.generators):
        return None
    e = lo.idempotent
    stable = all(conjugate_element(e, r) == e for r in R.generators)
    assert is_fixed_by(e, R.generators) == stable
    return stable


def normal_containment_by_conjugation(lo, hi, C):
    """The verdict from stable_by_conjugation and Br_R(e) f = f as a
    product over permutations, C = C_G(R)."""
    if not stable_by_conjugation(lo, hi):
        return False
    br = lo.idempotent.truncate(C.elements)
    return algebra_product(br, hi.idempotent) == hi.idempotent


def contexts():
    groups = [(entry.name, build_group(entry.spec),
               field_context(entry.p, entry.d))
              for entry in CORPUS if not entry.slow]
    groups.append(("S6-p2", symmetric_group(6), field_context(2)))
    for name, G, F in groups:
        group = GroupContext(G, F)
        for b in group.blocks:
            yield f"{name}/{b.index}", BlockContext(group, b)


class TestNormalContainment:
    def test_every_call_matches_conjugation(self):
        calls = stable = 0
        for name, ctx in contexts():
            plain = ctx.normal_containment
            verdicts = []

            def recording(lo, hi):
                verdicts.append((lo, hi, plain(lo, hi)))
                return verdicts[-1][2]

            ctx.normal_containment = recording
            try:
                pairs = block_geometry(ctx).apairs.pairs
                FusionSystem.from_block_context(ctx)
                # A's build tests below one pair per orbit; every other
                # strictly contained pair of A is asked here
                for hi in pairs:
                    for lo in pairs:
                        if lo.subgroup.element_set < hi.subgroup.element_set:
                            recording(lo, hi)
            finally:
                del ctx.normal_containment
            centralizers = {}
            for lo, hi, verdict in verdicts:
                R = hi.subgroup
                C = centralizers.get(R.element_set)
                if C is None:
                    C = centralizers[R.element_set] = centralizer(ctx.G, R)
                assert verdict == normal_containment_by_conjugation(
                    lo, hi, C), (name, lo.label(), hi.label())
                stable += bool(stable_by_conjugation(lo, hi))
            calls += len(verdicts)
        assert calls > 1000 and stable > 100

    def test_block_moved_by_a_normalizing_generator(self):
        # C_G(Q) = Q x <x> with Q = <a, b>; r swaps a and b and inverts x,
        # so over GF(4) it swaps the two blocks of kC_G(Q) that lie over
        # the nontrivial characters of <x>.  Those two pairs at Q are not
        # R-stable, though their Brauer image at R = <a, b, r> is 1.
        def perm(*cycles):
            return Permutation.from_cycles(7, cycles)

        x, a, b = perm([1, 2, 3]), perm([4, 5]), perm([6, 7])
        r = perm([2, 3], [4, 6], [5, 7])
        G = PermGroup.from_generators(7, [x, a, b, r])
        Q = PermGroup.from_generators(7, [a, b])
        R = PermGroup.from_generators(7, [a, b, r])
        group = GroupContext(G, field_context(2, 2))
        ctx = BlockContext(group, group.blocks[0])
        lo_site, hi_site = group._site(Q), group._site(R)
        (f,) = hi_site.blocks
        hi = BrauerPair(R, f)
        stable = []
        for e in lo_site.blocks:
            lo = BrauerPair(Q, e)
            stable.append(stable_by_conjugation(lo, hi))
            assert algebra_product(
                e.truncate(hi_site.centralizer.element_set), f) == f
            assert ctx.normal_containment(lo, hi) == stable[-1]
        assert sorted(stable) == [False, False, True]
