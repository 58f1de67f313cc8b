"""Differential tests of the set-bit poset kernel against the loops it replaced.

The oracles below are the bit-by-bit shift loop, the pairwise order test of
the commuting poset, the clique DFS over explicit candidate masks and the
cover search over the sets of minimal elements below each element.
"""

import random

import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group, select_blocks
from blockposets.commuting import (
    block_geometry,
    iter_cliques,
    uncovered_minimal_clique,
)
from blockposets.gf import field_context
from blockposets.perms import symmetric_group
from blockposets.topology import Poset, iter_bits

from oracles import closure_masks, commuting_graph, down_masks, up_masks


def shift_loop_bits(mask):
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def pairwise_up_masks(geom):
    elements = [(frozenset(iter_bits(kmask)), pid)
                for kmask, pid in geom.elements]
    up = [0] * len(elements)
    for i, (ki, pi) in enumerate(elements):
        for j, (kj, pj) in enumerate(elements):
            if ki <= kj and geom.aposet.leq(pi, pj):
                up[i] |= 1 << j
    return up


def recursive_cliques(adj):
    out = []

    def extend(clique, candidates):
        m = candidates
        v = 0
        while m:
            if m & 1:
                c2 = clique + (v,)
                out.append(c2)
                extend(c2, (candidates & ~((1 << (v + 1)) - 1)) & adj[v])
            m >>= 1
            v += 1

    extend((), (1 << len(adj)) - 1)
    return out


def min_sets_scan(poset):
    """First uncovered clique (>= 3) of minimal elements, by subset tests."""
    minimal = poset.minimal_elements()
    down = down_masks(up_masks(poset))
    pos = {m: t for t, m in enumerate(minimal)}
    min_sets = [frozenset(pos[m] for m in minimal if (down[i] >> m) & 1)
                for i in range(poset.n)]
    gadj = [0] * len(minimal)
    for ms in min_sets:
        for a in ms:
            for b in ms:
                if a != b:
                    gadj[a] |= 1 << b
    for clique in recursive_cliques(gadj):
        if len(clique) >= 3 and not any(frozenset(clique) <= ms
                                        for ms in min_sets):
            return tuple(minimal[t] for t in clique)
    return None


def corpus_geometries():
    for entry in CORPUS:
        if entry.slow:
            continue
        G = build_group(entry.spec)
        F = field_context(entry.p, entry.d)
        group = GroupContext(G, F)
        for b in group.blocks:
            yield (f"{entry.name}/{b.index}",
                   block_geometry(BlockContext(group, b)))


@pytest.fixture(scope="module")
def geometries():
    return list(corpus_geometries())


class TestIterBits:
    def test_matches_shift_loop(self):
        rng = random.Random(20111)
        masks = [0, 1, 2, 1 << 63, 1 << 64, 1 << 1000, (1 << 1000) | 1,
                 (1 << 200) - 1]
        masks += [rng.getrandbits(bits) for bits in (65, 130, 1000, 5000)
                  for _ in range(5)]
        for mask in masks:
            assert list(iter_bits(mask)) == shift_loop_bits(mask), mask


def slow_and_s6_geometries():
    """The corpus blocks that only --slow runs, and both S6 p=2 blocks."""
    for entry in CORPUS:
        if entry.slow:
            group = GroupContext(build_group(entry.spec),
                                 field_context(entry.p, entry.d))
            for b in select_blocks(group.blocks, entry.selector):
                yield (f"{entry.name}/{b.index}",
                       block_geometry(BlockContext(group, b)))
    group = GroupContext(symmetric_group(6), field_context(2))
    for b in group.blocks:
        yield f"S6_p2/{b.index}", block_geometry(BlockContext(group, b))


class TestBlockGeometryOrder:
    def test_up_masks_match_pairwise_test(self, geometries):
        assert len(geometries) == 7
        for name, geom in geometries:
            assert up_masks(geom.kposet) == pairwise_up_masks(geom), name

    def test_elements_arrive_in_key_order(self, geometries):
        # the clique walk yields the commuting poset's elements already in
        # the order a sort by (sorted kappa, pair index) would give them
        checked = geometries + list(slow_and_s6_geometries())
        assert len(checked) == 7 + 1 + 2  # corpus, S7 nonprincipal, S6 p=2
        for name, geom in checked:
            assert geom.elements == sorted(
                geom.elements, key=lambda ke: (iter_bits(ke[0]), ke[1])), name


class TestCliqueEnumerator:
    def test_same_cliques_in_same_order(self):
        for n in (3, 4, 5):
            adj = commuting_graph(symmetric_group(n), 2).adjacency
            cliques = [c for c, _ in iter_cliques(adj)]
            assert cliques == recursive_cliques(adj), n

    def test_prune_drops_supersets(self):
        complete = [0b1110, 0b1101, 0b1011, 0b0111]
        no_vertex_1 = [c for c, _ in iter_cliques(
            complete, lambda state, v: None if v == 1 else state)]
        assert no_vertex_1 == [c for c in recursive_cliques(complete)
                               if 1 not in c]


def hand_poset(covers):
    """Three minimal elements 0, 1, 2 and three elements above them."""
    return Poset([str(i) for i in range(6)], closure_masks(6, covers))


class TestCoverSearch:
    def test_obstruction_found(self):
        # 3 = {0,1}, 4 = {1,2}, 5 = {0,2}: pairwise bounded, no common bound
        P = hand_poset([(0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)])
        assert min_sets_scan(P) == (0, 1, 2)
        assert uncovered_minimal_clique(P) == (0, 1, 2)

    def test_no_obstruction(self):
        # 3 = {0,1}, 4 = {1,2}, 5 above both: 5 bounds all three
        P = hand_poset([(0, 3), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
        assert min_sets_scan(P) is None
        assert uncovered_minimal_clique(P) is None

    def test_corpus_posets_agree(self, geometries):
        for name, geom in geometries:
            assert uncovered_minimal_clique(geom.kposet) \
                == min_sets_scan(geom.kposet), name
