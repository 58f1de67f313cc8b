"""Subgroup orbits keyed by element positions, against the naming oracle.

`perms.subgroup_orbit_transversal` keys each G-conjugate of a subgroup by
the increasing tuple of its elements' positions in G.  The oracle names
every conjugate by the frozenset of its elements instead.  Read as element
sets, the keys must give the same conjugates in the same BFS order, with
the same g and the same links, each link's generator recovered from its
parent and child; and `GroupContext.locate` and
`_conjugate_into`, which probe the orbits with position keys, must agree
with what the named orbits say.
"""

import random

import pytest

from blockposets.brauer import GroupContext
from blockposets.cli import PRESETS, build_group
from blockposets.gf import PrimeField
from blockposets.perms import p_subgroups_up_to_conjugacy, symmetric_group

from oracles import (
    conjugate_subgroup,
    element_set,
    links_with_generators,
    subgroup_orbit_transversal,
)


def relabelled(n, seed):
    """S_n as a generators spec, its points renamed by a seeded shuffle."""
    image = list(range(1, n + 1))
    random.Random(seed).shuffle(image)
    gens = [[[1, 2]], [list(range(1, n + 1))]]
    return {"type": "generators", "degree": n,
            "gens": [[[image[x - 1] for x in cycle] for cycle in gen]
                     for gen in gens]}


CASES = [(PRESETS[f"S{n}"], p) for n in (4, 5, 6, 7) for p in (2, 3)]
CASES += [(PRESETS["D8"], 2), (relabelled(6, 11), 2), (relabelled(5, 12), 3)]
CASE_IDS = [f"S{n}-p{p}" for n in (4, 5, 6, 7) for p in (2, 3)]
CASE_IDS += ["D8-p2", "relabelled-S6-p2", "relabelled-S5-p3"]


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def case(request):
    spec, p = request.param
    group = GroupContext(build_group(spec), PrimeField(p))
    named = [subgroup_orbit_transversal(group.G, R)
             for R, _orbit in group.classes]
    return group, named


def test_orbits_match_the_named_oracle(case):
    group, named = case
    G = group.G
    index = G.element_index()
    assert [R for R, _orbit in group.classes] == \
        [R for R, _orbit in p_subgroups_up_to_conjugacy(G, group.p)]
    for (R, orbit), oracle in zip(group.classes, named):
        # the same conjugates in the same BFS order, with the same g
        assert [(element_set(G, key), g) for key, g in orbit.items()] == \
            list(oracle.items())
        for key, g in orbit.items():
            assert type(key) is tuple and list(key) == sorted(set(key))
            assert g is G.elements[index.pos[g]]      # G's own element
        # the same links, in the same order, on the orbit's own keys, with
        # the generator the oracle's BFS recorded: the first that carries
        # the parent to the child, found by products and by the index
        recovered = links_with_generators(G, orbit)
        assert [(element_set(G, child), (element_set(G, parent), t))
                for child, (parent, t) in recovered.items()] == \
            list(oracle.links.items())
        assert all(index.generator_between(parent, child) == t
                   for child, (parent, t) in recovered.items())
        keys = {id(key) for key in orbit}
        assert all(id(child) in keys and id(parent) in keys
                   for child, parent in orbit.links.items())
        assert next(iter(orbit)) == index.key(R)


def test_locate_agrees_with_the_named_oracle(case):
    group, named = case
    for i, ((R, _orbit), oracle) in enumerate(zip(group.classes, named)):
        for elems, g in oracle.items():
            Q = conjugate_subgroup(R, g)
            assert Q.element_set == elems
            assert group.locate(Q) == (i, g)


def test_conjugate_into_agrees_with_the_named_oracle(case):
    group, named = case
    reps = [R for R, _orbit in group.classes]
    for i, oracle in enumerate(named):
        for T in reps:
            expect = (reps[i].order <= T.order
                      and any(elems <= T.element_set for elems in oracle))
            assert group._conjugate_into(i, T) == expect, (i, T.label)


def test_locate_refuses_a_subgroup_of_another_group():
    group = GroupContext(symmetric_group(4), PrimeField(2))
    outside = p_subgroups_up_to_conjugacy(symmetric_group(5), 2)[1][0]
    with pytest.raises(ValueError, match="not a 2-subgroup"):
        group.locate(outside)
