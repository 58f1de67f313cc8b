"""Subgroup orbits keyed by element positions, against the naming oracle.

`perms.subgroup_orbit_transversal` keys each G-conjugate of a subgroup by
the increasing tuple of its elements' positions in G, and records for each
the generator that reached it and its parent's key: a Schreier vector.  The
oracle names every conjugate by the frozenset of its elements instead, with
one g per conjugate and (parent, t) per link.  Read as element sets, the
keys must give the same conjugates in the same BFS order, with the same
links and generators, and the generators along each key's links must
compose, by permutation products, to the oracle's g with R^g = Q; and
`GroupContext.locate` and `_conjugate_into`, which probe the orbits with
position keys, must agree with what the named orbits say.
"""

import pytest

from blockposets.brauer import GroupContext
from blockposets.cli import PRESETS, build_group
from blockposets.gf import PrimeField
from blockposets.perms import p_subgroups_up_to_conjugacy, symmetric_group

from oracles import (
    conjugate_subgroup,
    element_set,
    relabelled_symmetric,
    subgroup_orbit_transversal,
    transversal_element,
)

CASES = [(PRESETS[f"S{n}"], p) for n in (4, 5, 6, 7) for p in (2, 3)]
CASES += [(PRESETS["D8"], 2), (relabelled_symmetric(6, 11), 2),
          (relabelled_symmetric(5, 12), 3)]
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
        # the same conjugates in the same BFS order, each with the g that
        # its recorded generators compose to, and R^g is the conjugate
        composed = [(key, transversal_element(G, orbit, key))
                    for key in orbit]
        assert [(element_set(G, key), g) for key, g in composed] == \
            list(oracle.items())
        for key, g in composed:
            assert type(key) is tuple and list(key) == sorted(set(key))
            assert conjugate_subgroup(R, g).element_set == \
                element_set(G, key)
        # the same links, in the same order, on the orbit's own keys, with
        # the generator the oracle's BFS recorded
        assert [(element_set(G, child), (element_set(G, parent), orbit[child]))
                for child, parent in orbit.links.items()] == \
            list(oracle.links.items())
        keys = {id(key) for key in orbit}
        assert all(id(child) in keys and id(parent) in keys
                   for child, parent in orbit.links.items())
        assert next(iter(orbit.items())) == (index.key(R), -1)


def test_locate_agrees_with_the_named_oracle(case):
    group, named = case
    for i, ((R, _orbit), oracle) in enumerate(zip(group.classes, named)):
        for elems, g in oracle.items():
            Q = conjugate_subgroup(R, g)
            assert Q.element_set == elems
            assert group.locate(Q) == i


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
