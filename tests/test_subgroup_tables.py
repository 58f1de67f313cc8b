"""Differential tests of the p-subgroup set-up against the code it replaced.

`all_subgroups` runs on P's own element index, with subgroups as bitsets
closed coset by coset, and `centralizer` walks one G-wide column and tests
the other generators inside the centralizer it found.  The oracles in
tests/oracles.py are the previous forms: one from_generators closure per
extension, and one G-wide column per generator.  Lists, their order,
generator tuples and labels must all agree.
"""

import pytest

import oracles
from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import PRESETS, build_group
from blockposets.errors import SizeLimitExceeded
from blockposets.gf import field_context
from blockposets.perms import (
    PermGroup,
    Permutation,
    all_subgroups,
    centralizer,
    conjugacy_classes,
    p_subgroups_up_to_conjugacy,
    sylow_p,
)

CASES = [("S4", 2), ("S4", 3), ("S5", 2), ("S5", 3), ("S6", 2), ("S6", 3),
         ("S7", 2), ("S7", 3), ("D8", 2)]
CASE_IDS = [f"{name}-p{p}" for name, p in CASES]


def described(groups):
    return [(H.generators, H.elements, H.label) for H in groups]


@pytest.mark.parametrize("name, p", CASES, ids=CASE_IDS)
def test_subgroups_of_sylow_and_defect_groups(name, p):
    G = build_group(PRESETS[name])
    group = GroupContext(G, field_context(p))
    tops = [sylow_p(G, p)]
    tops += [BlockContext(group, b).defect_data().representative
             for b in group.blocks]
    for P in tops:
        assert described(all_subgroups(P)) == \
            described(oracles.all_subgroups(P)), P.label


def test_subgroup_bound_is_hit_alike():
    P = sylow_p(build_group(PRESETS["S6"]), 2)
    count = len(oracles.all_subgroups(P))
    for enumerate_ in (all_subgroups, oracles.all_subgroups):
        assert len(enumerate_(P, max_count=count)) == count
        with pytest.raises(SizeLimitExceeded):
            enumerate_(P, max_count=count - 1)


@pytest.mark.parametrize("name, p", CASES, ids=CASE_IDS)
def test_centralizers_of_class_representatives(name, p):
    G = build_group(PRESETS[name])
    for R, _orbit in p_subgroups_up_to_conjugacy(G, p):
        assert described([centralizer(G, R, label="C")]) == \
            described([oracles.centralizer(G, R, label="C")]), R.label
        assert described([centralizer(G, R.elements)]) == \
            described([oracles.centralizer(G, R.elements)]), R.label


@pytest.mark.parametrize("name", ["S5", "D8"])
def test_centralizers_of_element_pairs(name):
    """Two pins that need not commute: the second is tested inside C_G(x)."""
    G = build_group(PRESETS[name])
    reps = [cls.representative for cls in conjugacy_classes(G)]
    for x in reps:
        for y in G.elements[::7]:
            assert described([centralizer(G, [x, y])]) == \
                described([oracles.centralizer(G, [x, y])])


def test_group_past_the_table_bound_is_refused_before_the_table():
    """An elementary abelian group of order 4096 would need a 4096 x 4096
    multiplication table: refused up front, as a resource bound."""
    gens = [Permutation.from_cycles(24, [[2 * k + 1, 2 * k + 2]])
            for k in range(12)]
    E = PermGroup.from_generators(24, gens)
    with pytest.raises(SizeLimitExceeded):
        all_subgroups(E)
    assert E._element_index is None
