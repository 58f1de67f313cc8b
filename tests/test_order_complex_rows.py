"""The order complex read off the up-set rows.

`topology.order_complex` extends a chain by the strict row of its last
element alone, which holds every common upper bound of the chain by
transitivity.  The oracle, `order_complex_by_masks`, carries the AND of
the strict up masks of all the chain's members, as the complex was built
before.  Both must list the same faces, dimension by dimension, on A, K
and K's orbit poset of every non-slow corpus block and of every S6 p=3
block; the random posets are compared in test_topology.py.
"""

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group, select_blocks
from blockposets.commuting import block_geometry
from blockposets.gf import field_context
from blockposets.perms import symmetric_group
from blockposets.topology import orbit_poset, order_complex

from oracles import order_complex_by_masks


def contexts():
    for entry in CORPUS:
        if entry.slow:
            continue
        group = GroupContext(build_group(entry.spec),
                             field_context(entry.p, entry.d))
        for b in select_blocks(group.blocks, entry.selector):
            yield f"{entry.name}/{b.index}", BlockContext(group, b)
    group = GroupContext(symmetric_group(6), field_context(3, 1))
    for b in group.blocks:
        yield f"S6_p3/{b.index}", BlockContext(group, b)


def test_rows_match_masks():
    posets = simplices = 0
    for name, ctx in contexts():
        geom = block_geometry(ctx)
        for P in (geom.aposet, geom.kposet, orbit_poset(geom.kposet)[0]):
            C = order_complex(P)
            assert C.faces_by_dim \
                == order_complex_by_masks(P).faces_by_dim, name
            posets += 1
            simplices += sum(C.face_counts())
    assert posets == 3 * 10
    assert simplices > 2000
