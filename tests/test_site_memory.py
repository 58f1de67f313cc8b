"""The group-scale tables of S7 at p=2 stay lean in memory.

A GroupContext and the commuting poset of the nonprincipal block keep the
element index, the class orbits, the class-sum algebras of the centralizers
and one site per p-subgroup reached.  Traced and retained after both are
built, they took 4.04 MB when every PermGroup built the frozenset of its
elements on construction, the index tree was a list of 3-tuples, each orbit
link held (parent, t) and the structure constants were dense with a
per-element class dict, and 2.63 MB while every subgroup of the pair
poset had its site carried; the bound sits halfway between the first two.
The pair poset is now built at orbit representatives: a site is carried
only to the subgroups whose pairs are tested below a representative, and
to their ancestors on the orbit tree, 17 of them (262 before), and the
two take 1.92 MB (CPython 3.11).  A carried site's centralizer is built
from its members on request, and its element set is never built.
"""

import gc
import tracemalloc

from blockposets.brauer import BlockContext, GroupContext
from blockposets.commuting import block_geometry
from blockposets.gf import field_context
from blockposets.perms import symmetric_group

RETAINED_BOUND_MB = 3.34


def test_s7_p2_nonprincipal_context_and_geometry_retained():
    G = symmetric_group(7)
    F = field_context(2, 1)
    gc.collect()
    tracemalloc.start()
    try:
        group = GroupContext(G, F)
        (block,) = [b for b in group.blocks if not b.principal]
        geom = block_geometry(BlockContext(group, block))
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert geom.kposet.n > 0
    carried = [site for site in group._sites.values()
               if site.subgroup is not group.classes[site.index][0]]
    assert len(carried) == 17
    assert all(site.centralizer._element_set is None for site in carried)
    assert retained / 1e6 < RETAINED_BOUND_MB, \
        f"retained {retained / 1e6:.2f} MB"
