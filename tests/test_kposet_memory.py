"""The commuting poset of S6 at p=2, principal block, stays lean in memory.

K keeps each kappa as a mask of vertex ids, formats its labels when they
are read and certifies its order on up-set rows held as array('i').  The
traced peak of one block_geometry build on a warm GroupContext was 6.51 MB
with frozenset kappas, eager labels and list rows, and is 2.64 MB now
(CPython 3.11); the bound sits halfway between the two.
"""

import gc
import tracemalloc

from blockposets.brauer import BlockContext, GroupContext
from blockposets.commuting import block_geometry
from blockposets.gf import field_context
from blockposets.perms import symmetric_group

PEAK_BOUND_MB = 4.58


def test_s6_p2_principal_geometry_peak():
    group = GroupContext(symmetric_group(6), field_context(2, 1))
    (principal,) = [b for b in group.blocks if b.principal]
    # warm the group's tables: classes, sites, element index
    block_geometry(BlockContext(group, principal))
    gc.collect()
    tracemalloc.start()
    try:
        geom = block_geometry(BlockContext(group, principal))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert geom.kposet.n == 3495
    assert peak / 1e6 < PEAK_BOUND_MB, f"traced peak {peak / 1e6:.2f} MB"
