"""The commuting poset of S6 at p=2, principal block, stays lean in memory.

K keeps each kappa as a mask of vertex ids, formats its labels when they
are read and holds its order as one flat table of up-set rows, read from
masks that block_geometry streams one at a time.  The traced peak of one
block_geometry build on a warm GroupContext was 6.51 MB with frozenset
kappas, eager labels and list rows, 2.65 MB with one up mask per element
held beside array('i') rows, and is 1.42 MB now (CPython 3.11); the bound
sits halfway between the last two.
"""

import gc
import tracemalloc

from blockposets.brauer import BlockContext, GroupContext
from blockposets.commuting import block_geometry
from blockposets.gf import field_context
from blockposets.perms import symmetric_group

PEAK_BOUND_MB = 2.03


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
