"""The p-subgroup classes of S7 at p=2 stay lean in memory.

GroupContext.classes keeps one SubgroupOrbit per class, each conjugate keyed
by the increasing tuple of its elements' positions in G and mapped to the
index of the generator that reached it, and locate probes those orbits with
the key of the subgroup asked about.  The 19 classes hold
3,417 subgroups.  Traced and retained after the class list and a locate of
each representative, they took 2.48 MB when every conjugate was named by a
frozenset of its elements and locate kept a dict over all of them, and
0.76 MB with position keys (CPython 3.11); the bound sits halfway between
the two.  Now that each orbit link holds only its parent's key, they take
0.56 MB, as they do with a small int per conjugate in place of an element
of G.
"""

import gc
import tracemalloc

from blockposets.brauer import GroupContext
from blockposets.gf import field_context
from blockposets.perms import symmetric_group

RETAINED_BOUND_MB = 1.62


def test_s7_p2_classes_and_locate_retained():
    group = GroupContext(symmetric_group(7), field_context(2, 1))
    gc.collect()
    tracemalloc.start()
    try:
        classes = group.classes
        for i, (R, _orbit) in enumerate(classes):
            assert group.locate(R) == i
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes) == 19
    assert sum(len(orbit) for _R, orbit in classes) == 3417
    assert retained / 1e6 < RETAINED_BOUND_MB, \
        f"retained {retained / 1e6:.2f} MB"
