"""Commuting posets of p-blocks and fusion-system commuting categories.

Exact computation, for small finite permutation groups, of:

* blocks of the group algebra over GF(p^d) and their defect groups,
* Brauer pairs with the normal-containment order,
* the poset of pairs with elementary abelian first component and the
  commuting poset of a block, with the order-preserving maps between them,
* integral simplicial homology of order complexes,
* block fusion systems, their commuting categories, and the induced
  isomorphism-class posets.

See the README for the command line interface and the verification suites.
"""

__version__ = "0.1.0"

from .perms import (                                        # noqa: F401
    Permutation,
    PermGroup,
    centralizer,
    conjugacy_classes,
    dihedral_group,
    p_subgroups_up_to_conjugacy,
    sylow_p,
    symmetric_group,
)
from .gf import field_context                               # noqa: F401
from .blocks import (                                       # noqa: F401
    Block,
    GroupAlgebraElement,
    blocks,
    class_sum_algebra,
    primitive_idempotents,
)
from .brauer import (                                       # noqa: F401
    BlockContext,
    BrauerPair,
    GroupContext,
)
from .commuting import (                                    # noqa: F401
    block_geometry,
    clique_witness,
    elementary_abelian_poset,
    product_subgroup,
)
from .topology import (                                     # noqa: F401
    Poset,
    SimplicialComplex,
    homology,
    orbit_poset,
    order_complex,
    poset_iso_check,
    quillen_pair_check,
    smith_normal_form,
)
from .fusion import (                                       # noqa: F401
    CommutingCategory,
    FusionSystem,
    IsoClassPoset,
    max_brauer_pair,
)
from .verify import run_block_checks                        # noqa: F401
