"""Commuting graphs and the commuting poset of a block.

The commuting poset of a block has elements (kappa, e): kappa a nonempty set
of pairwise commuting order-p subgroups whose product has nonvanishing Brauer
image, and e a block of the centralizer of that product making the product a
pair of the block.  It maps back and forth to the poset of pairs with
nontrivial elementary abelian first component:

    expand:   (Q, e) -> (order-p subgroups of Q, e)
    collapse: (kappa, e) -> (product of kappa, e)

Cliques are enumerated depth-first in vertex order by one generator,
`iter_cliques`, with the Brauer filter applied as a prune: once the product of
a clique has zero Brauer image, every superset does too (truncations compose),
so the cut is exact.

The prune runs on the subgroup lattice of the family (every elementary
abelian subgroup with nonzero Brauer image), with no permutation product.
Each family subgroup carries the mask of the vertices inside it, and the
walk carries the product A of the clique, as a family subgroup, together
with the mask of the family subgroups holding every member.  Adding a
vertex v keeps A when v lies in A.  Otherwise v commutes with A, so
<A, v> = A x <v> has order p|A|, and it is the one family subgroup of that
order holding both; when there is none the product has zero Brauer image
and the clique is cut.

The order of the commuting poset is built from masks: the up-set of
(kappa, e) is "elements at a pair above e" ANDed with "elements whose kappa
contains v" over v in kappa.
"""

from __future__ import annotations

from .errors import SizeLimitExceeded, TheoryViolation
from .perms import PermGroup, order_p_subgroups
from .topology import GPoset, iter_bits

MAX_POSET_ELEMENTS = 100_000


class CommutingGraph:
    __slots__ = ("vertices", "adjacency")

    def __init__(self, vertices, adjacency):
        self.vertices = vertices      # order-p subgroups, canonically sorted
        self.adjacency = adjacency    # bitmask per vertex

    def edges(self):
        return [(i, j) for i, mask in enumerate(self.adjacency)
                for j in iter_bits(mask & ~((2 << i) - 1))]

    def num_edges(self):
        return len(self.edges())


def commuting_adjacency(vertices):
    """Adjacency bitmasks joining the order-p subgroups that commute elementwise.

    Two order-p subgroups commute elementwise iff their generators commute,
    and a b = b a iff b(a(k)) = a(b(k)) for every point k.
    """
    gens = [Q.generators[0] for Q in vertices]
    adjacency = [0] * len(gens)
    for i, gi in enumerate(gens):
        for j in range(i + 1, len(gens)):
            gj = gens[j]
            if [gj[k] for k in gi] == [gi[k] for k in gj]:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return adjacency


def commuting_graph(G, p):
    """All order-p subgroups of G, joined when they commute elementwise."""
    vertices = order_p_subgroups(G, p)
    return CommutingGraph(list(vertices), commuting_adjacency(vertices))


def iter_cliques(adjacency, grow=lambda state, v: state, state=True):
    """Nonempty cliques of a graph on adjacency bitmasks, depth first.

    Yields (clique, state): clique is a tuple of increasing vertex ids, and
    each clique comes before its extensions, which come in increasing order
    of the added vertex.  grow(state, v) gives the state of clique + (v,)
    from that of clique; returning None prunes that clique together with
    every clique containing it.
    """
    def walk(clique, state, candidates):
        for v in iter_bits(candidates):
            state_v = grow(state, v)
            if state_v is None:
                continue
            clique_v = clique + (v,)
            yield clique_v, state_v
            yield from walk(clique_v, state_v,
                            candidates & ~((2 << v) - 1) & adjacency[v])

    yield from walk((), state, (1 << len(adjacency)) - 1)


def product_subgroup(members, label=""):
    """The subgroup generated by a pairwise commuting family."""
    members = list(members)
    if not members:
        raise ValueError("empty family has no product")
    degree = members[0].degree
    gens = []
    for Q in members:
        gens.extend(Q.generators)
    for a in gens:
        for b in gens:
            if a * b != b * a:
                raise ValueError("family members do not commute")
    return PermGroup.from_generators(degree, gens, label=label)


def elementary_abelian_family(ctx):
    """Every nontrivial elementary abelian subgroup with nonzero Brauer image."""
    family = []
    for i, (rep, _orbit) in enumerate(ctx.group.classes):
        if rep.order == 1:
            continue
        flag, _rank = rep.is_elementary_abelian(ctx.p)
        if not flag or not ctx.brauer_nonzero(rep):
            continue
        family.extend(ctx.group.conjugates(i))
    return family


def elementary_abelian_poset(ctx):
    """The pair poset over all nontrivial elementary abelian subgroups."""
    return ctx.pair_poset(elementary_abelian_family(ctx))


class BlockGeometry:
    """The pair poset with abelian tops, the commuting poset, and their maps."""

    def __init__(self, ctx, apairs, vertices, vertex_adj, elements, kposet,
                 expand_map, collapse_map):
        self.ctx = ctx
        self.apairs = apairs          # BrauerPairPoset (elementary abelian)
        self.vertices = vertices      # order-p subgroups with Br != 0
        self.vertex_adj = vertex_adj
        self.elements = elements      # list of (frozenset vertex ids, apair idx)
        self.kposet = kposet          # GPoset on the elements
        self.expand_map = expand_map  # apairs index -> kposet index
        self.collapse_map = collapse_map  # kposet index -> apairs index

    @property
    def aposet(self):
        return self.apairs.poset


def block_geometry(ctx, max_elements=MAX_POSET_ELEMENTS):
    """Build the pair poset, the commuting poset, and the two maps."""
    apairs = elementary_abelian_poset(ctx)
    aposet = apairs.poset
    # the family: the subgroups with a pair, each with the pairs at it
    family_index = {}
    family = []
    pairs_at = []
    family_of_pair = []
    for i, pr in enumerate(apairs.pairs):
        f = family_index.setdefault(pr.subgroup.element_set, len(family))
        if f == len(family):
            family.append(pr.subgroup)
            pairs_at.append([])
        pairs_at[f].append(i)
        family_of_pair.append(f)
    # vertices: the order-p members of the family
    vertices = sorted((S for S in family if S.order == ctx.p),
                      key=PermGroup.key)
    vindex = {Q.element_set: i for i, Q in enumerate(vertices)}
    adj = commuting_adjacency(vertices)
    # the vertices inside each family subgroup, read off its elements
    identity = ctx.G.identity()
    vertex_of = {x: v for v, V in enumerate(vertices)
                 for x in V.elements if x != identity}
    vmask = []
    for S in family:
        mask = 0
        for x in S.elements:
            if x != identity:
                v = vertex_of.get(x)
                if v is None:
                    raise TheoryViolation(
                        "element of a family subgroup lies in no vertex",
                        witness=x.cycle_string())
                mask |= 1 << v
        vmask.append(mask)
    # family subgroups by order, and those containing each vertex
    of_order = {}
    holding = [0] * len(vertices)
    for f, S in enumerate(family):
        of_order[S.order] = of_order.get(S.order, 0) | 1 << f
        for v in iter_bits(vmask[f]):
            holding[v] |= 1 << f

    def brauer_prune(state, v):
        # state: (the product A as a family index, the family subgroups
        # holding every member); <A, v> is the family subgroup of order
        # p|A| holding A and v, if any
        A, above = state
        if A is not None and (vmask[A] >> v) & 1:
            return state
        above &= holding[v]
        order = ctx.p * (family[A].order if A is not None else 1)
        hit = above & of_order.get(order, 0)
        if not hit:
            return None
        if hit & (hit - 1):
            raise TheoryViolation("two family subgroups generated by a clique",
                                  witness=vertices[v].generators[0].cycle_string())
        return hit.bit_length() - 1, above

    # Cliques come in depth-first preorder of increasing tuples, which is
    # lexicographic order, and each pairs_at list is increasing: elements
    # arrive sorted by (sorted kappa, pair index).
    elements = []
    start = (None, (1 << len(family)) - 1)
    for kappa, (A, _above) in iter_cliques(adj, brauer_prune, start):
        for pid in pairs_at[A]:
            elements.append((frozenset(kappa), pid))
            if len(elements) > max_elements:
                raise SizeLimitExceeded(
                    f"commuting poset exceeded {max_elements} elements")
    kindex = {ke: i for i, ke in enumerate(elements)}
    # order: subset on kappa, pair containment on the decorations
    at_pair = [0] * aposet.n
    containing = [0] * len(vertices)
    for i, (kappa, pid) in enumerate(elements):
        bit = 1 << i
        at_pair[pid] |= bit
        for v in kappa:
            containing[v] |= bit
    above_pair = []
    for pid in range(aposet.n):
        mask = 0
        for above in iter_bits(aposet.up[pid]):
            mask |= at_pair[above]
        above_pair.append(mask)
    up = []
    for kappa, pid in elements:
        mask = above_pair[pid]
        for v in kappa:
            mask &= containing[v]
        up.append(mask)
    # action of the generators, the vertices through their conjugation tables
    action = []
    apair_action = aposet.action if isinstance(aposet, GPoset) else None
    gindex = ctx.G.element_index()
    for gi in range(len(ctx.G.generators)):
        vperm = [vindex[frozenset(gindex.conj_image(gi, V.elements))]
                 for V in vertices]
        perm = []
        for ki, pi in elements:
            kimg = frozenset(vperm[v] for v in ki)
            pimg = apair_action[gi][pi]
            perm.append(kindex[(kimg, pimg)])
        action.append(perm)

    names = [V.generators[0].cycle_string() for V in vertices]

    def label_of(i):
        vids, pid = elements[i]
        return ("{" + ",".join(sorted(names[v] for v in vids)) + "}|"
                + aposet.labels[pid])

    kposet = GPoset([label_of(i) for i in range(len(elements))], up, action)
    # expand: (Q, e) -> (order-p subgroups of Q, e); collapse: drop kappa
    expand_map = [kindex[(frozenset(iter_bits(vmask[f])), pid)]
                  for pid, f in enumerate(family_of_pair)]
    collapse_map = [pi for _k, pi in elements]
    return BlockGeometry(ctx, apairs, vertices, adj, elements, kposet,
                         expand_map, collapse_map)


class Obstruction:
    """A clique of minimal elements not covered by any single poset element."""

    __slots__ = ("minimal_indices", "pair_labels", "subgroups",
                 "generated_subgroup", "brauer_vanishes")

    def __init__(self, minimal_indices, pair_labels, subgroups,
                 generated_subgroup, brauer_vanishes):
        self.minimal_indices = minimal_indices
        self.pair_labels = pair_labels
        self.subgroups = subgroups            # the singleton subgroups
        self.generated_subgroup = generated_subgroup
        self.brauer_vanishes = brauer_vanishes


def uncovered_minimal_clique(poset):
    """The first clique of minimal elements with no common upper bound.

    Two minimal elements are joined when their up-sets meet, i.e. some
    element lies above both, so every clique of size <= 2 is covered.  The
    search carries down the clique DFS the AND of the chosen elements' up-sets;
    a clique is covered iff that AND is nonzero.  Returns the clique as a
    tuple of element indices, or None when every clique is covered.
    """
    minimal = poset.minimal_elements()
    ups = [poset.up[m] for m in minimal]
    gadj = [0] * len(minimal)
    for a, up_a in enumerate(ups):
        for b in range(a + 1, len(ups)):
            if up_a & ups[b]:
                gadj[a] |= 1 << b
                gadj[b] |= 1 << a

    def cover_and(cover, t):
        return cover & ups[t]

    for clique, cover in iter_cliques(gadj, cover_and, -1):
        if not cover:
            return tuple(minimal[t] for t in clique)
    return None


def clique_witness(geom):
    """Search for a clique of minimal elements with no common upper bound cover.

    Vertices of the candidate graph are the minimal elements of the commuting
    poset; two are joined when some element lies above both.  An uncovered
    clique of size >= 3 shows the poset is not the face poset of any graph's
    clique complex; the witness carries whether the Brauer image of the
    subgroup generated by the clique vanishes.  Returns None when every
    clique is covered.
    """
    kposet = geom.kposet
    kidx = uncovered_minimal_clique(kposet)
    if kidx is None:
        return None
    subgroups = []
    for i in kidx:
        vids, _pid = geom.elements[i]
        (vid,) = tuple(vids)
        subgroups.append(geom.vertices[vid])
    generated = product_subgroup(subgroups, label="<obstruction>")
    return Obstruction(
        minimal_indices=kidx,
        pair_labels=tuple(kposet.labels[i] for i in kidx),
        subgroups=tuple(subgroups),
        generated_subgroup=generated,
        brauer_vanishes=not geom.ctx.brauer_nonzero(generated),
    )
