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
so the cut is exact.  The order of the commuting poset is built from masks:
the up-set of (kappa, e) is "elements at a pair above e" ANDed with "elements
whose kappa contains v" over v in kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitExceeded, TheoryViolation
from .perms import PermGroup, order_p_subgroups
from .topology import GPoset, iter_bits

MAX_POSET_ELEMENTS = 100_000


@dataclass
class CommutingGraph:
    vertices: list        # order-p subgroups, canonically sorted
    adjacency: list       # bitmask per vertex

    def edges(self):
        return [(i, j) for i, mask in enumerate(self.adjacency)
                for j in iter_bits(mask & ~((2 << i) - 1))]

    def num_edges(self):
        return len(self.edges())


def commuting_adjacency(vertices):
    """Adjacency bitmasks joining the order-p subgroups that commute elementwise.

    Two order-p subgroups commute elementwise iff their generators commute.
    """
    gens = [Q.generators[0] for Q in vertices]
    adjacency = [0] * len(gens)
    for i, gi in enumerate(gens):
        for j in range(i + 1, len(gens)):
            gj = gens[j]
            if gi * gj == gj * gi:
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
    for rep, orbit in ctx.group.classes:
        if rep.order == 1:
            continue
        flag, _rank = rep.is_elementary_abelian(ctx.p)
        if not flag or not ctx.brauer_nonzero(rep):
            continue
        family.extend(rep.conjugate_subgroup(g) for g in orbit.values())
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
    # subgroup -> indices of pairs sitting at it
    pairs_by_subgroup = {}
    for i, pr in enumerate(apairs.pairs):
        pairs_by_subgroup.setdefault(pr.subgroup.element_set, []).append(i)
    # vertices: the order-p members of the family
    vertices = sorted(
        {pr.subgroup.element_set: pr.subgroup for pr in apairs.pairs
         if pr.subgroup.order == ctx.p}.values(),
        key=PermGroup.key)
    vindex = {Q.element_set: i for i, Q in enumerate(vertices)}
    adj = commuting_adjacency(vertices)

    def brauer_prune(prod, v):
        # v commutes with every member (adjacency), so the product is a set product
        V = vertices[v]
        if prod is None:
            gens, elems = V.generators, V.elements
        else:
            gens = tuple(prod.generators) + V.generators
            elems = {x * y for x in prod.elements for y in V.elements}
        new_prod = PermGroup(ctx.G.degree, gens, elems)
        return new_prod if new_prod.element_set in pairs_by_subgroup else None

    elements = []
    for kappa, prod in iter_cliques(adj, brauer_prune, None):
        for pid in pairs_by_subgroup[prod.element_set]:
            elements.append((frozenset(kappa), pid))
            if len(elements) > max_elements:
                raise SizeLimitExceeded(
                    f"commuting poset exceeded {max_elements} elements")
    elements.sort(key=lambda ke: (sorted(ke[0]), ke[1]))
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
    # action of the generators
    action = []
    apair_action = aposet.action if isinstance(aposet, GPoset) else None
    for gi, g in enumerate(ctx.G.generators):
        vperm = [vindex[v.conjugate_subgroup(g).element_set] for v in vertices]
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
    expand_map = []
    for pid, pr in enumerate(apairs.pairs):
        cq = order_p_subgroups(pr.subgroup, ctx.p)
        vids = frozenset(vindex[c.element_set] for c in cq)
        expand_map.append(kindex[(vids, pid)])
    collapse_map = [pi for _k, pi in elements]
    return BlockGeometry(ctx, apairs, vertices, adj, elements, kposet,
                         expand_map, collapse_map)


@dataclass
class Obstruction:
    """A clique of minimal elements not covered by any single poset element."""

    minimal_indices: tuple
    pair_labels: tuple
    subgroups: tuple              # the singleton subgroups
    generated_subgroup: PermGroup
    brauer_vanishes: bool


def uncovered_minimal_clique(poset):
    """The first clique of minimal elements with no common upper bound.

    Two minimal elements are joined when their up-sets meet, i.e. some
    element lies above both, so every clique of size <= 2 is covered.  The
    search carries down the clique DFS the AND of the chosen elements' up-sets;
    a clique is covered iff that AND is nonzero.  Returns the clique as a
    tuple of element indices, or None when every clique is covered.
    """
    down = poset.down_masks()
    minimal = [i for i in range(poset.n) if down[i] == 1 << i]
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
