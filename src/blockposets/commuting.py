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
and the clique is cut.  The commuting category finds its objects and their
products with the same walk, `product_walk`.

The commuting poset holds no Python container or string per element: an
element is (kappa as a bitmask of vertex ids, pair index), and its label is
formatted from that pair of ints when it is read.  The elements of one
kappa are consecutive, so an element is found from the index of the first
element of its kappa and the position of its pair among the pairs at the
product of kappa.  The order is built from masks: the up-set of (kappa, e)
is "elements at a pair above e" ANDed with "elements whose kappa contains
v" over v in kappa.  A generator acts on kappa through the image bits of
its vertices, read once from G's conjugation tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter

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
    and a b = b a iff b(a(k)) = a(b(k)) for every point k; the images of
    b at the points a(k) are read by one itemgetter per generator a.
    """
    gens = [Q.generators[0] for Q in vertices]
    at_images = [itemgetter(*g) for g in gens]
    adjacency = [0] * len(gens)
    for i, gi in enumerate(gens):
        at_gi = at_images[i]
        for j in range(i + 1, len(gens)):
            if at_gi(gens[j]) == at_images[j](gi):
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


def product_walk(family, p):
    """(vertices, adjacency, vmask, cliques) of a family of elementary
    abelian p-subgroups: the order-p members in canonical order, their
    adjacency, the mask of the vertices inside each member, and an iterator
    over (kappa, its mask, its product's family index) in iter_cliques
    order, cutting each clique whose product is not a member."""
    vertices = sorted((S for S in family if S.order == p), key=PermGroup.key)
    adjacency = commuting_adjacency(vertices)
    # the vertices inside each family subgroup, read off its elements past
    # the first, the identity
    vertex_of = {x: v for v, V in enumerate(vertices) for x in V.elements[1:]}
    vmask = []
    for S in family:
        mask = 0
        for x in S.elements[1:]:
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

    def grow(state, v):
        # state: (the product A as a family index, the family subgroups
        # holding every member, kappa's mask); <A, v> is A when v lies in
        # A, else the family subgroup of order p|A| holding A and v, if any
        A, above, kmask = state
        if A is None or not (vmask[A] >> v) & 1:
            above &= holding[v]
            order = p * (family[A].order if A is not None else 1)
            hit = above & of_order.get(order, 0)
            if not hit:
                return None
            if hit & (hit - 1):
                raise TheoryViolation(
                    "two family subgroups generated by a clique",
                    witness=vertices[v].generators[0].cycle_string())
            A = hit.bit_length() - 1
        return A, above, kmask | 1 << v

    start = (None, (1 << len(family)) - 1, 0)
    cliques = ((kappa, kmask, A) for kappa, (A, _above, kmask)
               in iter_cliques(adjacency, grow, start))
    return vertices, adjacency, vmask, cliques


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
    """The pair poset with abelian tops, the commuting poset, and their maps.

    elements[i] is (kmask, pid): kappa as a bitmask of indices into
    vertices, and the index of its pair in apairs.  The elements are sorted
    by (sorted kappa, pid), and kposet.labels formats label i from them when
    it is read.
    """

    def __init__(self, ctx, apairs, vertices, vertex_adj, elements, kposet,
                 expand_map, collapse_map):
        self.ctx = ctx
        self.apairs = apairs          # BrauerPairPoset (elementary abelian)
        self.vertices = vertices      # order-p subgroups with Br != 0
        self.vertex_adj = vertex_adj
        self.elements = elements      # (kappa mask, apairs index)
        self.kposet = kposet          # GPoset on the elements
        self.expand_map = expand_map  # apairs index -> kposet index
        self.collapse_map = collapse_map  # kposet index -> apairs index

    @property
    def aposet(self):
        return self.apairs.poset


class CommutingLabels(Sequence):
    """The labels of the commuting poset, each formatted when it is read:
    the generators of kappa's members, sorted, then the pair's label."""

    __slots__ = ("elements", "names", "pair_labels")

    def __init__(self, elements, names, pair_labels):
        self.elements = elements
        self.names = names            # vertex id -> its generator's cycles
        self.pair_labels = pair_labels

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        kmask, pid = self.elements[i]
        names = self.names
        return ("{" + ",".join(sorted([names[v] for v in iter_bits(kmask)]))
                + "}|" + self.pair_labels[pid])


def block_geometry(ctx, max_elements=MAX_POSET_ELEMENTS):
    """Build the pair poset, the commuting poset, and the two maps."""
    apairs = elementary_abelian_poset(ctx)
    aposet = apairs.poset
    # the build tables die with the call, before the certificate's rows
    vertices, adj, elements, up, action, expand_map = _commuting_elements(
        ctx, apairs, max_elements)
    labels = CommutingLabels(
        elements, [V.generators[0].cycle_string() for V in vertices],
        aposet.labels)
    kposet = GPoset(labels, up, action)
    # collapse: (kappa, e) -> (product of kappa, e)
    collapse_map = [pid for _kmask, pid in elements]
    return BlockGeometry(ctx, apairs, vertices, adj, elements, kposet,
                         expand_map, collapse_map)


def _commuting_elements(ctx, apairs, max_elements):
    """(vertices, their adjacency, elements, up masks, action, expand map)
    of the commuting poset over the pair poset apairs."""
    aposet = apairs.poset
    # the family: the subgroups with a pair, each with the pairs at it
    family_index = {}
    family = []
    pairs_at = []
    family_of_pair = []
    slot = []                   # position of each pair in its pairs_at list
    for i, pr in enumerate(apairs.pairs):
        f = family_index.setdefault(pr.subgroup.element_set, len(family))
        if f == len(family):
            family.append(pr.subgroup)
            pairs_at.append([])
        slot.append(len(pairs_at[f]))
        pairs_at[f].append(i)
        family_of_pair.append(f)
    vertices, adj, vmask, cliques = product_walk(family, ctx.p)
    vindex = {Q.element_set: i for i, Q in enumerate(vertices)}
    # Cliques come in depth-first preorder of increasing tuples, which is
    # lexicographic order, and each pairs_at list is increasing: elements
    # arrive sorted by (sorted kappa, pair index), those of one kappa
    # consecutive.
    elements = []
    first_of = {}               # kappa mask -> index of its first element
    containing = [0] * len(vertices)    # the elements whose kappa holds v
    for kappa, kmask, A in cliques:
        first = first_of[kmask] = len(elements)
        for pid in pairs_at[A]:
            elements.append((kmask, pid))
        if len(elements) > max_elements:
            raise SizeLimitExceeded(
                f"commuting poset exceeded {max_elements} elements")
        run = (1 << len(elements)) - (1 << first)
        for v in kappa:
            containing[v] |= run
    above_pair = _above_pair_masks(aposet, elements)
    # each generator's image of each vertex, as a bit, read once from G's
    # conjugation tables
    gindex = ctx.G.element_index()
    vimage = [[1 << vindex[frozenset(gindex.conj_image(gi, V.elements))]
               for V in vertices]
              for gi in range(len(ctx.G.generators))]
    # order: subset on kappa, pair containment on the decorations; action:
    # kappa's image from its vertices' image bits, the pair's image from
    # the pair poset's action, which must lie at the product of the image
    up = []
    action = [[] for _ in vimage]
    for kmask, first in first_of.items():
        members = iter_bits(kmask)
        pids = pairs_at[family_of_pair[elements[first][1]]]
        for pid in pids:
            mask = above_pair[pid]
            for v in members:
                mask &= containing[v]
            up.append(mask)
        for bits, pair_image, perm in zip(vimage, aposet.action, action):
            image = 0
            for v in members:
                image |= bits[v]
            target = first_of[image]
            product = family_of_pair[elements[target][1]]
            for pid in pids:
                pimg = pair_image[pid]
                if family_of_pair[pimg] != product:
                    raise TheoryViolation(
                        "pair image does not lie at the image of kappa",
                        witness=aposet.labels[pimg])
                perm.append(target + slot[pimg])
    # expand: (Q, e) -> (order-p subgroups of Q, e)
    expand_map = []
    for pid, f in enumerate(family_of_pair):
        first = first_of[vmask[f]]
        if family_of_pair[elements[first][1]] != f:
            raise TheoryViolation(
                "order-p subgroups of a pair's subgroup generate another",
                witness=aposet.labels[pid])
        expand_map.append(first + slot[pid])
    return vertices, adj, elements, up, action, expand_map


def _above_pair_masks(aposet, elements):
    """Per pair, the mask of the elements at a pair above it."""
    at_pair = [0] * aposet.n
    for i, (_kmask, pid) in enumerate(elements):
        at_pair[pid] |= 1 << i
    above_pair = []
    for pid in range(aposet.n):
        mask = 0
        for above in iter_bits(aposet.up[pid]):
            mask |= at_pair[above]
        above_pair.append(mask)
    return above_pair


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
        kmask, _pid = geom.elements[i]
        (vid,) = iter_bits(kmask)
        subgroups.append(geom.vertices[vid])
    generated = product_subgroup(subgroups, label="<obstruction>")
    return Obstruction(
        minimal_indices=kidx,
        pair_labels=tuple(kposet.labels[i] for i in kidx),
        subgroups=tuple(subgroups),
        generated_subgroup=generated,
        brauer_vanishes=not geom.ctx.brauer_nonzero(generated),
    )
