"""Independent oracles that only the tests call.

* Betti numbers from ranks over the rationals, by dense Fraction
  elimination, against the Smith-form route of `topology.homology`, and
  invariant factors from the gcds of k x k minors (determinantal
  divisors), against the diagonal of `topology.smith_normal_form`;
* the boundary maps as {(row, column): sign} dicts with their composite
  check, against the row dicts that `topology.boundary_matrices` hands to
  the Smith form, and the conversion of a hand-written {(i, j): value}
  matrix into those rows;
* each G-conjugate of a subgroup named by the frozenset of its elements,
  against the orbits keyed by element positions;
* conjugation of a whole subgroup and of a group-algebra element, term by
  term, against the conjugation tables and orbit trees of the library;
* the primitive idempotents of Z(kG) by exhaustive enumeration of its
  elements, and the blocks of kG from the recursive splitter against them,
  as a check result;
* the sparse class-algebra constants read back as the dense
  const[i][j][k], and the orbit links read back as (parent, t) with t found
  by Permutation conjugation;
* the index tables built from permutation products, every subgroup of a
  small group by one closure per extension, and a centralizer narrowed by
  one G-wide column per generator, against the tables that the closure
  records and the bitset and in-centralizer scans of the library;
* the commuting poset as it was first built, each kappa a frozenset of
  vertex ids, every label formatted up front and the certificate reading
  each up-set row as a list of indices, against the mask-keyed builder.
"""

import itertools
import math
import time
from collections import defaultdict
from fractions import Fraction

from blockposets.blocks import (
    GroupAlgebraElement,
    blocks,
    class_sum_algebra,
)
from blockposets.commuting import (
    MAX_POSET_ELEMENTS,
    BlockGeometry,
    commuting_adjacency,
    elementary_abelian_poset,
    iter_cliques,
)
from blockposets.errors import SizeLimitExceeded, TheoryViolation
from blockposets.perms import PermGroup, SubgroupOrbit
from blockposets.topology import GPoset, Poset, _row_or, iter_bits
from blockposets.verify import CheckResult, _target


def rank_over_rationals(entries, rows, cols):
    """Rank by dense Gaussian elimination with Fractions (independent of SNF)."""
    M = [[Fraction(0)] * cols for _ in range(rows)]
    for (i, j), v in entries.items():
        M[i][j] = Fraction(v)
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if M[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        r += 1
        if r == rows:
            break
    return r


def homology_betti_rational(C):
    """Betti numbers by rational ranks only (oracle for the SNF route)."""
    if C.is_empty():
        return []
    mats = boundary_matrices(C)
    counts = C.face_counts()
    ranks = [rank_over_rationals(m, counts[n], counts[n + 1])
             for n, m in enumerate(mats)]
    out = []
    for n in range(len(counts)):
        rank_dn = ranks[n - 1] if n >= 1 else 0
        rank_dn1 = ranks[n] if n < len(ranks) else 0
        out.append(counts[n] - rank_dn - rank_dn1)
    while out and out[-1] == 0:
        out.pop()
    return out


def boundary_matrices(C):
    """Sparse boundary maps; entry ((row=face index in dim n-1), (col=dim n)).

    The composite of consecutive boundaries is asserted to vanish.
    """
    index = [
        {f: i for i, f in enumerate(fs)} for fs in C.faces_by_dim
    ]
    mats = []
    for n in range(1, len(C.faces_by_dim)):
        entries = {}
        for j, f in enumerate(C.faces_by_dim[n]):
            for k in range(len(f)):
                sub = f[:k] + f[k + 1:]
                entries[(index[n - 1][sub], j)] = (-1) ** k
        mats.append(entries)
    for n in range(len(mats) - 1):
        assert_composite_zero(mats[n], mats[n + 1])
    return mats


def assert_composite_zero(d_low, d_high):
    by_col_high = defaultdict(list)
    for (i, j), v in d_high.items():
        by_col_high[j].append((i, v))
    by_col_low = defaultdict(list)
    for (i, j), v in d_low.items():
        by_col_low[j].append((i, v))
    for j, col in by_col_high.items():
        acc = defaultdict(int)
        for mid, v in col:
            for i, w in by_col_low.get(mid, ()):
                acc[i] += v * w
        if any(acc.values()):
            raise TheoryViolation("boundary composite nonzero", witness=j)


def row_dicts(entries, rows):
    """The rows of a {(i, j): value} matrix, as smith_normal_form reads
    them: one {j: value} dict per row, stored zeros kept."""
    out = [{} for _ in range(rows)]
    for (i, j), v in entries.items():
        out[i][j] = v
    return out


def entries_of(rows):
    """A matrix given as row dicts, back as {(i, j): value}."""
    return {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}


def _det(M):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    M = [list(row) for row in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def invariant_factors_by_minors(entries, rows, cols):
    """The invariant factors of a {(i, j): value} matrix from its
    determinantal divisors: d_1 ... d_k is the gcd D_k of all k x k minors,
    so d_k = D_k / D_(k-1), for every k with D_k != 0."""
    M = [[entries.get((i, j), 0) for j in range(cols)] for i in range(rows)]
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = math.gcd(g, _det([[M[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def subgroup_orbit_transversal(G, H):
    """The G-conjugates of H, each named by the frozenset of its elements
    and mapped to one g with H^g = it, in BFS order from H; links maps
    every conjugate but H to (parent, t), the parent conjugated by the t-th
    generator.  The BFS runs on position frozensets, and every conjugate
    is named at the end."""
    index = G.element_index()
    start = frozenset([index.pos[x] for x in H.elements])
    orbit = {start: index.root}
    links = {}
    frontier = [start]
    while frontier:
        new = []
        for ids in frontier:
            g = orbit[ids]
            for t, (conj, right) in enumerate(zip(index.conj, index.right)):
                image = frozenset([conj[i] for i in ids])
                if image not in orbit:
                    orbit[image] = right[g]
                    links[image] = (ids, t)
                    new.append(image)
        frontier = new
    elements = G.elements
    named = {ids: frozenset([elements[i] for i in ids]) for ids in orbit}
    out = SubgroupOrbit((named[ids], elements[g]) for ids, g in orbit.items())
    out.links = {named[ids]: (named[parent], t)
                 for ids, (parent, t) in links.items()}
    return out


def element_set(G, key):
    """A position key of G read as the frozenset of its elements."""
    return frozenset([G.elements[i] for i in key])


def links_with_generators(G, orbit):
    """orbit.links as {child: (parent, t)}: t is the first generator of G
    that conjugates the parent's elements onto the child's, found by
    Permutation conjugation of the elements."""
    out = {}
    for child, parent in orbit.links.items():
        target = element_set(G, child)
        members = element_set(G, parent)
        out[child] = (parent, next(
            t for t, s in enumerate(G.generators)
            if frozenset([x.conjugate(s) for x in members]) == target))
    return out


def dense_constants(A):
    """A's structure constants as the dense const[i][j][k], zeros filled
    in from its sparse (k, c) pairs."""
    out = []
    for plane in A.const:
        rows = []
        for pairs in plane:
            row = [A.field.zero] * A.dim
            for k, c in pairs:
                row[k] = c
            rows.append(row)
        out.append(rows)
    return out


def sparse_constants(dense, F):
    """Dense const[i][j][k] as the (k, c) pairs that CentralAlgebra takes."""
    return [[tuple((k, c) for k, c in enumerate(row) if c != F.zero)
             for row in plane] for plane in dense]


def conjugate_subgroup(H, g, label=""):
    """H^g = g^-1 H g, every element and generator conjugated."""
    ginv = g.inverse()
    elems = {x.conjugate(g, ginv) for x in H.elements}
    gens = tuple(x.conjugate(g, ginv) for x in H.generators)
    return PermGroup(H.degree, gens, elems, label or H.label)


def conjugate_element(a, g):
    """a^g, support-wise x -> g^-1 x g."""
    ginv = g.inverse()
    return GroupAlgebraElement(a.group, a.field,
                               {x.conjugate(g, ginv): c
                                for x, c in a.support.items()})


ORACLE_BOUND = 1 << 20


def brute_force_central_idempotents(A, bound=ORACLE_BOUND):
    """Primitive idempotents by exhaustive enumeration of central elements.

    This is the independent oracle for the recursive splitter: filter all
    |field|^dim central elements down to nonzero idempotents, then keep e
    primitive iff no idempotent f outside {0, e} satisfies e f = f.

    In GF(2^d) squaring is additive, (sum c_i z_i)^2 = sum c_i^2 z_i^2, so
    it is GF(2)-linear on the candidates written as ints of dim * d bits,
    the k-th coordinate's encoding at bits k d to k d + d - 1.  The square
    of each bit is c^2 z_i^2 for c a power of the field's generator, from
    the basis squares z_i^2 computed once with A.mult, and every candidate's
    square is one XOR from that of a candidate with one bit fewer.  Odd
    characteristic squares each candidate with A.mult.
    """
    F = A.field
    dim = A.dim
    total = F.q ** dim
    if total > bound:
        raise SizeLimitExceeded(
            f"oracle space {F.q}^{dim} exceeds bound {bound}")
    if F.p == 2:
        d = F.d
        units = [F.decode(1 << m) for m in range(d)]    # a GF(2)-basis of F

        def pack(v):
            return sum(F.encode(c) << (k * d) for k, c in enumerate(v))

        bit_squares = []
        for i in range(dim):
            z = [F.zero] * dim
            z[i] = F.one
            sq = A.mult(z, z)
            bit_squares += [pack(A.scale(F.mul(c, c), sq)) for c in units]
        square = [0] * total
        for e in range(1, total):
            low = e & (-e)
            square[e] = square[e ^ low] ^ bit_squares[low.bit_length() - 1]
        digit = (1 << d) - 1
        idems = [tuple(F.decode((e >> (k * d)) & digit) for k in range(dim))
                 for e in range(1, total) if square[e] == e]
    else:
        idems = []
        for combo in itertools.product(list(F.elements()), repeat=dim):
            v = list(combo)
            if all(c == F.zero for c in v):
                continue
            if A.mult(v, v) == v:
                idems.append(tuple(v))
    prims = []
    for e in idems:
        primitive = True
        for f in idems:
            if f == e:
                continue
            if tuple(A.mult(list(e), list(f))) == f:
                primitive = False
                break
        if primitive:
            prims.append(e)
    prims.sort(key=lambda u: tuple(F.encode(c) for c in u))
    return prims


def check_blocks_oracle(G, F, algebra=None, oracle_bound=ORACLE_BOUND):
    """Blocks from the splitter must equal the brute-force idempotent set."""
    start = time.monotonic()
    A = algebra if algebra is not None else class_sum_algebra(G, F)
    out = blocks(G, F, algebra=A)
    target = _target(G, F)
    try:
        oracle = brute_force_central_idempotents(A, bound=oracle_bound)
    except SizeLimitExceeded as exc:
        return CheckResult("blocks-oracle", target, "skipped",
                           details={"reason": str(exc)},
                           elapsed=time.monotonic() - start)
    computed = sorted(b.coords for b in out)
    expected = sorted(tuple(u) for u in oracle)
    status = "pass" if computed == expected else "fail"
    witnesses = [] if status == "pass" else [computed, expected]
    return CheckResult("blocks-oracle", target, status,
                       details={"count": len(out)},
                       witnesses=witnesses,
                       elapsed=time.monotonic() - start)


def index_tables_by_products(G):
    """(conj, right) of G's ElementIndex, from permutation products: the
    t-th tables hold the positions of t^-1 x t and x t."""
    pos = {x: i for i, x in enumerate(G.elements)}
    conj = [[pos[x.conjugate(t)] for x in G.elements] for t in G.generators]
    right = [[pos[x * t] for x in G.elements] for t in G.generators]
    return conj, right


def all_subgroups(P, max_count=10_000):
    """Every subgroup of a small group P, by iterative one-element
    extensions, each closed by from_generators."""
    trivial = PermGroup.trivial(P.degree)
    found = {trivial.element_set: trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            tried = set(H.element_set)   # <H, hx> = <H, x>: one x per Hx
            for x in P.elements:
                if x in tried:
                    continue
                tried.update(h * x for h in H.elements)
                K = PermGroup.from_generators(P.degree,
                                              tuple(H.generators) + (x,),
                                              max_elements=P.order)
                if K.element_set not in found:
                    found[K.element_set] = K
                    new.append(K)
                    if len(found) > max_count:
                        raise SizeLimitExceeded("subgroup enumeration bound hit")
        frontier = new
    return sorted(found.values(), key=PermGroup.key)


def centralizer(G, S, label=""):
    """Elements of G commuting with every member of S, narrowed by one
    G-wide conjugation column per generator of S."""
    if isinstance(S, PermGroup):
        pins = S.generators if S.generators else (S.identity(),)
    else:
        pins = tuple(S)
    if all(s.is_identity() for s in pins):
        return G
    index = G.element_index()
    keep = range(G.order)
    for s in pins:
        i = index.id(s)
        col = index.conj_column(i)
        keep = [g for g in keep if col[g] == i]
    elems = [G.elements[g] for g in keep]
    return PermGroup.from_elements(G.degree, elems, label or f"C({G.label})")


# -- the list-row certificate and the frozenset commuting poset ---------------


def list_row_axioms(P, rows):
    """Poset's partial-order check on rows given as lists of indices."""
    up = P.up
    for i in range(P.n):
        if not (up[i] >> i) & 1:
            raise TheoryViolation("relation not reflexive", witness=i)
    if len(set(up)) == P.n and all(
            _row_or(up, row) == up[i] for i, row in enumerate(rows)):
        return
    down = P.down_masks()
    for i, row in enumerate(rows):
        if _row_or(up, row) == up[i] and up[i] & down[i] == 1 << i:
            continue
        for j in row:
            if j != i and (down[i] >> j) & 1:
                raise TheoryViolation("relation not antisymmetric",
                                      witness=(P.labels[i], P.labels[j]))
            if up[j] & ~up[i]:
                raise TheoryViolation("relation not transitive",
                                      witness=(P.labels[i], P.labels[j]))


def list_row_action(P, rows):
    """GPoset's order-automorphism check on rows given as lists."""
    everything = list(range(P.n))
    for a in P.action:
        if sorted(a) != everything:
            raise TheoryViolation("generator does not permute poset elements")
        if all(sorted([a[j] for j in row]) == rows[a[i]]
               for i, row in enumerate(rows)):
            continue
        for i, row in enumerate(rows):
            target = set(rows[a[i]])
            for j in row:
                if a[j] not in target:
                    raise TheoryViolation(
                        "generator action is not an order-automorphism",
                        witness=(P.labels[i], P.labels[j]))


class ListRowPoset(Poset):
    """A Poset whose labels are copied into a list and whose certificate
    reads each up-set row as a list of indices."""

    def __init__(self, labels, up_masks):
        self.n = len(labels)
        self.labels = list(labels)
        self.up = list(up_masks)
        self._check([iter_bits(m) for m in self.up])

    def _check(self, rows):
        list_row_axioms(self, rows)


class ListRowGPoset(GPoset):
    """GPoset with the list-row certificate of ListRowPoset."""

    def __init__(self, labels, up_masks, action):
        self.action = [list(a) for a in action]
        ListRowPoset.__init__(self, labels, up_masks)

    def _check(self, rows):
        list_row_axioms(self, rows)
        list_row_action(self, rows)


def frozenset_block_geometry(ctx, max_elements=MAX_POSET_ELEMENTS):
    """block_geometry with kappa as a frozenset of vertex ids, the elements
    found through a dict keyed by (kappa, pair), the labels formatted up
    front and the commuting poset certified on list rows."""
    apairs = elementary_abelian_poset(ctx)
    aposet = apairs.poset
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
    vertices = sorted((S for S in family if S.order == ctx.p),
                      key=PermGroup.key)
    vindex = {Q.element_set: i for i, Q in enumerate(vertices)}
    adj = commuting_adjacency(vertices)
    identity = ctx.G.identity()
    vertex_of = {x: v for v, V in enumerate(vertices)
                 for x in V.elements if x != identity}
    vmask = []
    for S in family:
        mask = 0
        for x in S.elements:
            if x != identity:
                mask |= 1 << vertex_of[x]
        vmask.append(mask)
    of_order = {}
    holding = [0] * len(vertices)
    for f, S in enumerate(family):
        of_order[S.order] = of_order.get(S.order, 0) | 1 << f
        for v in iter_bits(vmask[f]):
            holding[v] |= 1 << f

    def brauer_prune(state, v):
        A, above = state
        if A is not None and (vmask[A] >> v) & 1:
            return state
        above &= holding[v]
        order = ctx.p * (family[A].order if A is not None else 1)
        hit = above & of_order.get(order, 0)
        if not hit:
            return None
        assert not hit & (hit - 1)
        return hit.bit_length() - 1, above

    elements = []
    start = (None, (1 << len(family)) - 1)
    for kappa, (A, _above) in iter_cliques(adj, brauer_prune, start):
        for pid in pairs_at[A]:
            elements.append((frozenset(kappa), pid))
            if len(elements) > max_elements:
                raise SizeLimitExceeded(
                    f"commuting poset exceeded {max_elements} elements")
    kindex = {ke: i for i, ke in enumerate(elements)}
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
    action = []
    gindex = ctx.G.element_index()
    for gi in range(len(ctx.G.generators)):
        vperm = [vindex[frozenset(gindex.conj_image(gi, V.elements))]
                 for V in vertices]
        action.append([kindex[(frozenset(vperm[v] for v in ki),
                               aposet.action[gi][pi])]
                       for ki, pi in elements])
    names = [V.generators[0].cycle_string() for V in vertices]
    labels = ["{" + ",".join(sorted(names[v] for v in vids)) + "}|"
              + aposet.labels[pid] for vids, pid in elements]
    kposet = ListRowGPoset(labels, up, action)
    expand_map = [kindex[(frozenset(iter_bits(vmask[f])), pid)]
                  for pid, f in enumerate(family_of_pair)]
    collapse_map = [pi for _k, pi in elements]
    return BlockGeometry(ctx, apairs, vertices, adj, elements, kposet,
                         expand_map, collapse_map)
