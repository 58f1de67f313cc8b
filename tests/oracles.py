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
  against the orbits keyed by element positions, and the g with R^g = Q
  composed by permutation products along an orbit's links;
* the conjugacy classes by one set-based BFS per class, against the orbit
  walk of the conjugation tables;
* conjugation of a whole subgroup and of a group-algebra element, term by
  term, against the conjugation tables and orbit trees of the library;
* the primitive idempotents of Z(kG) by exhaustive enumeration of its
  elements, and the blocks of kG from the recursive splitter against them,
  as a check result;
* the sparse class-algebra constants read back as the dense
  const[i][j][k];
* the index tables built from permutation products, every subgroup of a
  small group by one closure per extension, and a centralizer narrowed by
  one G-wide column per generator, against the tables that the closure
  records and the bitset and in-centralizer scans of the library;
* the commuting poset as it was first built, each kappa a frozenset of
  vertex ids, every label formatted up front and the certificate reading
  each up-set row as a list of indices, against the mask-keyed builder;
* the commuting poset's up masks all listed together, as block_geometry held
  them before they were streamed into the row table, chain counts taken at
  every element instead of once per orbit, and covering pairs read off the
  up and down masks instead of the rows;
* any poset's up masks rebuilt from its rows, the closure of a relation
  given by arcs by a fixed-point loop (against the one-pass closure of the
  Brauer pair poset), and the order complex built from the up masks,
  against the one read off the rows;
* the pair below a maximal pair at a subgroup, walked down a normalizer
  chain and a centre-seeded chain with a unique normally contained block
  at each step, against the fusion system's subpairs read off the pair
  poset, and its maps out of a subgroup by a scan of every g in G;
* the hom sets of the commuting category, filtered from each object's
  maps out of its product;
* the equivalence certificate with every test run at every element, and
  theorem1's two round-trip fields by a scan of every element;
* the principal-clique check on a commuting graph of its own: every
  order-p subgroup by closure, each face's product by a permutation
  closure and the face poset from the downward closure of the cliques,
  against the check on the commuting poset's clique walk;
* the product of GF(p^d) with its own schoolbook loop and reduction by
  the modulus, against `ExtensionField.mul` on the polynomial layer;
* names the library no longer reads: powers in a field, with negative
  exponents, the Frobenius map, the field element of an integer encoding
  and a field's elements in that order, the unit of a group algebra, the
  Brauer
  homomorphism, cyclic groups, the idempotent test, a poset from its
  relation pairs and the Euler characteristics of a complex and of its
  homology;
* group-algebra products term by term, a fixed-point test term by term,
  and normal containment of pairs from its definition by them, against
  the class-coordinate test of the library.
"""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

from blockposets.blocks import (
    GroupAlgebraElement,
    blocks,
    class_sum_algebra,
)
from blockposets.brauer import BrauerPair
from blockposets.commuting import (
    MAX_POSET_ELEMENTS,
    BlockGeometry,
    commuting_adjacency,
    elementary_abelian_poset,
    iter_cliques,
    product_subgroup,
    product_walk,
)
from blockposets.errors import SizeLimitExceeded, TheoryViolation
from blockposets.perms import (
    ConjugacyClass,
    Permutation,
    PermGroup,
    SubgroupOrbit,
)
from blockposets.perms import centralizer as perms_centralizer
from blockposets.topology import (
    Poset,
    SimplicialComplex,
    iter_bits,
    poset_iso_check,
)
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


def transversal_element(G, orbit, key):
    """The g with R^g = the conjugate keyed key, R the orbit's first
    subgroup: the product of the generators recorded along the links from
    R down to key, by Permutation products."""
    path = []
    while key in orbit.links:
        path.append(orbit[key])
        key = orbit.links[key]
    g = G.identity()
    for t in reversed(path):
        g = g * G.generators[t]
    return g


def every_conjugate(G, classes):
    """R^g for every class (R, orbit) and every key of its orbit, in orbit
    order, g by transversal_element."""
    return [conjugate_subgroup(R, transversal_element(G, orbit, key))
            for R, orbit in classes for key in orbit]


def relabelled_symmetric(n, seed):
    """S_n as a generators spec, its points renamed by a seeded shuffle."""
    image = list(range(1, n + 1))
    random.Random(seed).shuffle(image)
    gens = [[[1, 2]], [list(range(1, n + 1))]]
    return {"type": "generators", "degree": n,
            "gens": [[[image[x - 1] for x in cycle] for cycle in gen]
                     for gen in gens]}


def conjugacy_classes_by_sets(G):
    """The classes as they were found before the orbit walk: one BFS per
    class over a set of positions, along G's conjugation tables."""
    index = G.element_index()
    elements = G.elements
    seen = bytearray(G.order)
    classes = []
    for x in range(G.order):  # elements are sorted, so representatives are minimal
        if seen[x]:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            new = []
            for y in frontier:
                for table in index.conj:
                    z = table[y]
                    if z not in orbit:
                        orbit.add(z)
                        new.append(z)
            frontier = new
        for y in orbit:
            seen[y] = 1
        classes.append(ConjugacyClass(elements[x],
                                      tuple(elements[i] for i in sorted(orbit))))
    return classes


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
        units = [decode(F, 1 << m) for m in range(d)]   # a GF(2)-basis of F

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
        idems = [tuple(decode(F, (e >> (k * d)) & digit) for k in range(dim))
                 for e in range(1, total) if square[e] == e]
    else:
        idems = []
        for combo in itertools.product(field_elements(F), repeat=dim):
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
    A = algebra if algebra is not None else class_sum_algebra(G, F)
    out = blocks(G, F, algebra=A)
    target = _target(G, F)
    try:
        oracle = brute_force_central_idempotents(A, bound=oracle_bound)
    except SizeLimitExceeded as exc:
        return CheckResult("blocks-oracle", target, "skipped",
                           details={"reason": str(exc)})
    computed = sorted(b.coords for b in out)
    expected = sorted(tuple(u) for u in oracle)
    status = "pass" if computed == expected else "fail"
    witnesses = [] if status == "pass" else [computed, expected]
    return CheckResult("blocks-oracle", target, status,
                       details={"count": len(out)},
                       witnesses=witnesses)


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


# -- subpairs down subnormal chains -------------------------------------------


def subpair_by_chain(ctx, top, Q):
    """The pair at Q below top, walked down subnormal chains to Q.

    The primary chain is Q = S_0 normal-in S_1 = N_R(S_0) normal-in ... up
    to R, top's subgroup; at each step the block of kC_G(S) whose pair is
    normally contained in the pair above must be unique.  When the chain
    through Q Z(R) (subnormal too, as the centre normalizes everything)
    differs from the primary one, it is walked as well and must give the
    same pair.
    """
    R = top.subgroup
    if not Q.element_set <= R.element_set:
        raise ValueError("subgroup is not contained in the top pair")
    if Q.element_set == R.element_set:
        return top
    chain = _normalizer_chain(R, Q)
    pair = _walk_chain(ctx, top, chain)
    alt = _center_seeded_chain(R, Q)
    if alt is not None and [S.element_set for S in alt] != \
            [S.element_set for S in chain]:
        if _walk_chain(ctx, top, alt) != pair:
            raise TheoryViolation("chain-dependent subpair detected",
                                  witness=(Q.label, R.label))
    if pair not in ctx.pairs_at(Q):
        raise TheoryViolation("subpair is not a pair of the block",
                              witness=pair.label())
    return pair


def _walk_chain(ctx, top, chain):
    pair = top
    for S in reversed(chain[:-1]):
        site = ctx.site(S)
        candidates = [BrauerPair(S, e, s) for s, e in enumerate(site.blocks)]
        candidates = [lo for lo in candidates
                      if ctx.normal_containment(lo, pair)]
        if len(candidates) != 1:
            raise TheoryViolation(
                "normally contained block not unique along chain",
                witness=(S.label, pair.label(), len(candidates)))
        pair = candidates[0]
    return pair


def _normalizer_chain(R, Q):
    """Q normal-in N_R(Q) normal-in ... up to R (p-groups never stall); each
    normalizer by conjugating the generators by every element of R."""
    chain = [Q]
    current = Q
    while current.element_set != R.element_set:
        inside = current.element_set
        nxt = PermGroup.from_elements(R.degree, [
            g for g in R.elements
            if all(x.conjugate(g) in inside for x in current.generators)])
        if nxt.order == current.order:
            raise TheoryViolation("normalizer chain stalled inside a p-group",
                                  witness=(R.label, current.label))
        chain.append(nxt)
        current = nxt
    return chain


def _center_seeded_chain(R, Q):
    """Q normal-in Q Z(R) normal-in ... up to R, or None when Z(R) already
    lies in Q.  Z(R) centralizes Q, so Q is normal in Q Z(R); from there
    the chain continues through normalizers."""
    centre = [x for x in R.elements
              if all(x * y == y * x for y in R.generators)]
    if all(x in Q.element_set for x in centre):
        return None
    seed = PermGroup.from_generators(
        R.degree, tuple(Q.generators) + tuple(centre), max_elements=R.order)
    return [Q] + _normalizer_chain(R, seed)


def maps_from_by_products(fs, Q):
    """fs.hom(Q, fs.P) by a scan of every g in G: Q's generators sent into
    P by products, the conjugated idempotent built term by term, the first
    g of each set map kept.  Each map comes out as F holds it, a dict from
    the position of each x in Q to that of x^g, with g, in key order."""
    pos = fs.ctx.G.element_index().pos
    eQ = fs.sub_pair[key_of(pos, Q.elements)].idempotent
    pset = fs.P.element_set
    found = {}
    for g in fs.ctx.G.elements:
        ginv = g.inverse()
        if any(ginv * x * g not in pset for x in Q.generators):
            continue
        mapping = {x: ginv * x * g for x in Q.elements}
        mkey = tuple(tuple(mapping[x]) for x in Q.elements)
        if mkey in found:
            continue
        if conjugate_element(eQ, g) == \
                fs.sub_pair[key_of(pos, mapping.values())].idempotent:
            found[mkey] = ({pos[x]: pos[y] for x, y in mapping.items()}, g)
    return [found[k] for k in sorted(found)]


def key_of(pos, elements):
    """The position key (sorted positions) of a set of group elements."""
    return tuple(sorted(pos[x] for x in elements))


def category_hom(cat, i, j):
    """The morphisms i -> j of a commuting category, in key order: the maps
    out of P_i whose image object lies in object j."""
    return [psi for psi, t in cat.row(i)
            if cat.objects[t] & ~cat.objects[j] == 0]


# -- the list-row certificate and the frozenset commuting poset ---------------


def _row_or(up, row):
    """The OR of the up-sets of the elements listed in row."""
    acc = 0
    for j in row:
        acc |= up[j]
    return acc


def list_row_axioms(P, rows):
    """The partial-order check on rows given as lists of indices."""
    up = P.up
    for i in range(P.n):
        if not (up[i] >> i) & 1:
            raise TheoryViolation("relation not reflexive", witness=i)
    if len(set(up)) == P.n and all(
            _row_or(up, row) == up[i] for i, row in enumerate(rows)):
        return
    down = down_masks(up)
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
    """The order-automorphism check on rows given as lists."""
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


def up_masks(P):
    """Every up-set of P as a bitmask, rebuilt from its rows."""
    members, offsets = P.members, P.offsets
    out = []
    for i in range(P.n):
        mask = 0
        for j in members[offsets[i]:offsets[i + 1]]:
            mask |= 1 << j
        out.append(mask)
    return out


def closure_masks(n, edges):
    """Up masks of the reflexive-transitive closure of (i, j) arcs on
    0..n-1, by a fixed-point loop over every element."""
    up = [1 << i for i in range(n)]
    for i, j in edges:
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            mask = up[i]
            acc = mask
            for j in iter_bits(mask):
                acc |= up[j]
            if acc != mask:
                up[i] = acc
                changed = True
    return up


def order_complex_by_masks(X):
    """The order complex of X as it was built from its up masks: each chain
    carries the AND of its members' strict up masks, and extends by its
    set bits."""
    strict_up = [m & ~(1 << i) for i, m in enumerate(up_masks(X))]
    by_dim = []
    frontier = [((i,), strict_up[i]) for i in range(X.n)]
    while frontier:
        by_dim.append(sorted(chain for chain, _m in frontier))
        new = []
        for chain, mask in frontier:
            for j in iter_bits(mask):
                new.append((chain + (j,), mask & strict_up[j]))
        frontier = new
    return SimplicialComplex(by_dim)


def down_masks(up):
    """The down-set masks of a relation given by its up masks."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        for j in iter_bits(mask):
            down[j] |= 1 << i
    return down


class ListRowPoset:
    """The poset check as it was first made: the labels copied into a list,
    the up masks kept, and every row read as a list of indices, each
    element checked.  Raises as Poset does."""

    def __init__(self, labels, up_masks):
        self.n = len(labels)
        self.labels = list(labels)
        self.up = list(up_masks)
        list_row_axioms(self, [iter_bits(m) for m in self.up])


class ListRowGPoset(ListRowPoset):
    """ListRowPoset with Poset's action check after the axioms."""

    def __init__(self, labels, up_masks, action):
        self.action = [list(a) for a in action]
        super().__init__(labels, up_masks)
        list_row_action(self, [iter_bits(m) for m in self.up])


def covering_pairs_by_masks(P):
    """(i, j) with i < j and nothing strictly between, read off P's up and
    down masks: no strict member of i's up mask has j in its strict up
    mask."""
    up = up_masks(P)
    down = down_masks(up)
    out = []
    for i in range(P.n):
        strict = up[i] & ~(1 << i)
        for j in iter_bits(strict):
            if not (strict & down[j] & ~(1 << j)):
                out.append((i, j))
    return out


def chain_counts_by_element(X):
    """Face counts of the order complex of X, counted at every element
    over its strict up mask (the count before it was taken on orbits)."""
    up = up_masks(X)
    strict_up = [iter_bits(up[i] & ~(1 << i)) for i in range(X.n)]
    counts = []
    c = [1] * X.n
    while any(c):
        counts.append(sum(c))
        c = [sum([c[j] for j in row]) for row in strict_up]
    return counts


def commuting_up_masks(ctx, apairs):
    """The up mask of every commuting-poset element, listed together as
    block_geometry first held them: "elements at a pair above e" ANDed with
    "elements whose kappa holds v" over v in kappa, in element order."""
    aposet = apairs.poset
    family_index = {}
    pairs_at = []
    family_of_pair = []
    for i, pr in enumerate(apairs.pairs):
        f = family_index.setdefault(pr.subgroup.element_set, len(pairs_at))
        if f == len(pairs_at):
            pairs_at.append([])
        pairs_at[f].append(i)
        family_of_pair.append(f)
    family = [apairs.pairs[at[0]].subgroup for at in pairs_at]
    _vertices, _adj, _vmask, cliques = product_walk(family, ctx.p)
    elements = []
    containing = defaultdict(int)
    for kappa, kmask, A in cliques:
        for pid in pairs_at[A]:
            for v in kappa:
                containing[v] |= 1 << len(elements)
            elements.append((kmask, pid))
    up_a = up_masks(aposet)
    at_pair = [0] * aposet.n
    for i, (_kmask, pid) in enumerate(elements):
        at_pair[pid] |= 1 << i
    up = []
    for kmask, pid in elements:
        mask = _row_or(at_pair, iter_bits(up_a[pid]))
        for v in iter_bits(kmask):
            mask &= containing[v]
        up.append(mask)
    return up


# -- names only the tests read --------------------------------------------


def field_pow(F, a, n):
    """a^n in the field F; a negative n inverts a^-n."""
    if n < 0:
        return F.inv(field_pow(F, a, -n))
    return pow(a, n, F.p) if F.d == 1 else F.pow(a, n)


def frobenius(F, a):
    """a^p in the field F."""
    return field_pow(F, a, F.p)


def algebra_one(group, field):
    """The identity of the group algebra: 1 at the group's identity."""
    return GroupAlgebraElement(group, field, {group.identity(): field.one})


def decode(F, n):
    """The element of F whose integer encoding is n: the residue in GF(p),
    the base-p digits of n, lowest first, in GF(p^d)."""
    if F.d == 1:
        return n % F.p
    return tuple(n // F.p ** i % F.p for i in range(F.d))


def field_elements(F):
    """The elements of F in increasing integer encoding."""
    return [decode(F, n) for n in range(F.q)]


def extension_mul_by_loop(F, a, b):
    """The product of a and b in GF(p^d) = F: schoolbook over the integers,
    then each coefficient above degree d - 1 cleared by the monic modulus,
    from the top down."""
    p, d, modulus = F.p, F.d, F.modulus
    coeffs = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                coeffs[i + j] += x * y
    coeffs = [c % p for c in coeffs]
    for i in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(d + 1):
                coeffs[i - d + j] = (coeffs[i - d + j] - c * modulus[j]) % p
    return tuple(coeffs[:d])


def brauer_hom(Q, a):
    """Truncate the Q-fixed element a of kG to kC_G(Q).

    Raises ValueError when a is not fixed by Q-conjugation.
    """
    if not is_fixed_by(a, Q.generators):
        raise ValueError("element is not Q-stable")
    return a.truncate(perms_centralizer(a.group, Q).elements)


def cyclic_group(n, label=None):
    if n == 1:
        return PermGroup.trivial(1, label or "C1")
    g = Permutation.from_cycles(n, [list(range(1, n + 1))])
    return PermGroup.from_generators(n, [g], label or f"C{n}")


def is_idempotent(a):
    return bool(a) and algebra_product(a, a) == a


def algebra_product(a, b):
    """a b in kG, term by term: every product of a term of a with a term
    of b, the coefficients added."""
    F = a.field
    out = {}
    for x, cx in a.support.items():
        for y, cy in b.support.items():
            z = x * y
            out[z] = F.add(out.get(z, F.zero), F.mul(cx, cy))
    return GroupAlgebraElement(a.group, F, out)


def is_fixed_by(a, gens):
    """Is a fixed by conjugation by every g in gens, term by term?"""
    return all(a.conjugates_to(g, g.inverse(), a) for g in gens)


def normal_containment_by_products(lo, hi, C):
    """(Q, e) normal-in (R, f) from the definition, C = C_G(R): Q inside R
    and normal in it by conjugating Q's generators by R's, e fixed by R's
    generators term by term, and Br_R(e) f = f as a product in kC_G(R)
    over permutations."""
    Q, R = lo.subgroup, hi.subgroup
    qset = Q.element_set
    if not qset <= R.element_set:
        return False
    if any(x.conjugate(r) not in qset for r in R.generators
           for x in Q.generators):
        return False
    e = lo.idempotent
    if not is_fixed_by(e, R.generators):
        return False
    f = hi.idempotent
    return algebra_product(e.truncate(C.elements), f) == f


def poset_from_leq_pairs(labels, pairs):
    """A Poset from its relation given as (i, j) pairs; reflexivity added."""
    up = [1 << i for i in range(len(labels))]
    for i, j in pairs:
        up[i] |= 1 << j
    return Poset(labels, up)


def complex_euler_characteristic(C):
    return sum((-1) ** n * len(fs) for n, fs in enumerate(C.faces_by_dim))


def homology_euler_characteristic(H):
    return sum((-1) ** n * b for n, (b, _t) in enumerate(H.groups))


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
    up_a = up_masks(aposet)
    above_pair = []
    for pid in range(aposet.n):
        mask = 0
        for above in iter_bits(up_a[pid]):
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
    return BlockGeometry(ctx, apairs, vertices, elements, kposet, expand_map,
                         collapse_map)


def quillen_pair_check_by_element(X, Y, fmap, hmap):
    """(ok, the five verdicts, failures) of quillen_pair_check, every test
    run at every element and every relation tested pair by pair."""
    failures = []

    def order_preserving(X, Y, fmap, tag):
        ok = True
        for i, j in X.leq_pairs():
            if not Y.leq(fmap[i], fmap[j]):
                failures.append((tag, "order", X.labels[i], X.labels[j]))
                ok = False
        return ok

    def equivariant(X, Y, fmap, tag):
        ok = True
        for a_x, a_y in zip(X.action, Y.action):
            for i in range(X.n):
                if fmap[a_x[i]] != a_y[fmap[i]]:
                    failures.append((tag, "equivariance", X.labels[i]))
                    ok = False
        return ok

    def uniform_direction(X, roundtrip, tag):
        seen = set()
        for i in range(X.n):
            j = roundtrip[i]
            if i == j:
                continue
            if X.leq(i, j):
                seen.add("up")
            elif X.leq(j, i):
                seen.add("down")
            else:
                failures.append((tag, "incomparable", X.labels[i]))
                return None
        if len(seen) == 2:
            failures.append((tag, "mixed directions"))
            return None
        return {"up": "id<=" + tag, "down": tag + "<=id"}.get(
            seen.pop() if seen else None, "id=" + tag)

    f_ord = order_preserving(X, Y, fmap, "F")
    h_ord = order_preserving(Y, X, hmap, "H")
    f_eq = equivariant(X, Y, fmap, "F")
    h_eq = equivariant(Y, X, hmap, "H")
    rt_x = uniform_direction(X, [hmap[f] for f in fmap], "HF")
    rt_y = uniform_direction(Y, [fmap[h] for h in hmap], "FH")
    ok = all([f_ord, h_ord, f_eq, h_eq, rt_x is not None, rt_y is not None])
    return ok, f_ord, h_ord, f_eq, h_eq, rt_x, rt_y, failures


def theorem1_scans(geom):
    """(collapse_expand_is_identity, pointwise_below_expansion) of theorem1
    by a scan of every pair and every commuting-poset element, as the check
    found them before it read them off the certificate's round trips."""
    A, K = geom.aposet, geom.kposet
    expand, collapse = geom.expand_map, geom.collapse_map
    identity = all(collapse[expand[i]] == i for i in range(A.n))
    below = all(K.leq(j, expand[collapse[j]]) for j in range(K.n))
    return identity, below


def _power(x, n):
    y = Permutation.identity(x.degree)
    for _ in range(n):
        y = y * x
    return y


def order_p_subgroups(G, p):
    """All subgroups of order p, sorted canonically: one closure per
    element of order p, against the order-p conjugates of the p-subgroup
    classes."""
    found = {}
    for x in G.elements:
        if x.order() == p:
            members = frozenset(_power(x, k) for k in range(p))
            if members not in found:
                found[members] = PermGroup.from_elements(
                    G.degree, members, label=f"<{x.cycle_string()}>")
    return sorted(found.values(), key=PermGroup.key)


class CommutingGraph:
    __slots__ = ("vertices", "adjacency")

    def __init__(self, vertices, adjacency):
        self.vertices = vertices      # order-p subgroups, canonically sorted
        self.adjacency = adjacency    # bitmask per vertex


def commuting_graph(G, p):
    """All order-p subgroups of G, joined when they commute elementwise."""
    vertices = order_p_subgroups(G, p)
    return CommutingGraph(list(vertices), commuting_adjacency(vertices))


def complex_from_faces(faces):
    """The simplicial complex that is the downward closure of faces."""
    by_dim = {}
    stack = [tuple(sorted(set(f))) for f in faces]
    seen = set(stack)
    while stack:
        f = stack.pop()
        by_dim.setdefault(len(f) - 1, set()).add(f)
        if len(f) > 1:
            for k in range(len(f)):
                sub = f[:k] + f[k + 1:]
                if sub not in seen:
                    seen.add(sub)
                    stack.append(sub)
    if not by_dim:
        return SimplicialComplex([])
    top = max(by_dim)
    return SimplicialComplex([sorted(by_dim.get(n, ()))
                              for n in range(top + 1)])


def face_poset(C):
    """Nonempty faces of a complex, ordered by inclusion."""
    faces = [f for fs in C.faces_by_dim for f in fs]
    containing = defaultdict(int)   # vertex -> mask of the faces holding it
    for i, f in enumerate(faces):
        for v in f:
            containing[v] |= 1 << i
    up = []
    for f in faces:
        mask = -1
        for v in f:
            mask &= containing[v]
        up.append(mask)
    return Poset([str(tuple(v for v in f)) for f in faces], up)


def principal_clique_by_closures(ctx, geom):
    """The principal-clique check on its own commuting graph: every order-p
    subgroup of G found by closure, each face's product by a permutation
    closure, and the face poset from the downward closure of the cliques."""
    target = _target(ctx.G, ctx.F, ctx.block)
    if not ctx.block.principal:
        return CheckResult("principal-clique", target, "skipped",
                           details={"reason": "block is not principal"})
    graph = commuting_graph(ctx.G, ctx.p)
    faces = [clique for clique, _ in iter_cliques(graph.adjacency)]
    complex_ = complex_from_faces(faces)
    fposet = face_poset(complex_)
    details = {"graph_vertices": len(graph.vertices), "cliques": len(faces),
               "commuting_elements": geom.kposet.n}
    vindex = {Q.element_set: i for i, Q in enumerate(geom.vertices)}
    kindex = {ke: i for i, ke in enumerate(geom.elements)}
    pairs_by_subgroup = {}
    for i, pr in enumerate(geom.apairs.pairs):
        pairs_by_subgroup.setdefault(pr.subgroup.element_set, []).append(i)
    fmap = []
    for f in (f for fs in complex_.faces_by_dim for f in fs):
        members = [graph.vertices[v] for v in f]
        try:
            kmask = sum(1 << vindex[Q.element_set] for Q in members)
        except KeyError:
            return CheckResult("principal-clique", target, "fail",
                               details=details,
                               witnesses=["vertex missing from the block poset"])
        pids = pairs_by_subgroup.get(product_subgroup(members).element_set,
                                     [])
        if len(pids) != 1:
            return CheckResult("principal-clique", target, "fail",
                               details=details,
                               witnesses=[f"{len(pids)} pairs at a product"])
        fmap.append(kindex[(kmask, pids[0])])
    ok, witness = poset_iso_check(fposet, geom.kposet, fmap)
    return CheckResult("principal-clique", target, "pass" if ok else "fail",
                       details=details, witnesses=[] if ok else [witness])
