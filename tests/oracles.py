"""Independent oracles that only the tests call.

* Betti numbers from ranks over the rationals, by dense Fraction
  elimination, against the Smith-form route of `topology.homology`;
* conjugation of a whole subgroup and of a group-algebra element, term by
  term, against the conjugation tables and orbit trees of the library;
* the blocks of kG from the recursive splitter against the exhaustive
  central-idempotent enumeration, as a check result;
* the index tables built from permutation products, every subgroup of a
  small group by one closure per extension, and a centralizer narrowed by
  one G-wide column per generator, against the tables that the closure
  records and the bitset and in-centralizer scans of the library.
"""

import time
from fractions import Fraction

from blockposets.blocks import (
    GroupAlgebraElement,
    blocks,
    brute_force_central_idempotents,
    class_sum_algebra,
)
from blockposets.errors import SizeLimitExceeded
from blockposets.perms import PermGroup
from blockposets.topology import boundary_matrices
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


def check_blocks_oracle(G, F, algebra=None, oracle_bound=1 << 20):
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
