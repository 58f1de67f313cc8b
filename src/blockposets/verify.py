"""Verification suites over a block: structured, witness-carrying checks.

Each checker returns a CheckResult that is serializable into the report
format of the command line interface.  The suites:

* theorem1:        the expand/collapse maps between the elementary abelian
                   pair poset and the commuting poset are inverse equivariant
                   order maps with one-sided comparison round trips.
* homology:        integral homology of the two order complexes agrees in
                   every degree; Euler characteristics compared regardless.
* nonclique:       clique-complex obstruction search; principal blocks must
                   come back clean.
* principal-type:  every Brauer image is zero or a single block.
* theorem2:        the isomorphism-class poset of the commuting category is
                   isomorphic to the orbit poset of the commuting poset, with
                   the explicit mutually inverse maps.
* principal-clique: for a principal block, the commuting poset is the face
                   poset of the clique complex of the commuting graph
                   (skipped on other blocks; not in DEFAULT_CHECKS).
"""

from __future__ import annotations

import time
from collections import deque

from . import __version__
from .brauer import BlockContext
from .commuting import (
    block_geometry,
    clique_witness,
    commuting_graph,
    iter_cliques,
    product_subgroup,
)
from .errors import SizeLimitExceeded, TheoryViolation
from .fusion import CommutingCategory, FusionSystem, IsoClassPoset
from .topology import (
    SimplicialComplex,
    chain_counts,
    face_poset,
    homology,
    iter_bits,
    orbit_poset,
    order_complex,
    poset_iso_check,
    quillen_pair_check,
)

HOMOLOGY_SIMPLEX_BOUND = 100_000


class CheckResult:
    __slots__ = ("name", "target", "status", "details", "witnesses",
                 "elapsed")

    def __init__(self, name, target, status, details=None, witnesses=None,
                 elapsed=0.0):
        self.name = name
        self.target = target
        self.status = status              # "pass" | "fail" | "skipped"
        self.details = {} if details is None else details
        self.witnesses = [] if witnesses is None else witnesses
        self.elapsed = elapsed

    @property
    def passed(self):
        return self.status == "pass"

    def to_json_dict(self, include_timing=False):
        out = {
            "name": self.name,
            "target": self.target,
            "status": self.status,
            "details": self.details,
            "witnesses": [str(w) for w in self.witnesses],
            "version": __version__,
        }
        if include_timing:
            out["time_s"] = round(self.elapsed, 3)
        return out


def _target(G, F, block=None):
    out = {"group": G.label, "order": G.order, "p": F.p, "d": F.d}
    if block is not None:
        out["block"] = block.index
        out["principal"] = block.principal
    return out


def check_theorem1(ctx, geom):
    """Inverse equivariant order maps between the two posets of the block."""
    start = time.monotonic()
    A, K = geom.aposet, geom.kposet
    cert = quillen_pair_check(A, K, geom.expand_map, geom.collapse_map)
    collapse_expand_identity = all(
        geom.collapse_map[geom.expand_map[i]] == i for i in range(A.n))
    pointwise_below = all(
        K.leq(j, geom.expand_map[geom.collapse_map[j]]) for j in range(K.n))
    ok = cert.ok and collapse_expand_identity and pointwise_below \
        and cert.roundtrip_x == "id=HF"
    details = {
        "pairs": A.n,
        "commuting_elements": K.n,
        "certificate": {
            "forward_order_preserving": cert.forward_order_preserving,
            "backward_order_preserving": cert.backward_order_preserving,
            "forward_equivariant": cert.forward_equivariant,
            "backward_equivariant": cert.backward_equivariant,
            "roundtrip_pairs": cert.roundtrip_x,
            "roundtrip_commuting": cert.roundtrip_y,
        },
        "collapse_expand_is_identity": collapse_expand_identity,
        "pointwise_below_expansion": pointwise_below,
    }
    return CheckResult("theorem1", _target(ctx.G, ctx.F, ctx.block),
                       "pass" if ok else "fail", details=details,
                       witnesses=list(cert.failures),
                       elapsed=time.monotonic() - start)


def check_homology(ctx, geom, max_simplices=HOMOLOGY_SIMPLEX_BOUND):
    """Homology of the two order complexes agrees degree by degree.

    Face counts and Euler characteristics come from the chain count, so the
    size bound is checked before any complex is built; the complexes are
    built only within the bound, and their face counts must match the count.
    """
    start = time.monotonic()
    counts_a, counts_k = chain_counts(geom.aposet), chain_counts(geom.kposet)
    target = _target(ctx.G, ctx.F, ctx.block)
    chi_a, chi_k = _euler(counts_a), _euler(counts_k)
    size_a, size_k = sum(counts_a), sum(counts_k)
    details = {
        "simplices": [size_a, size_k],
        "euler_characteristics": [chi_a, chi_k],
    }
    if chi_a != chi_k:
        return CheckResult("homology", target, "fail", details=details,
                           witnesses=["euler characteristic mismatch"],
                           elapsed=time.monotonic() - start)
    if max(size_a, size_k) > max_simplices:
        details["reason"] = "complex exceeds homology bound; Euler check only"
        return CheckResult("homology", target, "skipped", details=details,
                           elapsed=time.monotonic() - start)
    ca = order_complex(geom.aposet)
    ck = order_complex(geom.kposet)
    if ca.face_counts() != counts_a or ck.face_counts() != counts_k:
        return CheckResult("homology", target, "fail", details=details,
                           witnesses=["face counts disagree with the chain count"],
                           elapsed=time.monotonic() - start)
    ha, hk = homology(ca), homology(ck)
    details["homology"] = [repr(ha), repr(hk)]
    status = "pass" if ha == hk else "fail"
    return CheckResult("homology", target, status, details=details,
                       witnesses=[] if status == "pass" else [repr(ha), repr(hk)],
                       elapsed=time.monotonic() - start)


def _euler(counts):
    return sum((-1) ** n * c for n, c in enumerate(counts))


def check_nonclique(ctx, geom):
    """Obstruction search; a principal block finding one is a failure."""
    start = time.monotonic()
    witness = clique_witness(geom)
    target = _target(ctx.G, ctx.F, ctx.block)
    if witness is None:
        return CheckResult("nonclique", target, "pass",
                           details={"obstruction": None},
                           elapsed=time.monotonic() - start)
    details = {
        "obstruction": list(witness.pair_labels),
        "generated_subgroup_order": witness.generated_subgroup.order,
        "brauer_vanishes": witness.brauer_vanishes,
    }
    if ctx.block.principal:
        return CheckResult("nonclique", target, "fail", details=details,
                           witnesses=["principal block cannot have an obstruction"],
                           elapsed=time.monotonic() - start)
    status = "pass" if witness.brauer_vanishes else "fail"
    witnesses = [] if witness.brauer_vanishes else \
        ["obstruction without vanishing Brauer image"]
    return CheckResult("nonclique", target, status, details=details,
                       witnesses=witnesses, elapsed=time.monotonic() - start)


def check_principal_type(ctx):
    start = time.monotonic()
    ok, outcomes, first_failure = ctx.principal_type()
    details = {
        "classes_checked": len(outcomes),
        "zero": sum(1 for _q, o in outcomes if o == "zero"),
        "single_block": sum(1 for _q, o in outcomes if o == "block"),
    }
    witnesses = [] if ok else [first_failure.label]
    return CheckResult("principal-type", _target(ctx.G, ctx.F, ctx.block),
                       "pass" if ok else "fail", details=details,
                       witnesses=witnesses, elapsed=time.monotonic() - start)


def check_theorem2(ctx, geom):
    """Iso-class poset of the commuting category vs the orbit poset."""
    start = time.monotonic()
    target = _target(ctx.G, ctx.F, ctx.block)
    fs = FusionSystem.from_block_context(ctx)
    cat = CommutingCategory(fs)
    icp = IsoClassPoset(cat)
    quotient, orbit_of = orbit_poset(geom.kposet)
    details = {"iso_classes": icp.n, "orbits": quotient.n,
               "defect_order": fs.P.order}
    if icp.n != quotient.n:
        return CheckResult("theorem2", target, "fail", details=details,
                           witnesses=["cardinality mismatch"],
                           elapsed=time.monotonic() - start)
    if icp.n == 0:
        return CheckResult("theorem2", target, "pass", details=details,
                           elapsed=time.monotonic() - start)
    forward, eta = _theorem2_maps(ctx, geom, fs, cat, icp, orbit_of)
    mutually_inverse = (
        all(eta[forward[c]] == c for c in range(icp.n))
        and all(forward[eta[o]] == o for o in range(quotient.n)))
    iso_ok, iso_witness = poset_iso_check(icp.poset, quotient, forward)
    ok = mutually_inverse and iso_ok
    details["mutually_inverse"] = mutually_inverse
    details["order_isomorphism"] = iso_ok
    witnesses = [] if ok else [iso_witness]
    return CheckResult("theorem2", target, "pass" if ok else "fail",
                       details=details, witnesses=witnesses,
                       elapsed=time.monotonic() - start)


def _theorem2_maps(ctx, geom, fs, cat, icp, orbit_of):
    """The class -> orbit map and its inverse via conjugation into P.

    forward: an object kappa (subgroups of P) decorates, through the unique
    pair below the maximal pair at its product, to a commuting-poset element;
    the orbit must not depend on the member chosen in the class (asserted).

    eta: a commuting-poset element conjugates into P by some g aligning its
    pair (Q, e) with the one below the maximal pair; the class of the image
    object is eta of its orbit.  g acts on Q, on kappa's members (inside Q)
    and on e only through the coset C_G(Q) g, as e^(cg) = e^g for c in
    C_G(Q), so admissibility and the class are constant on each coset.
    Along the commuting poset's orbit walk (GPoset.orbit_walk), an orbit's
    first element tries one g per coset (_eta_scan): the admissible ones
    must give one class (asserted), and the first is kept with its map
    Q -> P on G's element positions.  Every other element y = x^t carries
    x's map through t's conjugation table, image_y[z^t] = image_x[z], with
    the one candidate g_y = t^-1 g_x, which must pass the same test on y's
    own data and give the orbit's class, else TheoryViolation is raised,
    whatever the action says.  Maps are kept only for the walk's queue.
    """
    vindex = {Q.element_set: i for i, Q in enumerate(geom.vertices)}
    aindex = {pr.ident(): i for i, pr in enumerate(geom.apairs.pairs)}
    kindex = {ke: i for i, ke in enumerate(geom.elements)}
    forward = [None] * icp.n
    for obj_idx, obj in enumerate(cat.objects):
        kmask = sum(1 << vindex[cat.vertices[v].element_set] for v in obj)
        pair = fs.sub_pair[cat.products[obj_idx].element_set]
        orbit = orbit_of[kindex[kmask, aindex[pair.ident()]]]
        cls = icp.class_of[obj_idx]
        if forward[cls] is None:
            forward[cls] = orbit
        elif forward[cls] != orbit:
            raise TheoryViolation("class members land in different orbits",
                                  witness=cat.object_label(obj_idx))

    class_through = _admissible_class(ctx, geom, fs, cat, icp)
    walk = geom.kposet.orbit_walk
    conj = ctx.G.element_index().conj
    inverses = [t.inverse() for t in ctx.G.generators]
    eta = [None] * (max(orbit_of) + 1) if orbit_of else []
    scans = {}                      # subgroup -> its coset conjugators into P
    queue = deque()                 # (walk position, map, g), not stepped from
    for k, (y, parent, t) in enumerate(zip(walk.order, walk.parent,
                                            walk.via)):
        orbit = orbit_of[y]
        if parent < 0:
            eta[orbit], image, g = _eta_scan(ctx.G, geom, fs, class_through,
                                             y, scans)
            queue.clear()
        else:
            while queue[0][0] != parent:
                queue.popleft()
            _k, image_x, g_x = queue[0]
            image = _carry(image_x, conj[t])
            g = inverses[t] * g_x
            cls = class_through(y, image, g)
            if cls is None:
                raise TheoryViolation(
                    "transported conjugation is not admissible",
                    witness=geom.kposet.labels[y])
            if cls != eta[orbit]:
                raise TheoryViolation("eta differs across an orbit",
                                      witness=geom.kposet.labels[y])
        queue.append((k, image, g))
    return forward, eta


def _carry(image, table):
    """A map out of Q carried to Q^t along t's conjugation table."""
    return {table[z]: w for z, w in image.items()}


def _admissible_class(ctx, geom, fs, cat, icp):
    """class_through(el_idx, image, g): the class of the commuting-poset
    element conjugated by g, or None if g is not admissible.  image is the
    map x -> x^g on the element's subgroup Q, on G's element positions: it
    must be defined on Q and onto a subgroup of P, the conjugated idempotent
    must be the pair below the maximal pair there, and the images of the
    members, each the vertex holding its generator's image, an object."""
    index = ctx.G.element_index()
    domains = [frozenset(index.key(pr.subgroup)) for pr in geom.apairs.pairs]
    pair_at = {index.key(S): fs.sub_pair[S.element_set] for S in fs.family}
    vertex_at = {index.pos[x]: v for v, V in enumerate(cat.vertices)
                 for x in V.elements[1:]}
    member = [index.pos[V.generators[0]] for V in geom.vertices]
    object_index = {sum(1 << v for v in obj): i
                    for i, obj in enumerate(cat.objects)}

    def class_through(el_idx, image, g):
        kmask, pid = geom.elements[el_idx]
        if image.keys() != domains[pid]:
            return None
        target = pair_at.get(tuple(sorted(image.values())))
        if target is None:
            return None
        obj = 0
        for v in iter_bits(kmask):
            w = vertex_at.get(image.get(member[v]))
            if w is None:
                return None
            obj |= 1 << w
        obj_idx = object_index.get(obj)
        e = geom.apairs.pairs[pid].idempotent
        if obj_idx is None or not e.conjugates_to(g, target.idempotent):
            return None
        return icp.class_of[obj_idx]

    return class_through


def _eta_scan(G, geom, fs, class_through, el_idx, scans):
    """(class, map, first admissible g) of a commuting-poset element over G.

    class_through is constant on each coset C_G(Q) g of the element's
    subgroup Q (see _theorem2_maps), so it runs once per coset: on the first
    g, in G's order, of each coset that conjugates Q's generators into P,
    read off G's element index and kept in scans for the next element at
    Q.  The first admissible one of these is the first admissible g of G.
    """
    Q = geom.apairs.pairs[geom.elements[el_idx][1]].subgroup
    index = G.element_index()
    if Q.element_set not in scans:
        scans[Q.element_set] = index.coset_conjugators(Q.generators,
                                                       fs.P.elements)
    found = []
    for g in scans[Q.element_set]:
        ginv = g.inverse()
        image = {index.pos[x]: index.pos[x.conjugate(g, ginv)]
                 for x in Q.elements}
        cls = class_through(el_idx, image, g)
        if cls is not None:
            found.append((cls, image, g))
    if not found:
        raise TheoryViolation("no conjugation into the maximal pair found",
                              witness=geom.kposet.labels[el_idx])
    if len({cls for cls, _image, _g in found}) > 1:
        raise TheoryViolation("eta depends on the chosen conjugation",
                              witness=geom.kposet.labels[el_idx])
    return found[0]


def check_principal_clique_complex(ctx, geom):
    """For a principal block: the commuting poset is the face poset of the
    clique complex of the commuting graph on all order-p subgroups."""
    start = time.monotonic()
    target = _target(ctx.G, ctx.F, ctx.block)
    if not ctx.block.principal:
        return CheckResult("principal-clique", target, "skipped",
                           details={"reason": "block is not principal"},
                           elapsed=time.monotonic() - start)
    graph = commuting_graph(ctx.G, ctx.p)
    faces = [clique for clique, _ in iter_cliques(graph.adjacency)]
    n = len(graph.vertices)
    complex_ = SimplicialComplex.from_faces(faces) if faces \
        else SimplicialComplex([])
    fposet = face_poset(complex_)
    details = {"graph_vertices": n, "cliques": len(faces),
               "commuting_elements": geom.kposet.n}
    # map: clique -> (same vertex set, the unique pair at its product)
    vindex = {Q.element_set: i for i, Q in enumerate(geom.vertices)}
    kindex = {ke: i for i, ke in enumerate(geom.elements)}
    pairs_by_subgroup = {}
    for i, pr in enumerate(geom.apairs.pairs):
        pairs_by_subgroup.setdefault(pr.subgroup.element_set, []).append(i)
    fmap = []
    face_list = [f for fs in complex_.faces_by_dim for f in fs]
    for f in face_list:
        members = [graph.vertices[v] for v in f]
        try:
            kmask = sum(1 << vindex[Q.element_set] for Q in members)
        except KeyError:
            return CheckResult("principal-clique", target, "fail",
                               details=details,
                               witnesses=["vertex missing from the block poset"],
                               elapsed=time.monotonic() - start)
        prod = product_subgroup(members)
        pids = pairs_by_subgroup.get(prod.element_set, [])
        if len(pids) != 1:
            return CheckResult("principal-clique", target, "fail",
                               details=details,
                               witnesses=[f"{len(pids)} pairs at a product"],
                               elapsed=time.monotonic() - start)
        fmap.append(kindex[(kmask, pids[0])])
    ok, witness = poset_iso_check(fposet, geom.kposet, fmap)
    return CheckResult("principal-clique", target, "pass" if ok else "fail",
                       details=details,
                       witnesses=[] if ok else [witness],
                       elapsed=time.monotonic() - start)


CHECKS_BY_NAME = {
    "theorem1": check_theorem1,
    "theorem2": check_theorem2,
    "nonclique": check_nonclique,
    "principal-type": check_principal_type,
    "homology": check_homology,
    "principal-clique": check_principal_clique_complex,
}

# What verify runs when no checks are named; principal-clique runs on request.
DEFAULT_CHECKS = ("theorem1", "theorem2", "nonclique", "principal-type",
                  "homology")


def run_block_checks(group, block, names, max_simplices=HOMOLOGY_SIMPLEX_BOUND):
    """Run the named suites on one block of group, sharing one geometry build.

    group is the GroupContext of the block's group, shared by every block of
    a run.  A check that hits a resource bound is recorded as skipped, with
    the bound as its reason, and the other checks still run.  A bound hit
    while building the shared geometry skips each check that needs it.
    """
    ctx = BlockContext(group, block)
    geom = geom_bound = None
    results = []
    for name in names:
        if name not in CHECKS_BY_NAME:
            raise ValueError(f"unknown check {name!r}")
        start = time.monotonic()
        try:
            if name == "principal-type":
                results.append(check_principal_type(ctx))
                continue
            if geom_bound is not None:
                raise geom_bound
            if geom is None:
                try:
                    geom = block_geometry(ctx)
                except SizeLimitExceeded as exc:
                    geom_bound = exc
                    raise
            if name == "homology":
                results.append(check_homology(ctx, geom, max_simplices))
            else:
                results.append(CHECKS_BY_NAME[name](ctx, geom))
        except SizeLimitExceeded as exc:
            results.append(CheckResult(
                name, _target(ctx.G, ctx.F, ctx.block), "skipped",
                details={"reason": f"resource bound: {exc}"},
                elapsed=time.monotonic() - start))
    return results
