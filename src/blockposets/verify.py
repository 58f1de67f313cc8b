"""Verification suites over a block: structured, witness-carrying checks.

Each checker returns a CheckResult that is serializable into the report
format of the command line interface.  The suites:

* theorem1:        the expand/collapse maps between the elementary abelian
                   pair poset and the commuting poset are inverse equivariant
                   order maps with one-sided comparison round trips.
* homology:        integral homology of the two order complexes agrees in
                   every degree, K's computed on its Stong core; Euler
                   characteristics compared regardless.
* nonclique:       clique-complex obstruction search; principal blocks must
                   come back clean.
* principal-type:  every Brauer image is zero or a single block.
* theorem2:        the isomorphism-class poset of the commuting category is
                   isomorphic to the orbit poset of the commuting poset, with
                   the explicit mutually inverse maps.
* principal-clique: for a principal block, the commuting poset is the face
                   poset of the clique complex of the commuting graph,
                   whose cliques and products come from the commuting
                   poset's own clique walk; the face order is read off the
                   commuting poset's rows, with no second poset built
                   (skipped on other blocks; not in DEFAULT_CHECKS).

run_block_checks builds the block's geometry once, for the checks that
read it, and times each check alone.
"""

from __future__ import annotations

import time
from collections import deque

from . import __version__
from .brauer import BlockContext
from .commuting import (
    block_geometry,
    clique_witness,
    elementary_abelian_classes,
    iter_cliques,
    product_walk,
)
from .cores import stong_core
from .errors import SizeLimitExceeded, TheoryViolation
from .fusion import CommutingCategory, FusionSystem, IsoClassPoset
from .topology import (
    chain_counts,
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

    def __init__(self, name, target, status, details=None, witnesses=None):
        self.name = name
        self.target = target
        self.status = status              # "pass" | "fail" | "skipped"
        self.details = {} if details is None else details
        self.witnesses = [] if witnesses is None else witnesses
        self.elapsed = 0.0               # set by run_block_checks

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
    A, K = geom.aposet, geom.kposet
    cert = quillen_pair_check(A, K, geom.expand_map, geom.collapse_map)
    # the round trips as the certificate found them: collapse after expand
    # fixes every pair, and each element lies below its expansion
    collapse_expand_identity = cert.roundtrip_x == "id=HF"
    pointwise_below = cert.roundtrip_y in ("id<=FH", "id=FH")
    ok = cert.ok and collapse_expand_identity and pointwise_below
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
                       witnesses=list(cert.failures))


def check_homology(ctx, geom, max_simplices=HOMOLOGY_SIMPLEX_BOUND):
    """Homology of the two order complexes agrees degree by degree.

    Face counts and Euler characteristics come from the chain count, so the
    size bound is checked before any complex is built.  Within the bound
    each full complex is built, checked closed, and its face counts must
    match the count.  A's homology is then read off its full complex and
    K's off the order complex of its Stong core, which has the same
    homology (cores.stong_core).  K is where the chains are (S8 at p=3:
    41,216 in K, 2,016 in A, 896 in K's core), and with A's side computed
    without a core, a faulty core shows as a mismatch.  Above the bound
    no core is computed.
    """
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
                           witnesses=["euler characteristic mismatch"])
    if max(size_a, size_k) > max_simplices:
        details["reason"] = "complex exceeds homology bound; Euler check only"
        return CheckResult("homology", target, "skipped", details=details)
    ca = order_complex(geom.aposet)
    if ca.face_counts() != counts_a \
            or order_complex(geom.kposet).face_counts() != counts_k:
        return CheckResult("homology", target, "fail", details=details,
                           witnesses=["face counts disagree with the chain count"])
    ha, hk = homology(ca), homology(order_complex(stong_core(geom.kposet)))
    details["homology"] = [repr(ha), repr(hk)]
    status = "pass" if ha == hk else "fail"
    return CheckResult("homology", target, status, details=details,
                       witnesses=[] if status == "pass" else [repr(ha), repr(hk)])


def _euler(counts):
    return sum((-1) ** n * c for n, c in enumerate(counts))


def check_nonclique(ctx, geom):
    """Obstruction search; a principal block finding one is a failure."""
    witness = clique_witness(geom)
    target = _target(ctx.G, ctx.F, ctx.block)
    if witness is None:
        return CheckResult("nonclique", target, "pass",
                           details={"obstruction": None})
    details = {
        "obstruction": list(witness.pair_labels),
        "generated_subgroup_order": witness.generated_subgroup.order,
        "brauer_vanishes": witness.brauer_vanishes,
    }
    if ctx.block.principal:
        return CheckResult("nonclique", target, "fail", details=details,
                           witnesses=["principal block cannot have an obstruction"])
    status = "pass" if witness.brauer_vanishes else "fail"
    witnesses = [] if witness.brauer_vanishes else \
        ["obstruction without vanishing Brauer image"]
    return CheckResult("nonclique", target, status, details=details,
                       witnesses=witnesses)


def check_principal_type(ctx):
    ok, outcomes, first_failure = ctx.principal_type()
    details = {
        "classes_checked": len(outcomes),
        "zero": sum(1 for _q, o in outcomes if o == "zero"),
        "single_block": sum(1 for _q, o in outcomes if o == "block"),
    }
    witnesses = [] if ok else [first_failure.generators_string()]
    return CheckResult("principal-type", _target(ctx.G, ctx.F, ctx.block),
                       "pass" if ok else "fail", details=details,
                       witnesses=witnesses)


def check_theorem2(ctx, geom):
    """Iso-class poset of the commuting category vs the orbit poset."""
    target = _target(ctx.G, ctx.F, ctx.block)
    fs = FusionSystem.from_block_context(ctx)
    cat = CommutingCategory(fs)
    icp = IsoClassPoset(cat)
    quotient, orbit_of = orbit_poset(geom.kposet)
    details = {"iso_classes": icp.n, "orbits": quotient.n,
               "defect_order": fs.P.order}
    if icp.n != quotient.n:
        return CheckResult("theorem2", target, "fail", details=details,
                           witnesses=["cardinality mismatch"])
    if icp.n == 0:
        return CheckResult("theorem2", target, "pass", details=details)
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
                       details=details, witnesses=witnesses)


def _theorem2_maps(ctx, geom, fs, cat, icp, orbit_of):
    """The class -> orbit map and its inverse via conjugation into P.

    forward: an object kappa (a mask of the category's vertices) decorates,
    through the unique pair below the maximal pair at its product, to a
    commuting-poset element; the orbit must not depend on the member chosen
    in the class (asserted).  That pair is found in A by its subgroup's
    position key and its slot at the subgroup's site, which A's pairs and
    F's subpairs both carry, so no block is read to find it.

    eta: a commuting-poset element conjugates into P by some g aligning its
    pair (Q, e) with the one below the maximal pair; the class of the image
    object is eta of its orbit.  The map of g is held as F holds its maps,
    on G's element positions, and the image object is found by the
    category's own lookup (CommutingCategory.object_at).  g acts on Q, on
    kappa's members (inside Q) and on e only through the coset C_G(Q) g,
    as e^(cg) = e^g for c in C_G(Q), so admissibility and the class are
    constant on each coset.  Along the commuting poset's orbit walk
    (Poset.orbit_walk), an orbit's first element reads the fusions of its
    pair, one g per coset, each already passed by FusionSystem.target
    (_eta_scan): those whose images of the members form an object must
    give one class (asserted), and the first is kept with its map.  Every
    other element y = x^t carries x's map through t's conjugation table,
    image_y[z^t] = image_x[z], with the one candidate g_y = t^-1 g_x.  On
    y's own data the carried map must be defined on Q, pass target and
    give an object of the orbit's class, else TheoryViolation is raised,
    whatever the action says.  target reads y's block only where the image
    subgroup holds two or more pairs, so a carried step reads no site
    there.  g's inverse is carried beside it, g_y^-1 = g_x^-1 t, one
    product per step.  Carried maps are kept only for the walk's queue.
    """
    index = ctx.G.element_index()
    pairs, at = geom.apairs.pairs, geom.apairs.at
    keys = [index.key(Q) for Q in geom.apairs.family]
    aindex = {(keys[q], pairs[i].slot): i
              for q, ids in enumerate(at) for i in ids}
    vindex = {Q.element_set: i for i, Q in enumerate(geom.vertices)}
    kindex = {ke: i for i, ke in enumerate(geom.elements)}
    forward = [None] * icp.n
    for obj_idx, obj in enumerate(cat.objects):
        kmask = sum(1 << vindex[cat.vertices[v].element_set]
                    for v in iter_bits(obj))
        a = cat.products[obj_idx]
        orbit = orbit_of[kindex[kmask, aindex[a, fs.sub_pair[a].slot]]]
        cls = icp.class_of[obj_idx]
        if forward[cls] is None:
            forward[cls] = orbit
        elif forward[cls] != orbit:
            raise TheoryViolation("class members land in different orbits",
                                  witness=cat.object_label(obj_idx))

    class_at = _class_lookup(ctx, geom, cat, icp)
    walk = geom.kposet.orbit_walk
    conj = index.conj
    # each pair's Q on positions, for the domain test of a carried map
    domains = [frozenset(keys[q]) for q, ids in enumerate(at) for _i in ids]
    generators = ctx.G.generators
    inverses = [t.inverse() for t in generators]
    eta = [None] * (max(orbit_of) + 1) if orbit_of else []
    queue = deque()     # (walk position, map, g, g^-1), not stepped from
    for k, (y, parent, t) in enumerate(zip(walk.order, walk.parent,
                                            walk.via)):
        orbit = orbit_of[y]
        if parent < 0:
            eta[orbit], image, g = _eta_scan(geom, fs, class_at, y)
            ginv = g.inverse()
            queue.clear()
        else:
            while queue[0][0] != parent:
                queue.popleft()
            _k, image_x, g_x, ginv_x = queue[0]
            image = _carry(image_x, conj[t])
            g = inverses[t] * g_x
            ginv = ginv_x * generators[t]
            kmask, pid = geom.elements[y]
            pair = pairs[pid]
            cls = None
            if image.keys() == domains[pid] \
                    and fs.target(pair, image, g, ginv) is not None:
                cls = class_at(kmask, image)
            if cls is None:
                raise TheoryViolation(
                    "transported conjugation is not admissible",
                    witness=geom.kposet.labels[y])
            if cls != eta[orbit]:
                raise TheoryViolation("eta differs across an orbit",
                                      witness=geom.kposet.labels[y])
        queue.append((k, image, g, ginv))
    return forward, eta


def _carry(image, table):
    """A map out of Q carried to Q^t along t's conjugation table."""
    return {table[z]: w for z, w in image.items()}


def _class_lookup(ctx, geom, cat, icp):
    """class_at(kmask, image): the class of the object that a map on G's
    element positions makes of kappa, given as its mask over the commuting
    poset's vertices, or None when the images of kappa's members, each
    found from its generator's image, form no object."""
    pos = ctx.G.element_index().pos
    member = [pos[V.generators[0]] for V in geom.vertices]
    object_at, class_of = cat.object_at, icp.class_of

    def class_at(kmask, image):
        obj = object_at(image.get(member[v]) for v in iter_bits(kmask))
        return None if obj is None else class_of[obj]

    return class_at


def _eta_scan(geom, fs, class_at, el_idx):
    """(class, map, first admissible g) of a commuting-poset element over G.

    class_at is constant on each coset C_G(Q) g of the element's subgroup Q
    (see _theorem2_maps), so it runs once per coset that
    FusionSystem.fusions keeps for the element's pair: on the first g, in
    G's order, of each coset that conjugates the pair into a pair below the
    maximal pair.  A coset whose members' images form no object is skipped.
    The first admissible one of these is the first admissible g of G.
    """
    kmask, pid = geom.elements[el_idx]
    found = []
    for image, g in fs.fusions(geom.apairs.pairs[pid]):
        cls = class_at(kmask, image)
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
    clique complex of the commuting graph on all order-p subgroups.

    The graph, its cliques and their products come from the commuting
    poset's own clique walk, product_walk, run over every nontrivial
    elementary abelian subgroup of G with no Brauer filter.  Two counts keep
    the certificate independent of the classes of p-subgroups that the
    walk and the commuting poset are both read from: the vertices must hold
    every element of order p of G, p - 1 in each, or a vertex is missing;
    and the walk must cut no clique of its graph, or a clique's product is
    missing.  The faces are taken by size, then lexicographically; each
    maps to the element of the commuting poset with the same vertices and
    the one pair at the face's product.  The faces are ordered by
    inclusion, and the map keeps each face's vertices, so a bijection is
    an isomorphism iff the commuting poset's row at the image of each face
    kappa holds only elements whose vertices contain kappa's, and as many
    as there are faces containing kappa: the popcount of the AND, over
    kappa's vertices v, of the faces holding v.  At the first face whose
    row fails, the witness is the first face whose inclusion disagrees
    with the commuting poset's order, as poset_iso_check reports it.
    """
    target = _target(ctx.G, ctx.F, ctx.block)
    if not ctx.block.principal:
        return CheckResult("principal-clique", target, "skipped",
                           details={"reason": "block is not principal"})
    p, K = ctx.p, geom.kposet
    family = [S for i in elementary_abelian_classes(ctx.group)
              for S in ctx.group.conjugates(i)]
    order_p = sum(len(c.members) for c in ctx.group.algebra.classes
                  if c.representative.order() == p)
    details = {"graph_vertices": order_p // (p - 1),
               "commuting_elements": K.n}
    if (p - 1) * sum(1 for S in family if S.order == p) != order_p:
        return _clique_failure(target, details,
                               "vertex missing from the block poset")
    vertices, adjacency, _vmask, cliques = product_walk(family, p)
    faces = sorted(((kappa, A) for kappa, _kmask, A in cliques),
                   key=lambda face: (len(face[0]), face[0]))
    details["cliques"] = sum(1 for _ in iter_cliques(adjacency))
    if len(faces) != details["cliques"]:
        return _clique_failure(target, details, "0 pairs at a product")
    vindex = {Q.element_set: i for i, Q in enumerate(geom.vertices)}
    in_k = [vindex.get(V.element_set) for V in vertices]
    pairs_at = {}
    for i, pr in enumerate(geom.apairs.pairs):
        pairs_at.setdefault(pr.subgroup.element_set, []).append(i)
    kindex = {ke: i for i, ke in enumerate(geom.elements)}
    fmap = []
    holding = [0] * len(vertices)       # the faces holding each vertex
    for f, (kappa, A) in enumerate(faces):
        if any(in_k[v] is None for v in kappa):
            return _clique_failure(target, details,
                                   "vertex missing from the block poset")
        pids = pairs_at.get(family[A].element_set, ())
        if len(pids) != 1:
            return _clique_failure(target, details,
                                   f"{len(pids)} pairs at a product")
        fmap.append(kindex[sum(1 << in_k[v] for v in kappa), pids[0]])
        for v in kappa:
            holding[v] |= 1 << f
    if len(faces) != K.n:
        return _clique_failure(target, details, ("size", len(faces), K.n))
    if sorted(fmap) != list(range(K.n)):
        return _clique_failure(target, details, ("not a bijection",))
    kmasks = [kmask for kmask, _pid in geom.elements]
    members, offsets = K.members, K.offsets
    for (kappa, _A), t in zip(faces, fmap):
        above = -1                      # the faces holding kappa
        for v in kappa:
            above &= holding[v]
        mask, row = kmasks[t], members[offsets[t]:offsets[t + 1]]
        if len(row) == above.bit_count() \
                and all(kmasks[u] & mask == mask for u in row):
            continue
        for f, u in enumerate(fmap):
            if bool(above >> f & 1) != K.leq(t, u):
                return _clique_failure(
                    target, details, ("order", str(kappa), str(faces[f][0])))
    return CheckResult("principal-clique", target, "pass", details=details)


def _clique_failure(target, details, witness):
    return CheckResult("principal-clique", target, "fail", details=details,
                       witnesses=[witness])


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
    A check's elapsed time covers its own work and, for the first check to
    read the block's geometry, the geometry's build.
    """
    ctx = BlockContext(group, block)
    geom = geom_bound = None
    results = []
    for name in names:
        if name not in CHECKS_BY_NAME:
            raise ValueError(f"unknown check {name!r}")
        start = time.monotonic()
        try:
            args = (ctx,)
            if name != "principal-type":
                if geom_bound is not None:
                    raise geom_bound
                if geom is None:
                    try:
                        geom = block_geometry(ctx)
                    except SizeLimitExceeded as exc:
                        geom_bound = exc
                        raise
                args = (ctx, geom, max_simplices) if name == "homology" \
                    else (ctx, geom)
            result = CHECKS_BY_NAME[name](*args)
        except SizeLimitExceeded as exc:
            result = CheckResult(
                name, _target(ctx.G, ctx.F, ctx.block), "skipped",
                details={"reason": f"resource bound: {exc}"})
        result.elapsed = time.monotonic() - start
        results.append(result)
    return results
