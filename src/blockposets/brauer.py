"""The Brauer homomorphism, Brauer pairs, containment, and defect groups.

For a p-subgroup Q the Brauer homomorphism truncates a Q-fixed element of kG
to its support inside C_G(Q); on Q-fixed points it is multiplicative, so the
image of a block b is a sum of blocks of kC_G(Q).  A pair (Q, e) belongs to b
when e appears in that sum.

Containment of pairs is generated by one-step normal containment:
(Q, e) is normal in (R, f) iff Q is normal in R, e is R-stable, and the
truncation of e to C_G(R) multiplies f to itself.  The full order is the
transitive closure along subnormal chains; existence and uniqueness of the
pair below a given one at each subgroup is asserted on the computed data
rather than assumed.

The work splits the way the definitions do.  C_G(Q), the blocks of kC_G(Q)
and the G-orbit of Q depend only on G and Q: a GroupContext holds them once
per (G, F), together with the blocks of kG and the p-subgroup classes, and
is shared by every block of a run.  The block b only chooses which blocks of
kC_G(Q) are pairs: a BlockContext holds b's choice at each class
representative, the Brauer images and the pairs, and reaches every other
subgroup of the class by conjugation.

Sites are conjugated once per orbit step.  The orbit of a class is a BFS
tree along G's generators, and a site is carried from parent to child
through one generator's conjugation table.  A block e of kC_G(Q) is a sum
of C_G(Q)-class sums, so e^(cg) = e^g for c in C_G(Q): whatever
conjugating by g does to Q and its blocks depends only on the coset
C_G(Q) g, which lets eta and the fusion maps scan one g per coset and
normal containment test stability only under generators outside C_G(Q).
This is asserted at each representative site (every block fixed by the
generators of the centralizer) and inherited by its conjugates.
"""

from __future__ import annotations

from .blocks import GroupAlgebraElement, blocks, class_sum_algebra
from .errors import TheoryViolation
from .perms import (
    PermGroup,
    centralizer,
    normalizer,
    p_subgroups_up_to_conjugacy,
)
from .topology import GPoset, Poset, closure_masks


def brauer_hom(Q, a):
    """Truncate the Q-fixed element a of kG to kC_G(Q).

    Raises ValueError when a is not fixed by Q-conjugation.
    """
    if not a.is_fixed_by(Q.generators):
        raise ValueError("element is not Q-stable")
    C = centralizer(a.group, Q)
    return a.truncate(C.elements)


class BrauerPair:
    """(Q, e): a p-subgroup with a block e of kC_G(Q)."""

    __slots__ = ("subgroup", "idempotent", "centralizer", "_key")

    def __init__(self, subgroup, idempotent, centralizer_group):
        self.subgroup = subgroup
        self.idempotent = idempotent
        self.centralizer = centralizer_group
        self._key = None

    def key(self):
        if self._key is None:
            self._key = (self.subgroup.key(), self.idempotent.key())
        return self._key

    def ident(self):
        """Hashable identity (subgroup elements, idempotent support)."""
        return (self.subgroup.element_set, self.idempotent.key())

    def label(self):
        gens = ",".join(x.cycle_string() for x in self.subgroup.generators) or "1"
        return f"(<{gens}>, e[{len(self.idempotent.support)}])"

    def __eq__(self, other):
        return isinstance(other, BrauerPair) and self.ident() == other.ident()

    def __hash__(self):
        return hash(self.ident())

    def __repr__(self):
        return f"BrauerPair{self.label()}"


class _Site:
    """What G says about one p-subgroup Q: C_G(Q) and the blocks of kC_G(Q).

    index is Q's class; every site of a class lists its blocks in the order
    of the representative's, so a slot means the same block up to
    conjugation anywhere in the class.
    """

    __slots__ = ("subgroup", "centralizer", "blocks", "index")

    def __init__(self, subgroup, centralizer_group, block_elements, index):
        self.subgroup = subgroup
        self.centralizer = centralizer_group
        self.blocks = block_elements
        self.index = index


class DefectData:
    """The defect groups of a block: one conjugacy class of p-subgroups."""

    __slots__ = ("block", "representative", "order", "fingerprint",
                 "num_conjugates")

    def __init__(self, block, representative, order, fingerprint,
                 num_conjugates):
        self.block = block
        self.representative = representative
        self.order = order
        self.fingerprint = fingerprint
        self.num_conjugates = num_conjugates

    def is_dihedral_order_8(self):
        fp = self.fingerprint
        return (fp["order"] == 8 and fp["exponent"] == 4
                and not fp["abelian"] and not fp["cyclic"])


class BrauerPairPoset:
    """All pairs over a family of subgroups, with the containment order."""

    def __init__(self, pairs, normal_edges, poset):
        self.pairs = pairs
        self.normal_edges = normal_edges
        self.poset = poset  # GPoset when the family is conjugation closed

    @property
    def n(self):
        return len(self.pairs)


class GroupContext:
    """Everything about (G, F) that does not depend on the block.

    Built once and shared by every block of a run:

    * the class-sum algebra of G and the blocks of kG;
    * the G-classes of p-subgroups, as (R, orbit) with orbit a SubgroupOrbit
      mapping the position key of each conjugate Q (the increasing tuple of
      its elements' positions in G) to one g with Q = R^g.  Q is located by
      probing the orbit of each class of its order with Q's own key;
    * per class representative R, on first request: C_G(R), the class-sum
      algebra Z(kC_G(R)) and the blocks of kC_G(R) (at the trivial subgroup
      these are G, the algebra and the blocks of kG).  Every block of
      kC_G(R) must be fixed by the generators of C_G(R), which is asserted
      (else TheoryViolation): the coset scans of the fusion maps and of
      eta, and the stability test of normal containment, rest on
      e^(cg) = e^g for c in C_G(R).
    * the site of any other Q in the class, carried down the orbit tree:
      Q's parent site conjugated by the generator t that links them (the
      orbit link holds the parent's key; t is recovered from the two keys),
      every element and every block's support through t's conjugation
      table.  The Brauer truncations read the carried centralizer as its
      sorted elements tuple, so its element set is never built.  The
      tree's conjugators compose to Q's g, so the i-th block at Q is the
      i-th block at R conjugated by g, and the sites at conjugates inherit
      the centrality of R's.  Every site reached is memoised under its
      position key.
    """

    def __init__(self, G, F):
        self.G = G
        self.F = F
        self.p = F.p
        self.algebra = class_sum_algebra(G, F)
        self.blocks = blocks(G, F, algebra=self.algebra)
        self._classes = None
        self._sites = {}
        self._centers = {}  # class index -> (Z(kC_G(R)), blocks of kC_G(R))

    @property
    def classes(self):
        """[(R, orbit)] per G-class of p-subgroups, the trivial class first."""
        if self._classes is None:
            self._classes = p_subgroups_up_to_conjugacy(self.G, self.p)
        return self._classes

    def _key(self, Q):
        """Q's position key in G, or None when Q is not a subgroup of G."""
        try:
            return self.G.element_index().key(Q)
        except KeyError:
            return None

    def locate(self, Q):
        """(i, g) with Q = R^g for the representative R of class i.

        Raises ValueError when Q is not a p-subgroup of G.
        """
        key = self._key(Q)
        if key is not None:
            for i, (R, orbit) in enumerate(self.classes):
                if R.order == Q.order and key in orbit:
                    return i, orbit[key]
        raise ValueError(f"not a {self.p}-subgroup of {self.G.label}: "
                         f"{Q.label or Q!r}")

    def conjugates(self, i):
        """Every subgroup of class i, in orbit order: the subgroups of their
        sites, each built down the orbit tree."""
        return [self._site_at(i, key).subgroup for key in self.classes[i][1]]

    def _site(self, Q):
        key = self._key(Q)
        site = self._sites.get(key)
        if site is None:
            i, _g = self.locate(Q)
            site = self._site_at(i, key)
        return site

    def _site_at(self, i, key):
        """The site at the subgroup of class i whose position key is key."""
        R, orbit = self.classes[i]
        links = orbit.links
        path = []                       # conjugates, from key upwards
        while key not in self._sites and key in links:
            path.append(key)
            key = links[key]
        site = self._sites.get(key)
        if site is None:
            site = self._sites[key] = self._representative_site(i, R)
        step = self.G.element_index().generator_between
        for child in reversed(path):
            site = self._sites[child] = self._carry(site, step(key, child))
            key = child
        return site

    def _carry(self, site, t):
        """The site at Q^t from the site at Q, t the t-th generator of G."""
        image = self.G.element_index().conj_image
        Q, C = site.subgroup, site.centralizer
        blocks_t = []
        for e in site.blocks:
            terms = e.support
            blocks_t.append(GroupAlgebraElement(
                e.group, e.field, dict(zip(image(t, terms), terms.values()))))
        return _Site(PermGroup(Q.degree, image(t, Q.generators),
                               image(t, Q.elements), Q.label),
                     PermGroup(C.degree, image(t, C.generators),
                               image(t, C.elements), C.label),
                     blocks_t, site.index)

    def _representative_site(self, i, R):
        if R.order == 1:
            A, block_list = self.algebra, self.blocks
        else:
            C = centralizer(self.G, R, label=f"C({R.label})")
            A = class_sum_algebra(C, self.F)
            block_list = blocks(C, self.F, algebra=A)
        self._centers[i] = (A, block_list)
        site = _Site(R, A.group, [blk.element for blk in block_list], i)
        _assert_central(site)
        return site

    def _conjugate_into(self, i, T):
        """Is some G-conjugate of class i's representative contained in T?"""
        R, orbit = self.classes[i]
        if R.order > T.order:
            return False
        inside = set(self.G.element_index().key(T))
        return any(inside.issuperset(key) for key in orbit)


def _assert_central(site):
    """Every block at the site is fixed by the generators of C_G(Q).

    Read on the centralizer's own conjugation tables: e is fixed by the
    t-th generator iff each term x of e has the coefficient of x at the
    image of x.
    """
    C = site.centralizer
    index = C.element_index()
    for s, e in enumerate(site.blocks):
        terms = e.support
        for t in range(len(C.generators)):
            if any(terms.get(y) != c for y, c in
                   zip(index.conj_image(t, terms), terms.values())):
                raise TheoryViolation(
                    "block of the centralizer is not fixed by the centralizer",
                    witness=(site.subgroup.label, s))


class BlockContext:
    """The pairs of one block b, over a GroupContext of its group.

    b's pairs at a class representative R are decided inside
    A = Z(kC_G(R)).  Br_R(b) is central in kC_G(R), so it is read off as its
    coefficients at the C_G(R)-class representatives, and expanding those
    coordinates must give back Br_R(b) exactly (else TheoryViolation).
    Block i of kC_G(R) is a pair iff e_i * Br_R(b) == e_i as coordinate
    vectors in A, which costs about dim^2 field operations instead of
    |supp|^2 permutation products.  Only the resulting slot list is kept.

    Any other Q = R^g reads R's slots against its own site, whose i-th block
    is the i-th block at R conjugated by g (b is central, so
    Br_Q(b) = Br_R(b)^g).  The pairs at every subgroup must sum to Br_Q(b),
    which is asserted.
    """

    def __init__(self, group, block):
        if block.group is not group.G:
            raise ValueError("the block is not a block of the context's group")
        self.group = group
        self.block = block
        self.G = group.G
        self.F = group.F
        self.p = group.p
        self._slots = {}  # class index -> pair slots at its representative
        self._brauer = {}
        self._pairs = {}
        self._defect = None

    # -- sites ----------------------------------------------------------

    def site(self, Q):
        """Q's site, with b's pair slots decided for Q's class."""
        site = self.group._site(Q)
        if site.index not in self._slots:
            self._slots[site.index] = self._decide_slots(site.index)
        return site

    def _decide_slots(self, i):
        """b's pair slots at class i's representative R, decided in
        A = Z(kC_G(R))."""
        R = self.group.classes[i][0]
        A, block_list = self.group._centers[i]
        br = self.block.element.truncate(A.group.elements)
        self._brauer[R.element_set] = br
        zero = self.F.zero
        brc = [br.support.get(cls.representative, zero) for cls in A.classes]
        if A.expand(brc) != br:
            raise TheoryViolation(
                "Brauer image of the block is not central in the centralizer",
                witness=R.label)
        slots = []
        for s, blk in enumerate(block_list):
            coords = list(blk.coords)
            if A.mult(coords, brc) == coords:
                slots.append(s)
        return slots

    def centralizer_of(self, Q):
        return self.site(Q).centralizer

    def blocks_at(self, Q):
        return self.site(Q).blocks

    def brauer_image(self, Q):
        """Br_Q(b); the block is central hence fixed by every subgroup."""
        key = Q.element_set
        hit = self._brauer.get(key)
        if hit is None:
            C = self.site(Q).centralizer
            hit = self.block.element.truncate(C.elements)
            self._brauer[key] = hit
        return hit

    def brauer_nonzero(self, Q):
        return bool(self.brauer_image(Q))

    def pairs_at(self, Q):
        """The pairs (Q, e); empty exactly when Br_Q(b) = 0."""
        key = Q.element_set
        hit = self._pairs.get(key)
        if hit is not None:
            return hit
        site = self.site(Q)
        br = self.brauer_image(Q)
        out = []
        if br:
            total = GroupAlgebraElement.zero(self.G, self.F)
            for s in self._slots[site.index]:
                e = site.blocks[s]
                out.append(BrauerPair(Q, e, site.centralizer))
                total = total + e
            if total != br:
                raise TheoryViolation(
                    "Brauer image of the block is not the sum of its pair blocks",
                    witness=Q.label)
        self._pairs[key] = out
        return out

    # -- containment ------------------------------------------------------

    def normal_containment(self, lo, hi):
        """One-step containment (Q, e) normal-in (R, f).

        R-stability of e is tested per generator r of R that moves Q's
        generators.  One that fixes them centralizes Q, and e, a block of
        kC_G(Q), is fixed by C_G(Q) (asserted at the representative site).
        """
        Q, R = lo.subgroup, hi.subgroup
        qset = Q.element_set
        if not qset <= R.element_set:
            return False
        moving = []
        for r in R.generators:
            rinv = r.inverse()
            images = tuple([x.conjugate(r, rinv) for x in Q.generators])
            if any(y not in qset for y in images):
                return False  # Q not normal in R
            if images != Q.generators:
                moving.append(r)
        e = lo.idempotent
        if not e.is_fixed_by(moving):
            return False
        br = e.truncate(hi.centralizer.elements)
        return br * hi.idempotent == hi.idempotent

    def pair_poset(self, family, check_uniqueness=True):
        """Pairs over the family with the closure of normal containment.

        Only pairs whose subgroups are strictly contained can be related, so
        normal containment is tested on those alone.  They are found by
        subset on int bitsets: each subgroup of the family is the mask of
        its elements' positions in G's ElementIndex, and Q <= R iff
        mask(Q) & ~mask(R) == 0.  Each subgroup is filed under its least
        non-identity position (the trivial one under the identity's), and
        only the subgroups filed under an element of R are tested against R.

        The G-action is attached only when the family is closed under
        conjugation (every conjugated pair must land back in the poset).
        A pair's image under a generator is read off the generator's
        conjugation table, for the subgroup and the idempotent alike.
        """
        subgroups = _dedup_subgroups(family)
        pairs = []
        for Q in subgroups:
            pairs.extend(self.pairs_at(Q))
        pairs.sort(key=BrauerPair.key)
        gindex = self.G.element_index()
        pos, root = gindex.pos, gindex.root
        slot = {}                    # element set -> index in subgroups
        masks = []
        filed = {}                   # least non-identity position -> subgroups
        for r, R in enumerate(subgroups):
            slot[R.element_set] = r
            ids = [pos[x] for x in R.elements]
            mask = 0
            for k in ids:
                mask |= 1 << k
            masks.append(mask)
            least = min((k for k in ids if k != root), default=root)
            filed.setdefault(least, []).append(r)
        # subsets[r]: the family's subgroups of R, sorted, R itself last
        subsets = []
        for r, R in enumerate(subgroups):
            outside = ~masks[r]
            subsets.append(sorted(
                q for x in R.elements for q in filed.get(pos[x], ())
                if not masks[q] & outside))
        at = [[] for _ in subgroups]  # subgroup index -> its pair indices
        for i, pr in enumerate(pairs):
            at[slot[pr.subgroup.element_set]].append(i)
        edges = []
        for j, hi in enumerate(pairs):
            r = slot[hi.subgroup.element_set]
            for q in subsets[r]:
                if q == r:
                    continue
                for i in at[q]:
                    if self.normal_containment(pairs[i], hi):
                        edges.append((i, j))
        edges.sort()
        labels = [pr.label() for pr in pairs]
        up = closure_masks(len(labels), edges)
        action = []
        closed = True
        for t in range(len(self.G.generators)):
            perm = []
            for pr in pairs:
                image = slot.get(frozenset(
                    gindex.conj_image(t, pr.subgroup.elements)))
                terms = pr.idempotent.support
                moved = dict(zip(gindex.conj_image(t, terms), terms.values()))
                target = None if image is None else next(
                    (k for k in at[image]
                     if pairs[k].idempotent.support == moved), None)
                if target is None:
                    closed = False
                    break
                perm.append(target)
            if not closed:
                break
            action.append(perm)
        poset = GPoset(labels, up, action) if closed else Poset(labels, up)
        if check_uniqueness:
            self._assert_unique_subpairs(pairs, poset, subgroups, subsets,
                                         slot, at)
        return BrauerPairPoset(pairs, edges, poset)

    def _assert_unique_subpairs(self, pairs, poset, subgroups, subsets, slot,
                                at):
        """Below each pair, exactly one pair at each subgroup of its own."""
        for j, hi in enumerate(pairs):
            for q in subsets[slot[hi.subgroup.element_set]]:
                below = [i for i in at[q] if poset.leq(i, j)]
                if len(below) != 1:
                    raise TheoryViolation(
                        "subpair existence/uniqueness failed",
                        witness=(hi.label(), subgroups[q].label, len(below)))

    # -- defect groups ----------------------------------------------------

    def defect_data(self):
        """Maximal p-subgroups with nonzero Brauer image; one class asserted."""
        if self._defect is not None:
            return self._defect
        classes = self.group.classes
        survivors = [i for i, (Q, _orbit) in enumerate(classes)
                     if self.brauer_nonzero(Q)]
        maximal = []
        for i in survivors:
            Q = classes[i][0]
            if any(classes[j][0].order > Q.order
                   and self.group._conjugate_into(i, classes[j][0])
                   for j in survivors):
                continue
            maximal.append(i)
        if len(maximal) != 1:
            raise TheoryViolation(
                "defect groups do not form a single conjugacy class",
                witness=[classes[i][0].label for i in maximal])
        rep, orbit = classes[maximal[0]]
        # nonzero Brauer image must be exactly "conjugate into the defect class"
        for i, (Q, _orbit) in enumerate(classes):
            embeds = self.group._conjugate_into(i, rep)
            if self.brauer_nonzero(Q) != embeds:
                raise TheoryViolation(
                    "Brauer image vanishing disagrees with defect containment",
                    witness=Q.label)
        self._defect = DefectData(self.block, rep, rep.order,
                                  rep.fingerprint(), len(orbit))
        return self._defect

    def principal_type(self):
        """(flag, per-class outcomes): every Brauer image zero or one block."""
        witnesses = []
        ok = True
        first_failure = None
        for Q, _orbit in self.group.classes:
            br = self.brauer_image(Q)
            if not br:
                witnesses.append((Q, "zero"))
                continue
            hits = [pr.idempotent for pr in self.pairs_at(Q)]
            if len(hits) == 1 and hits[0] == br:
                witnesses.append((Q, "block"))
            else:
                witnesses.append((Q, f"sum-of-{len(hits)}"))
                ok = False
                if first_failure is None:
                    first_failure = Q
        return ok, witnesses, first_failure

    # -- subpairs ---------------------------------------------------------

    def unique_subpair(self, top, Q):
        """The unique pair at Q below top, walked down a subnormal chain.

        The primary chain is Q = S_0 normal-in S_1 = N_R(S_0) normal-in ...
        up to R; at each step the normally contained block is required to be
        unique.  When the chain through Q Z(R) (also subnormal, since the
        center normalizes everything) differs from the primary one, the walk
        is repeated along it and the results compared, as a genuine
        chain-independence probe.
        """
        R = top.subgroup
        if not Q.element_set <= R.element_set:
            raise ValueError("subgroup is not contained in the top pair")
        if Q.element_set == R.element_set:
            return top
        chain = _normalizer_chain(R, Q)
        pair = self._walk_chain(top, chain)
        alt = _center_seeded_chain(R, Q)
        if alt is not None and [S.element_set for S in alt] != \
                [S.element_set for S in chain]:
            other = self._walk_chain(top, alt)
            if other != pair:
                raise TheoryViolation("chain-dependent subpair detected",
                                      witness=(Q.label, R.label))
        if pair not in self.pairs_at(Q):
            raise TheoryViolation("subpair is not a pair of the block",
                                  witness=pair.label())
        return pair

    def _walk_chain(self, top, chain):
        pair = top
        for S in reversed(chain[:-1]):
            candidates = [e for e in self.blocks_at(S)
                          if self.normal_containment(
                              BrauerPair(S, e, self.centralizer_of(S)), pair)]
            if len(candidates) != 1:
                raise TheoryViolation(
                    "normally contained block not unique along chain",
                    witness=(S.label, pair.label(), len(candidates)))
            pair = BrauerPair(S, candidates[0], self.centralizer_of(S))
        return pair


def _dedup_subgroups(family):
    seen = {}
    for Q in family:
        seen.setdefault(Q.element_set, Q)
    return sorted(seen.values(), key=PermGroup.key)


def _normalizer_chain(R, Q):
    """Q normal-in N_R(Q) normal-in ... up to R (p-groups never stall)."""
    chain = [Q]
    current = Q
    while current.element_set != R.element_set:
        nxt = normalizer(R, current, label=f"N_{R.label}")
        if nxt.order == current.order:
            raise TheoryViolation("normalizer chain stalled inside a p-group",
                                  witness=(R.label, current.label))
        chain.append(nxt)
        current = nxt
    return chain


def _center_seeded_chain(R, Q):
    """Alternative subnormal chain Q normal-in Q Z(R) normal-in ... or None.

    Z(R) centralizes Q, so Q is normal in Q Z(R); from there the chain
    continues through normalizers.  Returns None when the seed step brings
    nothing new (Z(R) already inside Q).
    """
    centre = [x for x in R.elements
              if all(x * y == y * x for y in R.generators)]
    if all(x in Q.element_set for x in centre):
        return None
    seed = PermGroup.from_generators(
        R.degree, tuple(Q.generators) + tuple(centre), max_elements=R.order)
    return [Q] + _normalizer_chain(R, seed)
