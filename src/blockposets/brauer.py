"""The Brauer homomorphism, Brauer pairs, containment, and defect groups.

For a p-subgroup Q the Brauer homomorphism truncates a Q-fixed element of kG
to its support inside C_G(Q); on Q-fixed points it is multiplicative, so the
image of a block b is a sum of blocks of kC_G(Q).  A pair (Q, e) belongs to b
when e appears in that sum.

Containment of pairs is generated by one-step normal containment:
(Q, e) is normal in (R, f) iff Q is normal in R, e is R-stable, and the
truncation of e to C_G(R), then central in kC_G(R), multiplies f to itself.
The order is its transitive closure; that below each pair lies exactly one
pair at each subgroup is asserted, not assumed.  G acts on the pairs by
conjugation (Alperin and Broue, Ann. Math. 110, 1979), so over a family
closed under conjugation the order is decided below one pair per G-orbit.

C_G(Q), the blocks of kC_G(Q) and the G-orbit of Q depend only on G and Q:
a GroupContext holds them once per (G, F), shared by every block of a run;
a BlockContext decides b's pairs at each class representative.  Br_R(b) is
read on C_G(R) alone, and the algebra Z(kC_G(R)) and its blocks are built
only at the classes where some block's image is nonzero.  A block e
of kC_G(Q) is a sum of C_G(Q)-class sums, so e^(cg) = e^g for c in C_G(Q):
eta and the fusion maps scan one g per coset C_G(Q) g, and normal
containment tests stability only under generators outside C_G(Q).
"""

from __future__ import annotations

from .blocks import GroupAlgebraElement, blocks, class_sum_algebra
from .errors import TheoryViolation
from .perms import (PermGroup, centralizer, orbit_walk,
                    p_subgroups_up_to_conjugacy)
from .topology import Labels, Poset


class BrauerPair:
    """(Q, e): a p-subgroup with a block e of kC_G(Q), the slot-th block of
    Q's site when a BlockContext built it.  Given reach = (group, i, size)
    instead of e, with Q of class i in the GroupContext group and size e's
    terms, it reads e off Q's site, carried to Q, on request."""

    __slots__ = ("subgroup", "slot", "_idempotent", "_reach")

    def __init__(self, subgroup, idempotent, slot=None, reach=None):
        self.subgroup = subgroup
        self.slot = slot
        self._idempotent = idempotent
        self._reach = reach

    @property
    def idempotent(self):
        if self._idempotent is None:
            group, i, _size = self._reach
            key = group.G.element_index().key(self.subgroup)
            self._idempotent = group._site_at(i, key).blocks[self.slot]
        return self._idempotent

    def key(self):
        return (self.subgroup.key(), self.idempotent.key())

    def ident(self):
        """Hashable identity (subgroup elements, idempotent support)."""
        return (self.subgroup.element_set, self.idempotent.key())

    def label(self):
        size = (self._reach[2] if self._idempotent is None
                else len(self._idempotent.support))
        return f"({self.subgroup.generators_string()}, e[{size}])"

    def __eq__(self, other):
        return isinstance(other, BrauerPair) and self.ident() == other.ident()

    def __hash__(self):
        return hash(self.ident())

    def __repr__(self):
        return f"BrauerPair{self.label()}"


class _Site:
    """What G says about a p-subgroup Q of class index: C_G(Q), its
    elements class by class (members[offsets[k]:offsets[k + 1]]) and the
    blocks of kC_G(Q), in the orders and offsets of the class
    representative's.  C_G(Q) as a group is built on first request."""

    __slots__ = ("subgroup", "generators", "members", "blocks", "index",
                 "_centralizer")

    def __init__(self, subgroup, generators, members, blocks, index,
                 centralizer=None):
        self.subgroup = subgroup
        self.generators = generators    # of C_G(Q)
        self.members = members
        self.blocks = blocks
        self.index = index
        self._centralizer = centralizer

    @property
    def centralizer(self):
        if self._centralizer is None:
            self._centralizer = PermGroup(
                self.subgroup.degree, self.generators, self.members,
                f"C({self.subgroup.label})")
        return self._centralizer


def _class_vector(e, members, offsets):
    """e truncated to C_G(Q) as a class vector in Z(kC_G(Q)), for a site's
    members and offsets: e's value at the first member of each class, or
    None when e is not constant on some class."""
    get, zero = e.support.get, e.field.zero
    out = []
    for k in range(len(offsets) - 1):
        c = get(members[offsets[k]], zero)
        if any(get(x, zero) != c
               for x in members[offsets[k] + 1:offsets[k + 1]]):
            return None
        out.append(c)
    return out


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
    """All pairs over a family of subgroups, with the containment order:
    family sorted by PermGroup.key, and at[q] the range of the indices of
    the pairs at family[q], in BrauerPair.key order."""

    def __init__(self, pairs, normal_edges, poset, family, at):
        self.pairs = pairs
        self.normal_edges = normal_edges
        self.poset = poset  # G acts when the family is conjugation closed
        self.family = family
        self.at = at

    @property
    def n(self):
        return len(self.pairs)


class GroupContext:
    """Everything about (G, F) that does not depend on the block.

    * the class-sum algebra of G and the blocks of kG;
    * the G-classes of p-subgroups, as (R, orbit) with orbit a SubgroupOrbit
      on the position keys of the conjugates (perms);
    * per class representative R, on first request, C_G(R), all that a
      Brauer image Br_R(b) reads, and, requested only where some Br_R(b)
      is nonzero, its site: C_G(R), the algebra Z(kC_G(R)) and the blocks
      of kC_G(R), each of which must be constant on the classes of C_G(R)
      (else TheoryViolation).
    * the site of any other Q = R^g in the class, carried down the orbit
      tree one generator t at a time through t's conjugation table, and
      memoised under Q's key: the i-th block at Q is the i-th at R
      conjugated by g.  Q's generators are its parent's carried, and must
      lie in Q's key (else TheoryViolation), so they generate Q.
    """

    def __init__(self, G, F):
        self.G = G
        self.F = F
        self.p = F.p
        self.algebra = class_sum_algebra(G, F)
        self.blocks = blocks(G, F, algebra=self.algebra)
        self._classes = None
        self._sites = {}
        self._centralizers = {}     # class index -> C_G(R)
        # class index -> (Z(kC_G(R)), blocks of kC_G(R), class offsets)
        self._centers = {}

    @property
    def classes(self):
        """[(R, orbit)] per G-class of p-subgroups, the trivial class first."""
        if self._classes is None:
            self._classes = p_subgroups_up_to_conjugacy(self.G, self.p)
        return self._classes

    def locate(self, Q):
        """The index of the class whose orbit holds Q; ValueError when Q
        is not a p-subgroup of G."""
        key = self._key(Q)
        if key is not None:
            for i, (R, orbit) in enumerate(self.classes):
                if R.order == Q.order and key in orbit:
                    return i
        raise ValueError(f"not a {self.p}-subgroup of {self.G.label}: "
                         f"{Q.label or Q!r}")

    def _key(self, Q):
        """Q's position key in G, or None when Q is not a subgroup of G."""
        try:
            return self.G.element_index().key(Q)
        except KeyError:
            return None

    def _child(self, R, parent, key, t):
        """The subgroup at key, carried from parent by the t-th generator."""
        index = self.G.element_index()
        gens = index.conj_image(t, parent.generators)
        if not set(key).issuperset(map(index.pos.__getitem__, gens)):
            raise TheoryViolation(
                "orbit generator does not carry the parent to the child",
                witness=(R.generators_string(), t))
        return PermGroup(R.degree, gens, [index.elements[x] for x in key],
                         R.label)

    def conjugates(self, i):
        """Every subgroup of class i, in orbit order, the representative
        first, each carried down the orbit tree with no site."""
        R, orbit = self.classes[i]
        out = {}
        for key, t in orbit.items():        # parents before children
            out[key] = R if t < 0 else self._child(
                R, out[orbit.links[key]], key, t)
        return list(out.values())

    def centralizer(self, i):
        """C_G(R) for the representative R of class i, built once."""
        C = self._centralizers.get(i)
        if C is None:
            R = self.classes[i][0]
            C = self._centralizers[i] = self.G if R.order == 1 else \
                centralizer(self.G, R, label=f"C({R.label})")
        return C

    def _site(self, Q):
        key = self._key(Q)
        return self._sites.get(key) or self._site_at(self.locate(Q), key)

    def _site_at(self, i, key):
        """The site at the subgroup of class i whose position key is key."""
        R, orbit = self.classes[i]
        path = []                       # conjugates, from key upwards
        while key not in self._sites and key in orbit.links:
            path.append(key)
            key = orbit.links[key]
        site = self._sites.get(key)
        if site is None:
            site = self._sites[key] = self._representative_site(i, R)
        image = self.G.element_index().conj_image
        for child in reversed(path):
            t = orbit[child]
            site = self._sites[child] = _Site(
                self._child(R, site.subgroup, child, t),
                image(t, site.generators), image(t, site.members),
                [GroupAlgebraElement(e.group, e.field, dict(zip(
                    image(t, e.support), e.support.values())))
                 for e in site.blocks], i)
        return site

    def _representative_site(self, i, R):
        if R.order == 1:
            A, block_list = self.algebra, self.blocks
        else:
            C = self.centralizer(i)
            A = class_sum_algebra(C, self.F)
            block_list = blocks(C, self.F, algebra=A)
        members, offsets = [], [0]
        for cls in A.classes:
            members.extend(cls.members)
            offsets.append(len(members))
        self._centers[i] = (A, block_list, offsets)
        for s, blk in enumerate(block_list):
            if _class_vector(blk.element, members, offsets) is None:
                raise TheoryViolation(
                    "block of the centralizer is not fixed by the centralizer",
                    witness=(R.generators_string(), s))
        return _Site(R, A.group.generators, members,
                     [b.element for b in block_list], i, A.group)

    def _conjugate_into(self, i, T):
        """Is some G-conjugate of class i's representative contained in T?"""
        R, orbit = self.classes[i]
        if R.order > T.order:
            return False
        inside = set(self.G.element_index().key(T))
        return any(inside.issuperset(key) for key in orbit)


class BlockContext:
    """The pairs of one block b, over a GroupContext of its group.

    b's pairs at a class representative R are decided in A = Z(kC_G(R)),
    built only when Br_R(b), read on C_G(R) first, is nonzero.
    Br_R(b) must be constant on the classes of C_G(R) (else
    TheoryViolation), and block i of kC_G(R) is a pair iff
    e_i * Br_R(b) == e_i as class vectors.  Any other Q = R^g reads R's
    slots against its own site, whose i-th block is the i-th at R
    conjugated by g (b is central, so Br_Q(b) = Br_R(b)^g).
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
            R = self.group.classes[site.index][0]
            A, block_list, offsets = self.group._centers[site.index]
            brc = _class_vector(self.block.element,
                                self.group._site(R).members, offsets)
            if brc is None:
                raise TheoryViolation(
                    "Brauer image of the block is not central in the "
                    "centralizer", witness=R.generators_string())
            self._slots[site.index] = [
                s for s, blk in enumerate(block_list)
                if A.mult(list(blk.coords), brc) == list(blk.coords)]
        return site

    def brauer_image(self, Q):
        """Br_Q(b); the block is central hence fixed by every subgroup.

        At a class representative R it is b truncated to C_G(R), with no
        site built.  Br_{R^g}(b) = Br_R(b)^g, so at any other Q of the
        class it is zero with Br_R(b), else truncated at Q's site.
        """
        key = Q.element_set
        hit = self._brauer.get(key)
        if hit is None:
            i = self.group.locate(Q)
            R = self.group.classes[i][0]
            if key == R.element_set:
                members = self.group.centralizer(i).elements
            elif self.brauer_nonzero(R):
                members = self.site(Q).centralizer.elements
            else:
                members = ()
            hit = self._brauer[key] = self.block.element.truncate(members)
        return hit

    def brauer_nonzero(self, Q):
        return bool(self.brauer_image(Q))

    def pairs_at(self, Q):
        """The pairs (Q, e); empty exactly when Br_Q(b) = 0."""
        key = Q.element_set
        hit = self._pairs.get(key)
        if hit is not None:
            return hit
        br = self.brauer_image(Q)
        out = []
        if br:
            site = self.site(Q)
            total = GroupAlgebraElement.zero(self.G, self.F)
            for s in self._slots[site.index]:
                e = site.blocks[s]
                out.append(BrauerPair(Q, e, s))
                total = total + e
            if total != br:
                raise TheoryViolation(
                    "Brauer image of the block is not the sum of its pair blocks",
                    witness=Q.generators_string())
        self._pairs[key] = out
        return out

    # -- containment ------------------------------------------------------

    def normal_containment(self, lo, hi):
        """One-step containment (Q, e) normal-in (R, f), decided at R's site.

        Q <= R and Q normal in R are read off R's own element index.  e must
        be fixed by each generator r of R that moves Q: e and e^r are
        constant on the classes of C_G(Q), so they are compared at the first
        member of each class of Q's site.  Br_R(e) must be constant on the
        classes of C_G(R) (else TheoryViolation), and Br_R(e) f = f is one
        product of class vectors in the algebra of R's class.
        """
        Q, R = lo.subgroup, hi.subgroup
        index = R.element_index()
        at = index.pos
        gens = [at.get(x) for x in Q.generators]
        if None in gens:
            return False                        # Q is not inside R
        moving = []
        for r, table in zip(R.generators, index.conj):
            images = [table[x] for x in gens]
            if images != gens:
                if not {at[x] for x in Q.elements}.issuperset(images):
                    return False                # Q is not normal in R
                moving.append(r)
        e = lo.idempotent
        get = e.support.get
        if moving:
            site = self.group._site(Q)
            offsets = self.group._centers[site.index][2]
            firsts = [site.members[k] for k in offsets[:-1]]
            for r in moving:
                rinv = r.inverse()
                if any(get(x.conjugate(r, rinv)) != get(x) for x in firsts):
                    return False
        site = self.group._site(R)
        A, block_list, offsets = self.group._centers[site.index]
        br = _class_vector(e, site.members, offsets)
        if br is None:
            raise TheoryViolation(
                "Brauer image of a pair's block is not central in the "
                "centralizer", witness=(lo.label(), hi.label()))
        s = hi.slot if hi.slot is not None else site.blocks.index(
            hi.idempotent)
        f = list(block_list[s].coords)
        return A.mult(br, f) == f

    def pair_poset(self, family):
        """Pairs over the family with the closure of normal containment.

        Subgroups are named by their position keys; one repeated raises
        ValueError.  Q <= R iff R's key holds Q's generators, and only the
        subgroups filed under an element of R, by their least non-identity
        position, are candidates below R.  When the generators' conjugation
        tables map the keys into the family, G acts: each class
        representative R0 gets its pairs from pairs_at, and any other
        member with one pair gets R0's slot without its site.  Containment
        is tested below the first pair of each orbit, a pair at an R0, and
        carried along the orbit walk; otherwise below every pair.  Below
        each tested pair lies one pair at each of its subgroups (else
        TheoryViolation).
        """
        family = sorted(family, key=PermGroup.key)
        gindex = self.G.element_index()
        keys = [gindex.key(Q) for Q in family]
        slot = {}                    # position key -> index in family
        filed = {}                   # least non-identity position -> subgroups
        for q, key in enumerate(keys):
            if slot.setdefault(key, q) != q:
                raise ValueError("subgroup repeated in the family: "
                                 f"{family[q].generators_string()}")
            filed.setdefault(key[1] if len(key) > 1 else gindex.root,
                             []).append(q)
        images = []                  # images[t][q]: the index of Q^t
        for table in gindex.conj:
            images.append([slot.get(tuple(sorted([table[x] for x in key])))
                           for key in keys])
            if None in images[-1]:
                images = []          # the family is not conjugation closed
                break
        class_of, tops = [None] * len(family), {}   # R0's index: its blocks
        for i, (_R, orbit) in enumerate(self.group.classes if images else ()):
            top = slot.get(next(iter(orbit)))       # R0's key comes first
            if top is not None:
                tops[top] = self.site(family[top]).blocks
                for key in orbit:
                    class_of[slot[key]] = (i, top)
        pairs, owner, at = [], [], []
        for q, Q in enumerate(family):
            first = len(pairs)
            i, top = class_of[q] or (None, q)
            if top != q and len(self._slots[i]) < 2:
                pairs.extend(BrauerPair(Q, None, s, (
                    self.group, i, len(tops[top][s].support)))
                    for s in self._slots[i])
            else:
                pairs.extend(sorted(self.pairs_at(Q), key=BrauerPair.key))
            owner.extend([q] * (len(pairs) - first))
            at.append(range(first, len(pairs)))
        action = [self._pair_image(pairs, at, row, t)
                  for t, row in enumerate(images)]
        gens = [[gindex.pos[x] for x in Q.generators] for Q in family]
        subsets = {}   # tested R -> the family's subgroups of R, R last
        lower = [None] * len(pairs)  # the pairs normal in each pair
        if action:
            walk = orbit_walk(action, len(pairs),
                              [j for top in sorted(tops) for j in at[top]])
            steps = zip(walk.order, walk.parent, walk.via)
        else:
            steps = ((j, -1, -1) for j in range(len(pairs)))
        for j, parent, t in steps:
            if parent >= 0:
                lower[j] = [action[t][i] for i in lower[walk.order[parent]]]
                continue
            r = owner[j]
            if r not in subsets:
                inside = set(keys[r])
                subsets[r] = sorted(q for x in keys[r]
                                    for q in filed.get(x, ())
                                    if inside.issuperset(gens[q]))
            lower[j] = [i for q in subsets[r] if q != r for i in at[q]
                        if self.normal_containment(pairs[i], pairs[j])]
        edges = sorted((i, j) for j, below in enumerate(lower) for i in below)
        # pairs sort by subgroup order first, so every edge (i, j) has
        # i < j, and the up-sets close in one pass from the last pair down
        up = [1 << i for i in range(len(pairs))]
        for i, j in reversed(edges):
            assert i < j
            up[i] |= up[j]
        poset = Poset(Labels(len(pairs), lambda i: pairs[i].label()), up,
                      action)
        for j, hi in enumerate(pairs):
            for q in subsets.get(owner[j], ()):
                below = [i for i in at[q] if poset.leq(i, j)]
                if len(below) != 1:
                    raise TheoryViolation(
                        "subpair existence/uniqueness failed",
                        witness=(hi.label(), family[q].generators_string(),
                                 len(below)))
        return BrauerPairPoset(pairs, edges, poset, family, at)

    def _pair_image(self, pairs, at, row, t):
        """The t-th generator's permutation of the pairs, row on the family."""
        image = self.G.element_index().conj_image
        perm = []
        for q, pids in enumerate(at):
            there = at[row[q]]
            if len(pids) == 1 == len(there):
                perm.append(there.start)
                continue
            for i in pids:
                terms = pairs[i].idempotent.support
                moved = dict(zip(image(t, terms), terms.values()))
                target = next((k for k in there
                               if pairs[k].idempotent.support == moved), None)
                if target is None:
                    raise TheoryViolation("conjugate of a pair is not a pair",
                                          witness=pairs[i].label())
                perm.append(target)
        return perm

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
                witness=[classes[i][0].generators_string() for i in maximal])
        rep, orbit = classes[maximal[0]]
        # nonzero Brauer image must be exactly "conjugate into the defect class"
        for i, (Q, _orbit) in enumerate(classes):
            embeds = self.group._conjugate_into(i, rep)
            if self.brauer_nonzero(Q) != embeds:
                raise TheoryViolation(
                    "Brauer image vanishing disagrees with defect containment",
                    witness=Q.generators_string())
        self._defect = DefectData(self.block, rep, rep.order,
                                  rep.fingerprint(), len(orbit))
        return self._defect

    def principal_type(self):
        """(flag, per-class outcomes, first failing class representative):
        every Brauer image zero or one block."""
        witnesses, failures = [], []
        for Q, _orbit in self.group.classes:
            hits = self.pairs_at(Q)
            if not hits:
                witnesses.append((Q, "zero"))
            elif len(hits) == 1:
                witnesses.append((Q, "block"))
            else:
                witnesses.append((Q, f"sum-of-{len(hits)}"))
                failures.append(Q)
        return not failures, witnesses, (failures or [None])[0]

