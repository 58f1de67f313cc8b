"""Finite posets with group actions, order complexes, and integral homology.

Posets keep their relation as per-element up-set bitmasks, and their labels
as whatever sequence they are given: a list, or one that formats each label
when it is read.  Every walk over a mask goes through one set-bit kernel,
`iter_bits`, which peels the top bit (``b = mask.bit_length() - 1;
mask ^= 1 << b``) and returns the row as an increasing list.  The mask
narrows as its top bits go, where the low-bit step ``mask & -mask`` works
on the full width for every bit.

The checks read each row's set bits once, into an array('i') of 4 bytes per
relation, and cost per relation pair, with no per-pair bit test on a wide
int:

* transitivity is one OR per row: the up-sets of the elements above i,
  ORed together, must give back the up-set of i;
* given reflexivity and transitivity, i <= j <= i makes the up-sets of i and
  j equal, and equal up-sets give i <= j <= i, so antisymmetry holds iff
  the up-set masks are pairwise distinct;
* a permutation a of the elements is an order-automorphism iff a maps each
  row i onto the row of a(i), and a bijection is an order isomorphism iff
  it maps each row onto the row of the image;
* a map f is order-preserving iff each up-set of x lies inside the
  preimage of the up-set of f(x), one mask test per x;
* down-sets come from transposed index lists, one mask each.

On a failure the first offending row is scanned pair by pair, so the
witness is the first offending pair in row order.

Homology of a simplicial complex is unreduced integral homology computed
from Smith normal forms of the boundary matrices.  Each boundary map is
built once, in the form the Smith reduction works on: a list of rows, one
{column: sign} dict per face of the lower dimension.  The check that
consecutive boundaries compose to zero runs one row at a time with one
accumulator, and each matrix is reduced in place and dropped as soon as its
Smith form is done.  The reduction is a sparse elimination over Python ints
(no overflow), with pivots chosen by least absolute value and least fill.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict, namedtuple
from functools import cached_property

from .errors import SizeLimitExceeded, TheoryViolation

MAX_SIMPLICES = 1_000_000


def iter_bits(mask):
    """Indices of the set bits of a nonnegative int, as an increasing list."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _row_or(up, row):
    """The OR of the up-sets of the elements listed in row."""
    acc = 0
    for j in row:
        acc |= up[j]
    return acc


def closure_masks(n, edges):
    """Up masks of the reflexive-transitive closure of (i, j) arcs on 0..n-1."""
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


class Poset:
    """A finite poset on elements 0..n-1 with printable labels."""

    def __init__(self, labels, up_masks):
        self.n = len(labels)
        self.labels = labels      # any sequence; kept as given
        self.up = list(up_masks)  # bit j of up[i] set iff i <= j
        self._check([array("i", iter_bits(m)) for m in self.up])

    def _check(self, rows):
        """Raise TheoryViolation unless the relation is a partial order.

        rows[i] holds the set bits of up[i] as an array('i'); subclasses
        check more on them.
        """
        up = self.up
        for i in range(self.n):
            if not (up[i] >> i) & 1:
                raise TheoryViolation("relation not reflexive", witness=i)
        if len(set(up)) == self.n and all(
                _row_or(up, row) == up[i] for i, row in enumerate(rows)):
            return
        # the first row holding an offending pair, then the pair in it
        down = self.down_masks()
        for i, row in enumerate(rows):
            if _row_or(up, row) == up[i] and up[i] & down[i] == 1 << i:
                continue
            for j in row:
                if j != i and (down[i] >> j) & 1:
                    raise TheoryViolation("relation not antisymmetric",
                                          witness=(self.labels[i], self.labels[j]))
                if up[j] & ~up[i]:
                    raise TheoryViolation("relation not transitive",
                                          witness=(self.labels[i], self.labels[j]))

    @classmethod
    def from_leq_pairs(cls, labels, pairs):
        """Build from the full relation given as (i, j) pairs; reflexivity added."""
        n = len(labels)
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            up[i] |= 1 << j
        return cls(labels, up)

    def leq(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def leq_pairs(self):
        return [(i, j) for i in range(self.n) for j in iter_bits(self.up[i])]

    def down_masks(self):
        below = [[] for _ in range(self.n)]
        for i, m in enumerate(self.up):
            for j in iter_bits(m):
                below[j].append(i)
        down = []
        for lst in below:
            mask = 0
            for i in lst:
                mask |= 1 << i
            down.append(mask)
        return down

    def covering_pairs(self):
        """(i, j) with i < j and nothing strictly between."""
        down = self.down_masks()
        out = []
        for i in range(self.n):
            strict = self.up[i] & ~(1 << i)
            for j in iter_bits(strict):
                if not (strict & down[j] & ~(1 << j)):
                    out.append((i, j))
        return out

    def minimal_elements(self):
        above = 0   # the elements strictly above some element
        for i, m in enumerate(self.up):
            above |= m ^ (1 << i)
        return iter_bits(~above & ((1 << self.n) - 1))

    def maximal_elements(self):
        return [i for i in range(self.n) if self.up[i] == (1 << i)]

    def is_empty(self):
        return self.n == 0

    def to_json_dict(self, orbit_of=None):
        elements = [{"id": i, "label": str(self.labels[i]),
                     "orbit": (orbit_of[i] if orbit_of is not None else i)}
                    for i in range(self.n)]
        return {
            "empty": self.n == 0,
            "elements": elements,
            "leq": [[i, j] for i, j in self.leq_pairs()],
            "covering": [[i, j] for i, j in self.covering_pairs()],
        }

    def to_dot(self, orbit_of=None, name="poset"):
        palette = ["#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
                   "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00"]
        lines = [f"digraph {name} {{", "  rankdir=BT;",
                 "  node [shape=box, style=filled];"]
        if self.n == 0:
            lines.append("  // empty poset")
        for i in range(self.n):
            orbit = orbit_of[i] if orbit_of is not None else i
            color = palette[orbit % len(palette)]
            label = str(self.labels[i]).replace('"', "'")
            lines.append(f'  n{i} [label="{label}", fillcolor="{color}"];')
        for i, j in self.covering_pairs():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


OrbitWalk = namedtuple("OrbitWalk", "order parent via orbit_of")


class GPoset(Poset):
    """A poset with a group acting by order-automorphisms.

    The action is stored as one permutation of the elements per group
    generator; each generator's image is checked to be an order-automorphism
    at construction.
    """

    def __init__(self, labels, up_masks, action):
        self.action = [list(a) for a in action]
        super().__init__(labels, up_masks)

    def _check(self, rows):
        super()._check(rows)
        everything = list(range(self.n))
        for a in self.action:
            if sorted(a) != everything:
                raise TheoryViolation("generator does not permute poset elements")
            if all(sorted([a[j] for j in row]) == rows[a[i]].tolist()
                   for i, row in enumerate(rows)):
                continue
            # the first pair whose image is not a relation
            for i, row in enumerate(rows):
                target = set(rows[a[i]])
                for j in row:
                    if a[j] not in target:
                        raise TheoryViolation(
                            "generator action is not an order-automorphism",
                            witness=(self.labels[i], self.labels[j]))

    @cached_property
    def orbit_walk(self):
        """The orbit BFS, walked on first read and kept: order lists the
        elements as visited, each orbit breadth first from its least element
        along the generators in turn; order[k] is action[via[k]] applied to
        order[parent[k]], both -1 at an orbit's first element; orbit_of[x]
        numbers x's orbit."""
        order, parent, via = array("i"), array("i"), array("i")
        orbit_of = [-1] * self.n
        orbits = 0
        for start in range(self.n):
            if orbit_of[start] < 0:
                orbit_of[start] = orbits
                k = len(order)
                order.append(start)
                parent.append(-1)
                via.append(-1)
                while k < len(order):       # order is the BFS queue
                    for t, a in enumerate(self.action):
                        y = a[order[k]]
                        if orbit_of[y] < 0:
                            orbit_of[y] = orbits
                            order.append(y)
                            parent.append(k)
                            via.append(t)
                    k += 1
                orbits += 1
        return OrbitWalk(order, parent, via, orbit_of)

    def orbits(self):
        """Orbits of the generated group, each a sorted tuple, in order of min."""
        out = [[] for _ in range(self.orbit_walk.parent.count(-1))]
        for x, orbit in enumerate(self.orbit_walk.orbit_of):
            out[orbit].append(x)
        return [tuple(orbit) for orbit in out]


def orbit_poset(X):
    """The quotient poset of orbits; [x] <= [y] iff some representatives compare.

    Returns (poset, orbit_of), read off X's orbit walk.  The group acts by
    order-automorphisms, so x^h <= y iff x <= y^(h^-1): the orbits above
    [x] are those met by the up-set of any one member, and one up-set per
    orbit is read.  Reflexivity and transitivity of the orbit relation are
    automatic; antisymmetry is asserted by the Poset constructor and failure
    raises with a witness.
    """
    orbits = X.orbits()
    orbit_of = X.orbit_walk.orbit_of
    up = [sum({1 << orbit_of[j] for j in iter_bits(X.up[orb[0]])})
          for orb in orbits]
    labels = [f"[{X.labels[orb[0]]}] x{len(orb)}" for orb in orbits]
    return Poset(labels, up), orbit_of


# ---------------------------------------------------------------------------
# simplicial complexes


class SimplicialComplex:
    """Faces stored by dimension as sorted tuples of vertex ids.

    Each dimension's list is kept as given, so it must already be sorted and
    free of duplicates, as `from_faces` and `order_complex` make it.
    """

    def __init__(self, faces_by_dim):
        self.faces_by_dim = list(faces_by_dim)
        while self.faces_by_dim and not self.faces_by_dim[-1]:
            self.faces_by_dim.pop()
        self._check_closed()

    @classmethod
    def from_faces(cls, faces):
        """Downward closure of the given faces."""
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
            return cls([])
        top = max(by_dim)
        return cls([sorted(by_dim.get(n, ())) for n in range(top + 1)])

    def _check_closed(self):
        for n in range(1, len(self.faces_by_dim)):
            lower = set(self.faces_by_dim[n - 1])
            for f in self.faces_by_dim[n]:
                for k in range(len(f)):
                    if f[:k] + f[k + 1:] not in lower:
                        raise ValueError(f"face {f} missing a boundary facet")

    @property
    def dim(self):
        return len(self.faces_by_dim) - 1

    def face_counts(self):
        return [len(fs) for fs in self.faces_by_dim]

    def num_simplices(self):
        return sum(self.face_counts())

    def euler_characteristic(self):
        return sum((-1) ** n * len(fs) for n, fs in enumerate(self.faces_by_dim))

    def is_empty(self):
        return not self.faces_by_dim


def chain_counts(X):
    """Face counts of the order complex of X by dimension, listing no chain.

    With c_k[x] the number of k-simplices x = x_0 < ... < x_k starting at x,
    c_0[x] = 1 and c_k[x] is the sum of c_{k-1}[y] over y > x; the k-th face
    count is the sum of c_k over x.  This equals
    order_complex(X).face_counts().  The strict up-sets are listed once, as
    array('i') rows of 4 bytes per relation, and each dimension costs one
    pass over those rows.
    """
    strict_up = [array("i", iter_bits(X.up[i] & ~(1 << i)))
                 for i in range(X.n)]
    counts = []
    c = [1] * X.n
    while any(c):
        counts.append(sum(c))
        c = [sum([c[j] for j in row]) for row in strict_up]
    return counts


def order_complex(X, max_simplices=MAX_SIMPLICES):
    """Chains of the poset X as simplices (x_0 < ... < x_n)."""
    strict_up = [X.up[i] & ~(1 << i) for i in range(X.n)]
    by_dim = []
    count = 0
    frontier = [((i,), strict_up[i]) for i in range(X.n)]
    while frontier:
        by_dim.append(sorted(chain for chain, _m in frontier))
        count += len(frontier)
        if count > max_simplices:
            raise SizeLimitExceeded(
                f"order complex exceeded {max_simplices} simplices")
        new = []
        for chain, mask in frontier:
            for j in iter_bits(mask):
                new.append((chain + (j,), mask & strict_up[j]))
        frontier = new
    return SimplicialComplex(by_dim)


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


# ---------------------------------------------------------------------------
# Smith normal form over the integers (sparse, arbitrary precision)


class SNFResult:
    __slots__ = ("diagonal",)

    def __init__(self, diagonal):
        self.diagonal = diagonal  # invariant factors d_1 | d_2 | ..., all > 0

    @property
    def rank(self):
        return len(self.diagonal)

    def torsion(self):
        return [d for d in self.diagonal if d > 1]


def smith_normal_form(matrix, rows, cols):
    """Smith normal form of a sparse integer matrix, given as its rows: a
    list of `rows` dicts {column: value}, columns in 0..cols-1.  The rows
    are reduced in place, so the matrix is used up.

    Unit pivots go first: the columns are swept once in index order, and a
    column with a +-1 entry in a live row takes the shortest such row as its
    pivot (ties to the lower index).  The column is cleared by row
    operations and the pivot row by column operations, with no gcd steps,
    and 1 is appended to the diagonal.  Boundary matrices of order complexes
    are mostly +-1, so this removes most of the matrix before any search
    (coreduction, Mrozek-Batko 2009).  On what remains, pivots are the
    least-|value| entries with least fill-in, so entry growth stays tame.
    Invariant factors are unique and the 1s lead the divisibility chain, so
    the diagonal is the same as without the sweep.  All arithmetic is plain
    Python int (arbitrary precision).
    """
    if len(matrix) != rows:
        raise ValueError(f"{len(matrix)} rows given for a matrix of {rows}")
    row = matrix
    col = {}
    for i, r in enumerate(row):
        if 0 in r.values():
            for j in [j for j, v in r.items() if not v]:
                del r[j]
        for j in r:
            col.setdefault(j, set()).add(i)

    def row_addmul(dst, src, c):
        """row[dst] += c * row[src]"""
        if c == 0:
            return
        dst_row = row[dst]
        for j, v in list(row[src].items()):
            nv = dst_row.get(j, 0) + c * v
            if nv:
                dst_row[j] = nv
                col.setdefault(j, set()).add(dst)
            elif j in dst_row:
                del dst_row[j]
                col[j].discard(dst)

    def row_combine(i0, i1, x, y, z, w):
        """(row[i0], row[i1]) <- (x row[i0] + y row[i1], z row[i0] + w row[i1])"""
        r0, r1 = row[i0], row[i1]
        new0, new1 = {}, {}
        for j in set(r0) | set(r1):
            a, b = r0.get(j, 0), r1.get(j, 0)
            n0, n1 = x * a + y * b, z * a + w * b
            if n0:
                new0[j] = n0
            if n1:
                new1[j] = n1
            members = col.setdefault(j, set())
            members.discard(i0)
            members.discard(i1)
            if n0:
                members.add(i0)
            if n1:
                members.add(i1)
        row[i0], row[i1] = new0, new1

    def col_addmul(dst, src, c):
        if c == 0:
            return
        for i in list(col.get(src, set())):
            v = row[i].get(src, 0)
            nv = row[i].get(dst, 0) + c * v
            if nv:
                row[i][dst] = nv
                col.setdefault(dst, set()).add(i)
            elif dst in row[i]:
                del row[i][dst]
                col[dst].discard(i)

    def col_combine(j0, j1, x, y, z, w):
        touched = col.get(j0, set()) | col.get(j1, set())
        for i in list(touched):
            a = row[i].get(j0, 0)
            b = row[i].get(j1, 0)
            n0, n1 = x * a + y * b, z * a + w * b
            for j, nv in ((j0, n0), (j1, n1)):
                if nv:
                    row[i][j] = nv
                    col.setdefault(j, set()).add(i)
                elif j in row[i]:
                    del row[i][j]
                    col[j].discard(i)

    diagonal = []
    done_rows = set()
    done_cols = set()
    for j0 in sorted(col):
        units = [i for i in col[j0]
                 if i not in done_rows and row[i][j0] in (1, -1)]
        if not units:
            continue
        i0 = min(units, key=lambda i: (len(row[i]), i))
        p = row[i0][j0]
        for i in [i for i in col[j0] if i != i0 and i not in done_rows]:
            row_addmul(i, i0, -row[i][j0] * p)
        for j in [j for j in row[i0] if j != j0 and j not in done_cols]:
            col_addmul(j, j0, -row[i0][j] * p)
        if p < 0:
            row_addmul(i0, i0, -2)  # negate the row: r += -2r
        diagonal.append(1)
        done_rows.add(i0)
        done_cols.add(j0)
    while True:
        pivot = None
        best = None
        for i, r in enumerate(row):
            if i in done_rows or not r:
                continue
            for j, v in r.items():
                if j in done_cols:
                    continue
                score = (abs(v), (len(r) - 1) * (len(col[j]) - 1), i, j)
                if best is None or score < best:
                    best = score
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        while True:
            # clear the pivot column
            cleared = False
            while True:
                others = [i for i in col.get(j0, set()) if i != i0 and i not in done_rows]
                if not others:
                    break
                for i in others:
                    p = row[i0][j0]
                    a = row[i].get(j0, 0)
                    if a == 0:
                        continue
                    if a % p == 0:
                        row_addmul(i, i0, -(a // p))
                    else:
                        g = math.gcd(p, a)
                        # x p + y a = g (extended euclid)
                        x, y = _bezout(p, a)
                        row_combine(i0, i, x, y, -(a // g), p // g)
            # clear the pivot row
            while True:
                others = [j for j in row[i0] if j != j0 and j not in done_cols]
                if not others:
                    break
                for j in others:
                    p = row[i0][j0]
                    a = row[i0].get(j, 0)
                    if a == 0:
                        continue
                    if a % p == 0:
                        col_addmul(j, j0, -(a // p))
                    else:
                        g = math.gcd(p, a)
                        x, y = _bezout(p, a)
                        col_combine(j0, j, x, y, -(a // g), p // g)
            # both clean?
            col_dirty = any(i != i0 and i not in done_rows
                            for i in col.get(j0, set()))
            row_dirty = any(j != j0 and j not in done_cols
                            for j in row[i0])
            if col_dirty or row_dirty:
                continue
            # divisibility: pivot must divide every remaining entry
            p = row[i0][j0]
            offender = None
            for i, r in enumerate(row):
                if i in done_rows or i == i0:
                    continue
                for j, v in r.items():
                    if j in done_cols or j == j0:
                        continue
                    if v % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(i0, offender, 1)
        p = row[i0][j0]
        if p < 0:
            row_addmul(i0, i0, -2)  # negate the row: r += -2r
        diagonal.append(abs(p))
        done_rows.add(i0)
        done_cols.add(j0)
    return SNFResult(diagonal)


def _bezout(a, b):
    """(x, y) with x*a + y*b = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_x, -old_y
    return old_x, old_y


def boundary_matrices(C):
    """The boundary maps d_n, n >= 1, in the form smith_normal_form reads:
    d_n is the list of its rows, one per (n-1)-face, each a dict from the
    index of an n-face to the sign of the row's face in its boundary.

    The composite of consecutive boundaries is asserted to vanish.
    """
    faces = C.faces_by_dim
    mats = []
    for n in range(1, len(faces)):
        index = {f: i for i, f in enumerate(faces[n - 1])}
        rows = [{} for _ in faces[n - 1]]
        signs = [(-1) ** k for k in range(n + 1)]
        for j, f in enumerate(faces[n]):
            for k, sign in enumerate(signs):
                rows[index[f[:k] + f[k + 1:]]][j] = sign
        mats.append(rows)
    for n in range(len(mats) - 1):
        _assert_composite_zero(mats[n], mats[n + 1])
    return mats


def _assert_composite_zero(d_low, d_high):
    """d_low d_high = 0, one row of d_low at a time into one accumulator;
    the witness is the least column of d_high met in a nonzero entry."""
    for row in d_low:
        acc = defaultdict(int)
        for mid, v in row.items():
            for k, w in d_high[mid].items():
                acc[k] += v * w
        bad = [k for k, total in acc.items() if total]
        if bad:
            raise TheoryViolation("boundary composite nonzero",
                                  witness=min(bad))


class HomologyResult:
    """Unreduced integral homology: per degree a (betti, torsion-tuple) pair."""

    def __init__(self, groups, empty=False):
        self.groups = [(b, tuple(t)) for b, t in groups]
        self.empty = empty
        while self.groups and self.groups[-1] == (0, ()):
            self.groups.pop()

    def betti(self, n):
        return self.groups[n][0] if n < len(self.groups) else 0

    def torsion(self, n):
        return self.groups[n][1] if n < len(self.groups) else ()

    def euler_characteristic(self):
        return sum((-1) ** n * b for n, (b, _t) in enumerate(self.groups))

    def __eq__(self, other):
        return isinstance(other, HomologyResult) and self.groups == other.groups

    def __repr__(self):
        if self.empty:
            return "HomologyResult(empty complex)"
        parts = []
        for n, (b, tor) in enumerate(self.groups):
            term = f"Z^{b}" if b else ""
            if tor:
                term += ("+" if term else "") + "+".join(f"Z/{d}" for d in tor)
            parts.append(f"H{n}={term or '0'}")
        return "HomologyResult(" + ", ".join(parts) + ")"


def homology(C):
    """Unreduced integral homology of a simplicial complex via Smith forms.

    Each boundary matrix is dropped as soon as its Smith form is done.
    """
    if C.is_empty():
        return HomologyResult([], empty=True)
    mats = boundary_matrices(C)
    counts = C.face_counts()
    snf_results = []
    for n in range(len(mats)):
        snf_results.append(smith_normal_form(mats[n], counts[n],
                                             counts[n + 1]))
        mats[n] = None
    groups = []
    for n in range(len(counts)):
        rank_dn = snf_results[n - 1].rank if n >= 1 else 0
        rank_dn1 = snf_results[n].rank if n < len(snf_results) else 0
        betti = counts[n] - rank_dn - rank_dn1
        torsion = snf_results[n].torsion() if n < len(snf_results) else []
        groups.append((betti, tuple(torsion)))
    return HomologyResult(groups)


# ---------------------------------------------------------------------------
# certificates


class EquivalenceCertificate:
    """Checkable sufficient conditions for an equivariant homotopy equivalence.

    For poset maps F: X -> Y and H: Y -> X the conditions are: both maps
    order-preserving and equivariant on generators, and each round trip
    comparable to the identity pointwise in one uniform direction.
    """

    __slots__ = ("ok", "forward_order_preserving", "backward_order_preserving",
                 "forward_equivariant", "backward_equivariant", "roundtrip_x",
                 "roundtrip_y", "failures")

    def __init__(self, ok, forward_order_preserving, backward_order_preserving,
                 forward_equivariant, backward_equivariant, roundtrip_x,
                 roundtrip_y, failures):
        self.ok = ok
        self.forward_order_preserving = forward_order_preserving
        self.backward_order_preserving = backward_order_preserving
        self.forward_equivariant = forward_equivariant
        self.backward_equivariant = backward_equivariant
        # "id<=HF", "HF<=id", "id=HF", or None on failure
        self.roundtrip_x = roundtrip_x
        self.roundtrip_y = roundtrip_y
        self.failures = failures


def _order_preserving(X, Y, fmap, failures, tag):
    """Is fmap order-preserving?  Failing pairs go on failures in row order."""
    fibre = [0] * Y.n
    for i in range(X.n):
        fibre[fmap[i]] |= 1 << i
    preimage_up = {}
    ok = True
    for i in range(X.n):
        y = fmap[i]
        allowed = preimage_up.get(y)
        if allowed is None:
            allowed = preimage_up[y] = _row_or(fibre, iter_bits(Y.up[y]))
        for j in iter_bits(X.up[i] & ~allowed):
            failures.append((tag, "order", X.labels[i], X.labels[j]))
            ok = False
    return ok


def _equivariant(X, Y, fmap, failures, tag):
    ok = True
    for a_x, a_y in zip(X.action, Y.action):
        for i in range(X.n):
            if fmap[a_x[i]] != a_y[fmap[i]]:
                failures.append((tag, "equivariance", X.labels[i]))
                ok = False
    return ok


def _uniform_direction(X, roundtrip, failures, tag):
    """Compare x with roundtrip(x) pointwise; require one uniform direction."""
    saw_up = saw_down = False
    for i in range(X.n):
        j = roundtrip[i]
        if i == j:
            continue
        up = X.leq(i, j)
        down = X.leq(j, i)
        if up:
            saw_up = True
        elif down:
            saw_down = True
        else:
            failures.append((tag, "incomparable", X.labels[i]))
            return None
    if saw_up and saw_down:
        failures.append((tag, "mixed directions"))
        return None
    if saw_up:
        return "id<=" + tag
    if saw_down:
        return tag + "<=id"
    return "id=" + tag


def quillen_pair_check(X, Y, fmap, hmap):
    """Certificate for an inverse pair of equivariant poset maps.

    fmap: X -> Y and hmap: Y -> X as index lists.  Passing means: both maps
    order-preserving, both equivariant on generators, and both round trips
    uniformly comparable with the identity.
    """
    failures = []
    f_ord = _order_preserving(X, Y, fmap, failures, "F")
    h_ord = _order_preserving(Y, X, hmap, failures, "H")
    f_eq = _equivariant(X, Y, fmap, failures, "F")
    h_eq = _equivariant(Y, X, hmap, failures, "H")
    rt_x = _uniform_direction(X, [hmap[fmap[i]] for i in range(X.n)],
                              failures, "HF")
    rt_y = _uniform_direction(Y, [fmap[hmap[i]] for i in range(Y.n)],
                              failures, "FH")
    ok = all([f_ord, h_ord, f_eq, h_eq, rt_x is not None, rt_y is not None])
    return EquivalenceCertificate(ok, f_ord, h_ord, f_eq, h_eq, rt_x, rt_y,
                                  failures)


def poset_iso_check(X, Y, fmap):
    """Is fmap an isomorphism of posets? Returns (flag, witness-or-None)."""
    if X.n != Y.n:
        return False, ("size", X.n, Y.n)
    if sorted(fmap) != list(range(Y.n)):
        return False, ("not a bijection",)
    for i in range(X.n):
        if sorted([fmap[j] for j in iter_bits(X.up[i])]) \
                == iter_bits(Y.up[fmap[i]]):
            continue
        for j in range(X.n):
            if X.leq(i, j) != Y.leq(fmap[i], fmap[j]):
                return False, ("order", X.labels[i], X.labels[j])
    return True, None
