"""Stong cores: posets stripped of their beat points.

A beat point of a finite poset is an element whose strict up-set has a
least element, or whose strict down-set has a greatest one.  Removing one
is a strong deformation retraction of the order complex (Stong, Trans. AMS
123, 1966; Barmak, LNM 2032, 2011), so what is left once none remains, the
core, has the homotopy type of the poset, and its order complex, often far
smaller, has the same integral homology.  The homology check reads the
commuting poset's homology off its core.  Each removal is tested on the
survivors of its moment, which is the retraction's certificate;
`beat_points` gives the removals in order, so that they can be replayed.
"""

from .topology import Poset


def beat_points(X):
    """The elements of X that stong_core removes, in order of removal.

    up[x] and down[x] hold x's strict up- and down-sets among the
    survivors, read off the rows and their transpose once, and lose each
    element as it is removed.  By transitivity up[y] lies in
    up[x] \\ {y} for y in up[x], so y is least there iff up[y] is one
    element shorter than up[x]; dually for down.  Sweeps run over the
    survivors in ascending index, each element tested on the survivors of
    that moment, until a sweep removes nothing.
    """
    members, offsets = X.members, X.offsets
    up = [set(members[offsets[i]:offsets[i + 1]]) for i in range(X.n)]
    down = [set() for _ in range(X.n)]
    for i, row in enumerate(up):
        row.discard(i)
        for j in row:
            down[j].add(i)
    alive, removed = range(X.n), []
    while True:
        kept = []
        for x in alive:
            u, d = up[x], down[x]
            if any(len(up[y]) == len(u) - 1 for y in u) \
                    or any(len(down[y]) == len(d) - 1 for y in d):
                for y in u:
                    down[y].discard(x)
                for y in d:
                    up[y].discard(x)
                removed.append(x)
            else:
                kept.append(x)
        if len(kept) == len(alive):
            return removed
        alive = kept


def stong_core(X):
    """The core of X: what is left once beat_points(X) are removed, as a
    Poset on the survivors in index order, with their labels and no action
    (so its order is checked as any poset's is).  Its order complex has
    the homology of X's.
    """
    removed = set(beat_points(X))
    new = {x: k for k, x in enumerate(x for x in range(X.n)
                                      if x not in removed)}
    members, offsets = X.members, X.offsets
    return Poset([X.labels[x] for x in new],
                 [sum(1 << new[j] for j in members[offsets[x]:offsets[x + 1]]
                      if j in new) for x in new])
