"""Stong cores against the full order complexes they stand in for.

check_homology reads the homology of K off the order complex of its Stong
core.  The oracle is the full-complex Smith form: on A and K of every
non-slow corpus block and of every block of S5 and S6 at p=3, on random
posets and on face posets with 2-torsion in their homology, the core's
homology must equal the full complex's.  The removals are replayed
against a beat-point test written from the order relation alone (each
removed element was a beat point among the survivors at its turn, and none
is left in the core), and a spy on check_homology shows that its Smith
forms are those of A's boundaries and of K's core's, and no others.
"""

import pytest

from blockposets import topology
from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, PRESETS, build_group
from blockposets.commuting import block_geometry
from blockposets.cores import beat_points, stong_core
from blockposets.gf import field_context
from blockposets.topology import Poset, homology, order_complex
from blockposets.verify import check_homology

from oracles import complex_from_faces, face_poset, up_masks
from test_topology import random_posets

C2_CUBED = {"type": "generators", "degree": 6,
            "gens": [[[1, 2]], [[3, 4]], [[5, 6]]]}

# a minimal triangulation of the real projective plane: H1 = Z/2
PROJECTIVE_PLANE = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def geometries():
    """(name, geometry) of every non-slow corpus block and of every block
    of S5 and S6 at p=3."""
    targets = [(entry.name, entry.spec, entry.p, entry.d)
               for entry in CORPUS if not entry.slow]
    targets += [(f"{name}_p3", PRESETS[name], 3, 1) for name in ("S5", "S6")]
    for name, spec, p, d in targets:
        group = GroupContext(build_group(spec), field_context(p, d))
        for b in group.blocks:
            yield f"{name}/{b.index}", block_geometry(BlockContext(group, b))


@pytest.fixture(scope="module")
def block_posets():
    return [(f"{name}/{which}", X) for name, geom in geometries()
            for which, X in (("A", geom.aposet), ("K", geom.kposet))]


def torsion_posets():
    """Face posets with H1 = Z/2: the projective plane, which is its own
    core, and the same with a pendant triangle, which collapses onto it."""
    return [face_poset(complex_from_faces(PROJECTIVE_PLANE)),
            face_poset(complex_from_faces(PROJECTIVE_PLANE + [(0, 1, 6)]))]


def is_beat_point(X, x, survivors):
    """Has x's strict up-set among survivors a least element, or its strict
    down-set a greatest one?  Read from X.leq alone."""
    up = [y for y in survivors if y != x and X.leq(x, y)]
    down = [y for y in survivors if y != x and X.leq(y, x)]
    return any(all(X.leq(y, z) for z in up) for y in up) \
        or any(all(X.leq(z, y) for z in down) for y in down)


def assert_certified(X):
    """Replay beat_points(X): each removal a beat point at its turn, none
    left after, and stong_core(X) the survivors with X's order."""
    survivors = set(range(X.n))
    for x in beat_points(X):
        assert x in survivors
        assert is_beat_point(X, x, survivors), (x, X.labels[x])
        survivors.remove(x)
    kept = sorted(survivors)
    assert not any(is_beat_point(X, x, survivors) for x in kept)
    core = stong_core(X)
    assert core.action == []
    assert list(core.labels) == [X.labels[x] for x in kept]
    assert all(core.leq(i, j) == X.leq(x, y)
               for i, x in enumerate(kept) for j, y in enumerate(kept))
    return core


def assert_same_homology(X, name=None):
    assert homology(order_complex(stong_core(X))) \
        == homology(order_complex(X)), name


class TestDifferential:
    def test_block_posets(self, block_posets):
        assert len(block_posets) == 2 * 13
        for name, X in block_posets:
            assert_same_homology(X, name)

    def test_random_posets(self):
        for X in random_posets():
            assert_same_homology(X)

    def test_torsion_survives(self):
        plane, pendant = torsion_posets()
        for X in (plane, pendant):
            assert homology(order_complex(stong_core(X))).groups \
                == [(1, ()), (0, (2,))]
            assert_same_homology(X)
        assert stong_core(pendant).n == plane.n < pendant.n


class TestCertificate:
    def test_block_posets(self, block_posets):
        shrunk = 0
        for _name, X in block_posets:
            shrunk += assert_certified(X).n < X.n
        assert shrunk == 7

    def test_random_posets(self):
        for X in random_posets():
            assert_certified(X)

    def test_torsion_posets(self):
        for X in torsion_posets():
            assert_certified(X)

    def test_cones_are_points(self):
        # the projective plane's face poset under a new maximum, and over a
        # new minimum (the empty face)
        top = face_poset(complex_from_faces(PROJECTIVE_PLANE
                                            + [tuple(range(6))]))
        plane = face_poset(complex_from_faces(PROJECTIVE_PLANE))
        bottom = Poset(list(plane.labels) + ["()"],
                       up_masks(plane) + [(1 << plane.n + 1) - 1])
        for X in (top, bottom):
            assert assert_certified(X).n == 1


@pytest.mark.parametrize("spec, p, index", [(C2_CUBED, 2, 0),
                                            (PRESETS["S5"], 2, 1)],
                         ids=["C2^3-p2", "S5-p2-principal"])
def test_smith_forms_run_on_a_and_the_core_of_k(monkeypatch, spec, p, index):
    """check_homology hands smith_normal_form one boundary of A's full
    complex and of K's core's complex each, and nothing else: the row
    counts are those complexes' face counts below the top dimension.  K of
    C2^3 at p=2 has 94,585 chains and a maximum, so its core is a point and
    only A's 15 vertices and 35 edges reach a Smith form; K of S5 at p=2
    (105 elements, 465 chains) has A's 45-element core."""
    group = GroupContext(build_group(spec), field_context(p))
    ctx = BlockContext(group, group.blocks[index])
    geom = block_geometry(ctx)
    expected = (order_complex(geom.aposet).face_counts()[:-1]
                + order_complex(stong_core(geom.kposet)).face_counts()[:-1])
    rows = []
    plain = topology.smith_normal_form

    def spy(matrix, n):
        rows.append(n)
        return plain(matrix, n)

    monkeypatch.setattr(topology, "smith_normal_form", spy)
    assert check_homology(ctx, geom).status == "pass"
    assert rows == expected
    assert expected == ([15, 35] if spec is C2_CUBED else [45, 45])
