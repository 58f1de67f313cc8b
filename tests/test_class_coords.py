"""Differential tests of the exact kernels against the paths they replaced.

The oracles are the kG filter e * Br_R(b) == e for the Brauer pairs at each
representative site (decided in Z(kC_G(R)) by the library), and, for the
Smith form with its unit-pivot sweep, the gcds of k x k minors and the rank
over the rationals.
"""

import random
from types import SimpleNamespace

import pytest

from blockposets.blocks import GroupAlgebraElement, blocks, class_sum_algebra
from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group
from blockposets.errors import TheoryViolation
from blockposets.gf import field_context
from blockposets.perms import PermGroup, conjugacy_classes, symmetric_group
from blockposets.topology import (
    boundary_matrices,
    homology,
    smith_normal_form,
)

from oracles import (
    algebra_product,
    complex_from_faces,
    entries_of,
    invariant_factors_by_minors,
    rank_over_rationals,
    row_dicts,
)

GF2 = field_context(2)


def block_contexts():
    """Contexts for every block of the non-slow corpus and of S6 at p=2.

    The blocks of each group share one GroupContext, as verify builds them.
    """
    groups = [(entry.name, build_group(entry.spec),
               field_context(entry.p, entry.d))
              for entry in CORPUS if not entry.slow]
    groups.append(("S6-p2", symmetric_group(6), GF2))
    for name, G, F in groups:
        group = GroupContext(G, F)
        for b in group.blocks:
            yield f"{name}/{b.index}", BlockContext(group, b)


def slots_by_kg_filter(ctx, site):
    """The pair slots at a site by products in kG (the replaced path)."""
    br = ctx.brauer_image(site.subgroup)
    if not br:
        return []
    return [i for i, e in enumerate(site.blocks)
            if algebra_product(e, br) == e]


class TestPairSlots:
    def test_slots_match_kg_filter_at_every_representative_site(self):
        checked = nonempty = 0
        for name, ctx in block_contexts():
            for R, _orbit in ctx.group.classes:
                ctx.pairs_at(R)
                site = ctx.site(R)
                assert site.subgroup is R
                slots = ctx._slots[site.index]
                assert slots == slots_by_kg_filter(ctx, site), (name, R.label)
                checked += 1
                nonempty += bool(slots)
        assert checked > 50 and nonempty > 20

    def test_seeded_trivial_site_matches_computed_one(self):
        G = symmetric_group(3)
        group = GroupContext(G, GF2)
        trivial = PermGroup.trivial(G.degree)
        # the trivial site as any other site is computed: C_G(1) = G, its
        # class algebra and blocks, and the kG filter e * Br_1(b) == e
        A = class_sum_algebra(G, GF2)
        computed = [blk.element for blk in blocks(G, GF2, algebra=A)]
        for b in group.blocks:
            ctx = BlockContext(group, b)
            site = ctx.site(trivial)
            assert site.centralizer is G
            assert site.blocks == computed
            want = [e for e in computed
                    if algebra_product(e, b.element) == e]
            assert want == [b.element]
            assert [pr.idempotent for pr in ctx.pairs_at(trivial)] == want

    def test_non_central_brauer_image_is_rejected(self):
        G = symmetric_group(3)
        b = next(blk for blk in blocks(G, GF2) if blk.principal)
        # move one coefficient of b off its class: x, in a class of size > 1,
        # loses it and z, outside that class and the support, gains it
        cls = next(c for c in conjugacy_classes(G) if len(c.members) > 1
                   and c.members[0] in b.element.support)
        x = cls.members[0]
        z = next(y for y in G.elements
                 if y not in cls.members and y not in b.element.support)
        support = dict(b.element.support)
        support[z] = support.pop(x)
        moved = GroupAlgebraElement(G, GF2, support)
        fake = SimpleNamespace(group=G, field=GF2, element=moved)
        ctx = BlockContext(GroupContext(G, GF2), fake)
        with pytest.raises(TheoryViolation, match="not central"):
            ctx.pairs_at(PermGroup.trivial(G.degree))


# ---------------------------------------------------------------------------
# Smith normal form


def unit_rich_matrix(rng, max_rows=5, max_cols=5):
    rows, cols = rng.randrange(1, max_rows + 1), rng.randrange(1, max_cols + 1)
    pool = [-1, -1, 0, 0, 0, 1, 1, 1, 2, -2, 3, -4, 6]
    entries = {(i, j): rng.choice(pool)
               for i in range(rows) for j in range(cols)}
    return {k: v for k, v in entries.items() if v}, rows, cols


def random_complex(rng, max_vertices=7):
    n = rng.randrange(2, max_vertices + 1)
    faces = [tuple(rng.sample(range(n), rng.randrange(1, min(n, 4) + 1)))
             for _ in range(rng.randrange(1, 2 * n))]
    return complex_from_faces(faces)


class TestSmithNormalForm:
    def test_matches_gcd_of_minors_on_unit_rich_matrices(self):
        rng = random.Random(0x5F1)
        units = 0
        for _ in range(80):
            entries, rows, cols = unit_rich_matrix(rng)
            units += sum(1 for v in entries.values() if v in (1, -1))
            assert smith_normal_form(row_dicts(entries, rows),
                                     rows).diagonal == \
                invariant_factors_by_minors(entries, rows, cols), entries
        assert units > 200

    def test_matches_gcd_of_minors_without_units(self):
        rng = random.Random(0x5F2)
        for _ in range(30):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            entries = {(i, j): rng.choice([0, 2, -2, 3, 4, -6, 9])
                       for i in range(rows) for j in range(cols)}
            entries = {k: v for k, v in entries.items() if v}
            assert smith_normal_form(row_dicts(entries, rows),
                                     rows).diagonal == \
                invariant_factors_by_minors(entries, rows, cols), entries

    def test_rank_matches_rational_on_boundary_matrices(self):
        rng = random.Random(0xB0D)
        checked = 0
        for _ in range(60):
            C = random_complex(rng)
            counts = C.face_counts()
            for n, m in enumerate(boundary_matrices(C)):
                entries = entries_of(m)
                assert smith_normal_form(m, counts[n]).rank \
                    == rank_over_rationals(entries, counts[n], counts[n + 1])
                checked += 1
        assert checked > 60

    def test_projective_plane_torsion_stays_z2(self):
        faces = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                 (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
        C = complex_from_faces(faces)
        assert homology(C).groups == [(1, ()), (0, (2,))]
        counts = C.face_counts()
        d2 = boundary_matrices(C)[1]
        assert smith_normal_form(d2, counts[1]).diagonal == \
            [1] * 9 + [2]

    def test_diagonal_matches_determinantal_divisors_on_unit_rich_matrices(
            self):
        rng = random.Random(0x7AB)
        matrices = [unit_rich_matrix(rng) for _ in range(40)]
        C = random_complex(random.Random(3), max_vertices=6)
        counts = C.face_counts()
        matrices += [(entries_of(m), counts[n], counts[n + 1])
                     for n, m in enumerate(boundary_matrices(C))]
        for entries, rows, cols in matrices:
            snf = smith_normal_form(row_dicts(entries, rows), rows)
            assert snf.diagonal == \
                invariant_factors_by_minors(entries, rows, cols), entries
