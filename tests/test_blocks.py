import itertools

import pytest

from blockposets.blocks import (
    Block,
    CentralAlgebra,
    GroupAlgebraElement,
    blocks,
    class_sum_algebra,
    primitive_idempotents,
)
from blockposets import gf
from blockposets.errors import SizeLimitExceeded, TheoryViolation
from blockposets.gf import PrimeField, ExtensionField
from blockposets.perms import (
    Permutation,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)

from oracles import (
    ORACLE_BOUND,
    brute_force_central_idempotents,
    conjugate_element,
    dense_constants,
    sparse_constants,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def cycle_type(perm):
    return tuple(sorted(len(c) for c in perm.cycles()))


def coords_of_classes(A, picks):
    """Coordinate vector with 1 on the classes of the given cycle types."""
    F = A.field
    out = [F.zero] * A.dim
    for k, cls in enumerate(A.classes):
        if cycle_type(cls.representative) in picks:
            out[k] = F.one
    return out


class TestClassSumAlgebra:
    def test_s3_transposition_square(self):
        # T*T = 3*1 + 3*C = 1 + C over GF(2), by direct pair counting
        G = symmetric_group(3)
        A = class_sum_algebra(G, GF2)
        assert A.dim == 3
        T = coords_of_classes(A, {(2,)})
        TT = A.mult(T, T)
        # oracle: count pairs directly
        transpositions = [x for x in G.elements if x.order() == 2]
        for k, cls in enumerate(A.classes):
            z = cls.representative
            count = sum(1 for x in transpositions for y in transpositions
                        if x * y == z)
            assert TT[k] == count % 2

    def test_s3_three_cycle_square(self):
        G = symmetric_group(3)
        A = class_sum_algebra(G, GF2)
        C = coords_of_classes(A, {(3,)})
        CC = A.mult(C, C)
        assert CC == C  # 2*1 + C reduced mod 2

    def test_identity_class_acts_trivially(self):
        for G in (symmetric_group(4), dihedral_group(8)):
            A = class_sum_algebra(G, GF3)
            for j in range(A.dim):
                v = [A.field.zero] * A.dim
                v[j] = A.field.one
                assert A.mult(A.identity_coords(), v) == v

    def test_expand_round_trip(self):
        G = symmetric_group(3)
        A = class_sum_algebra(G, GF2)
        C = coords_of_classes(A, {(3,)})
        elt = A.expand(C)
        assert len(elt.support) == 2  # the two 3-cycles
        assert all(x.order() == 3 for x in elt.support)


def nilpotent_c4(A):
    """1 + g^2 in GF(2)C4, which squares to 1 + g^4 = 0."""
    n = [0] * A.dim
    for k, cls in enumerate(A.classes):
        x = cls.representative
        if x.is_identity() or (x * x).is_identity() and x.order() == 2:
            n[k] = 1
    return n


def fixed_space_dimension(A):
    """dim ker(M - I) for the q-power matrix M of A."""
    F = A.field
    K = [[F.sub(c, F.one) if i == k else c for i, c in enumerate(row)]
         for k, row in enumerate(A.q_power_matrix())]
    return len(gf.nullspace(K, F))


class TestMinPoly:
    def test_identity(self):
        A = class_sum_algebra(symmetric_group(3), GF2)
        m = A.min_poly(A.identity_coords())
        assert m == [1, 1]  # x - 1 = x + 1 over GF(2)

    def test_idempotent_not_scalar(self):
        # C in Z(GF(2)S3) satisfies C^2 = C, C not in {0,1}: min poly x^2 + x
        A = class_sum_algebra(symmetric_group(3), GF2)
        C = coords_of_classes(A, {(3,)})
        assert A.min_poly(C) == [0, 1, 1]

    def test_nilpotent(self):
        A = class_sum_algebra(cyclic_group(4), GF2)
        n = nilpotent_c4(A)
        assert sum(n) == 2
        assert all(c == 0 for c in A.mult(n, n))
        assert A.min_poly(n) == [0, 0, 1]  # x^2


class TestFixedSpace:
    """The q-power map fixes exactly the span of the blocks."""

    def test_s3_gf2_dimension(self):
        A = class_sum_algebra(symmetric_group(3), GF2)
        assert fixed_space_dimension(A) == len(primitive_idempotents(A)) == 2

    def test_s4_gf2_dimension(self):
        A = class_sum_algebra(symmetric_group(4), GF2)
        assert fixed_space_dimension(A) == len(primitive_idempotents(A)) == 1

    def test_c5_gf2_dimension(self):
        # Z(kC5) = kC5 is semisimple of dimension 5, but GF(2) does not
        # split x^5 - 1 = (x + 1)(x^4 + x^3 + x^2 + x + 1): two blocks
        A = class_sum_algebra(cyclic_group(5), GF2)
        assert A.dim == 5
        assert fixed_space_dimension(A) == len(primitive_idempotents(A)) == 2


class TestPrimitiveIdempotents:
    def test_one_dimensional(self):
        A = class_sum_algebra(cyclic_group(1), GF2)
        assert primitive_idempotents(A) == [(1,)]

    def test_s3_gf2(self):
        A = class_sum_algebra(symmetric_group(3), GF2)
        prims = primitive_idempotents(A)
        C = tuple(coords_of_classes(A, {(3,)}))
        one_plus_C = tuple(coords_of_classes(A, {(), (3,)}))
        assert set(prims) == {C, one_plus_C}

    def test_oracle_agreement_small_groups(self):
        cases = [
            (symmetric_group(3), GF2),
            (symmetric_group(3), GF3),
            (symmetric_group(4), GF2),
            (dihedral_group(8), GF2),
            (cyclic_group(6), GF2),
            (cyclic_group(6), GF3),
            (symmetric_group(4), GF3),
        ]
        for G, F in cases:
            A = class_sum_algebra(G, F)
            assert primitive_idempotents(A) == brute_force_central_idempotents(A), \
                (G.label, F)

    def test_extension_field_split(self):
        # GF(2)C3 has 2 blocks; over GF(4) the nonprincipal one splits: 3 blocks
        G = cyclic_group(3)
        A2 = class_sum_algebra(G, GF2)
        A4 = class_sum_algebra(G, ExtensionField(2, 2))
        assert len(primitive_idempotents(A2)) == 2
        assert len(primitive_idempotents(A4)) == 3
        assert primitive_idempotents(A4) == brute_force_central_idempotents(A4)
        assert fixed_space_dimension(A4) == 3

    @pytest.mark.parametrize("group, field", [
        (cyclic_group(3), ExtensionField(2, 3)),
        (symmetric_group(3), ExtensionField(2, 3)),
        (dihedral_group(8), ExtensionField(2, 3)),
        (symmetric_group(3), ExtensionField(3, 2)),
        (cyclic_group(4), ExtensionField(3, 2)),
        (cyclic_group(3), ExtensionField(5, 2)),
    ], ids=["C3-GF8", "S3-GF8", "D8-GF8", "S3-GF9", "C4-GF9", "C3-GF25"])
    def test_oracle_agreement_extension_fields(self, group, field):
        A = class_sum_algebra(group, field)
        assert field.q ** A.dim <= ORACLE_BOUND
        assert primitive_idempotents(A) == brute_force_central_idempotents(A)

    def test_lost_fixed_vector_is_caught(self, monkeypatch):
        # a nullspace short of one vector still splits into idempotents
        # summing to 1; the count against the rank of M - I catches it
        nullspace = gf.nullspace
        monkeypatch.setattr(gf, "nullspace", lambda A, F: nullspace(A, F)[:-1])
        A = class_sum_algebra(symmetric_group(3), GF2)
        with pytest.raises(TheoryViolation, match="fixed-space dimension"):
            primitive_idempotents(A)

    def test_nilpotent_in_fixed_basis_is_caught(self, monkeypatch):
        # x^2 does not divide x^2 - x: the certificate raises before roots
        # of the minimal polynomial are searched for
        A = class_sum_algebra(cyclic_group(4), GF2)
        n = nilpotent_c4(A)
        nullspace = gf.nullspace
        monkeypatch.setattr(gf, "nullspace",
                            lambda M, F: [n] + nullspace(M, F))
        with pytest.raises(TheoryViolation, match="x\\^q - x"):
            primitive_idempotents(A)

    def test_oracle_bound(self):
        A = class_sum_algebra(symmetric_group(5), GF2)
        with pytest.raises(SizeLimitExceeded):
            brute_force_central_idempotents(A, bound=10)

    def test_extension_field_oracle_generic_path(self):
        # C6 over GF(4): 3 blocks; the oracle squares its 4^6 candidates
        # from the basis squares, two bits per coordinate
        A = class_sum_algebra(cyclic_group(6), ExtensionField(2, 2))
        prims = primitive_idempotents(A)
        assert len(prims) == 3
        assert prims == brute_force_central_idempotents(A)


class TestBlocks:
    def test_s4_single_block(self):
        out = blocks(symmetric_group(4), GF2)
        assert len(out) == 1
        assert out[0].principal
        assert out[0].element == GroupAlgebraElement.one(out[0].group, GF2)

    def test_s3_two_blocks(self):
        out = blocks(symmetric_group(3), GF2)
        assert len(out) == 2
        principal = [b for b in out if b.principal]
        assert len(principal) == 1
        b0 = principal[0]
        assert b0.augment == 1
        # principal block is 1 + C: support = identity + two 3-cycles
        assert len(b0.element.support) == 3
        other = [b for b in out if not b.principal][0]
        assert other.augment == 0
        assert len(other.element.support) == 2

    def test_s3_p3_single_block(self):
        assert len(blocks(symmetric_group(3), GF3)) == 1

    def test_block_orthogonality_and_sum(self):
        for G, F in [(symmetric_group(4), GF3), (dihedral_group(12), GF2)]:
            out = blocks(G, F)
            total = GroupAlgebraElement.zero(G, F)
            for b in out:
                assert b.element.is_idempotent()
                total = total + b.element
            assert total == GroupAlgebraElement.one(G, F)
            for b1, b2 in itertools.combinations(out, 2):
                assert not (b1.element * b2.element)

    def test_blocks_commute_with_class_sums(self):
        G = symmetric_group(3)
        F = GF2
        A = class_sum_algebra(G, F)
        for b in blocks(G, F, algebra=A):
            for cls in A.classes:
                z = GroupAlgebraElement(G, F,
                                        {x: F.one for x in cls.members})
                assert b.element * z == z * b.element

    def test_permuted_class_order_same_idempotents(self):
        G = symmetric_group(3)
        A = class_sum_algebra(G, GF2)
        # rebuild the algebra with the class list reversed
        classes = list(reversed(A.classes))
        n = A.dim
        remap = {i: n - 1 - i for i in range(n)}
        dense = dense_constants(A)
        const = [[[dense[remap[i]][remap[j]][remap[k]] for k in range(n)]
                  for j in range(n)] for i in range(n)]
        B = CentralAlgebra(G, GF2, classes, sparse_constants(const, GF2))
        assert B.identity_class == n - 1 - A.identity_class
        expanded_a = {A.expand(u).key() for u in primitive_idempotents(A)}
        expanded_b = {B.expand(u).key() for u in primitive_idempotents(B)}
        assert expanded_a == expanded_b


class TestGroupAlgebraElement:
    def test_augmentation(self):
        G = symmetric_group(3)
        one = GroupAlgebraElement.one(G, GF2)
        assert one.augmentation() == 1
        C = GroupAlgebraElement(G, GF2, {x: 1 for x in G.elements
                                         if x.order() == 3})
        assert C.augmentation() == 0  # two 3-cycles, 2 = 0 mod 2
        assert (one + C).augmentation() == 1

    def test_conjugation_is_algebra_map(self):
        G = symmetric_group(4)
        F = GF3
        import random
        rng = random.Random(5)
        elems = list(G.elements)
        for _ in range(20):
            a = GroupAlgebraElement(G, F, {rng.choice(elems): F.rand(rng)
                                           for _ in range(3)})
            b = GroupAlgebraElement(G, F, {rng.choice(elems): F.rand(rng)
                                           for _ in range(3)})
            g = rng.choice(elems)
            assert conjugate_element(a * b, g) == \
                conjugate_element(a, g) * conjugate_element(b, g)

    def test_central_elements_fixed_by_conjugation(self):
        G = symmetric_group(3)
        A = class_sum_algebra(G, GF2)
        for b in blocks(G, GF2, algebra=A):
            assert b.element.is_fixed_by(G.generators)
