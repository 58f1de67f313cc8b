import random

import pytest

from blockposets.errors import SizeLimitExceeded, TheoryViolation
from blockposets.topology import (
    EquivalenceCertificate,
    GPoset,
    HomologyResult,
    Poset,
    SimplicialComplex,
    boundary_matrices,
    closure_masks,
    chain_counts,
    face_poset,
    homology,
    orbit_poset,
    order_complex,
    poset_iso_check,
    quillen_pair_check,
    smith_normal_form,
)

from oracles import (
    homology_betti_rational,
    invariant_factors_by_minors,
    rank_over_rationals,
    row_dicts,
)


def chain_poset(n):
    labels = list(range(n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return Poset.from_leq_pairs(labels, pairs)


def antichain(n):
    return Poset.from_leq_pairs(list(range(n)), [])


class TestPoset:
    def test_axioms_reject_nontransitive(self):
        with pytest.raises(TheoryViolation):
            Poset.from_leq_pairs("abc", [(0, 1), (1, 2)])

    def test_closure_constructor(self):
        P = Poset("abc", closure_masks(3, [(0, 1), (1, 2)]))
        assert P.leq(0, 2)

    def test_covering(self):
        P = chain_poset(4)
        assert P.covering_pairs() == [(0, 1), (1, 2), (2, 3)]

    def test_minimal_maximal(self):
        P = Poset("abcd", closure_masks(4, [(0, 2), (1, 2), (2, 3)]))
        assert P.minimal_elements() == [0, 1]
        assert P.maximal_elements() == [3]

    def test_json_roundtrip_fields(self):
        P = chain_poset(3)
        d = P.to_json_dict()
        assert {"empty", "elements", "leq", "covering"} <= set(d)
        assert [0, 1] in d["covering"]
        assert d["empty"] is False

    def test_dot_empty_marker(self):
        P = Poset([], [])
        assert "empty poset" in P.to_dot()


class TestOrderComplex:
    def test_chain_gives_full_simplex(self):
        C = order_complex(chain_poset(3))
        assert C.face_counts() == [3, 3, 1]

    def test_antichain(self):
        C = order_complex(antichain(5))
        assert C.face_counts() == [5]

    def test_cone_is_contractible(self):
        # poset with a maximum: homology of a point
        P = Poset("abcd", closure_masks(4, [(0, 3), (1, 3), (2, 3), (0, 1)]))
        assert homology(order_complex(P)) == homology(order_complex(chain_poset(1)))

    def test_simplex_cap(self):
        with pytest.raises(SizeLimitExceeded):
            order_complex(chain_poset(8), max_simplices=10)


class TestChainCounts:
    def test_chain(self):
        assert chain_counts(chain_poset(4)) == [4, 6, 4, 1]

    def test_empty_poset(self):
        assert chain_counts(Poset([], [])) == []

    def test_matches_order_complex_on_random_posets(self):
        rng = random.Random(2011)
        for _ in range(40):
            n = rng.randint(1, 9)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.35]
            P = Poset(list(range(n)), closure_masks(n, edges))
            assert chain_counts(P) == order_complex(P).face_counts()


class TestHomology:
    def test_hollow_triangle_is_circle(self):
        C = SimplicialComplex.from_faces([(0, 1), (1, 2), (0, 2)])
        H = homology(C)
        assert H.groups == [(1, ()), (1, ())]

    def test_point(self):
        H = homology(SimplicialComplex.from_faces([(0,)]))
        assert H.groups == [(1, ())]

    def test_tetrahedron_boundary_is_sphere(self):
        faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        H = homology(SimplicialComplex.from_faces(faces))
        assert H.groups == [(1, ()), (0, ()), (1, ())]

    def test_projective_plane_torsion(self):
        faces = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                 (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
        H = homology(SimplicialComplex.from_faces(faces))
        assert H.groups == [(1, ()), (0, (2,))]

    def test_empty_complex(self):
        H = homology(SimplicialComplex([]))
        assert H.empty and H.groups == []

    def test_euler_characteristic_agreement(self):
        rng = random.Random(2024)
        for _ in range(30):
            C = random_complex(rng)
            H = homology(C)
            assert C.euler_characteristic() == H.euler_characteristic()

    def test_invariance_under_relabel(self):
        faces = [(0, 1, 2), (1, 2, 3), (3, 4)]
        C1 = SimplicialComplex.from_faces(faces)
        relabeled = [tuple(10 - v for v in f) for f in faces]
        C2 = SimplicialComplex.from_faces(relabeled)
        assert homology(C1) == homology(C2)


def random_complex(rng, max_vertices=8):
    n = rng.randrange(1, max_vertices + 1)
    k = rng.randrange(1, 2 * n)
    faces = []
    for _ in range(k):
        size = rng.randrange(1, min(n, 4) + 1)
        faces.append(tuple(rng.sample(range(n), size)))
    return SimplicialComplex.from_faces(faces)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        snf = smith_normal_form(row_dicts({(0, 0): 2, (1, 1): 3}, 2), 2, 2)
        assert snf.diagonal == [1, 6]

    def test_identity(self):
        entries = {(i, i): 1 for i in range(4)}
        snf = smith_normal_form(row_dicts(entries, 4), 4, 4)
        assert snf.diagonal == [1, 1, 1, 1]

    def test_zero_matrix(self):
        snf = smith_normal_form(row_dicts({}, 3), 3, 5)
        assert snf.diagonal == []

    def test_divisibility_chain_random(self):
        rng = random.Random(13)
        for _ in range(60):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            entries = {(i, j): rng.randrange(-9, 10)
                       for i in range(rows) for j in range(cols)}
            snf = smith_normal_form(row_dicts(entries, rows), rows, cols)
            for a, b in zip(snf.diagonal, snf.diagonal[1:]):
                assert b % a == 0
            assert all(d > 0 for d in snf.diagonal)

    def test_diagonal_matches_determinantal_divisors(self):
        rng = random.Random(77)
        for _ in range(40):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            entries = {(i, j): rng.randrange(-6, 7)
                       for i in range(rows) for j in range(cols)}
            snf = smith_normal_form(row_dicts(entries, rows), rows, cols)
            assert snf.diagonal == \
                invariant_factors_by_minors(entries, rows, cols), entries

    def test_rank_matches_rational(self):
        rng = random.Random(5)
        for _ in range(50):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            entries = {(i, j): rng.randrange(-4, 5)
                       for i in range(rows) for j in range(cols)}
            assert (smith_normal_form(row_dicts(entries, rows), rows, cols).rank
                    == rank_over_rationals(entries, rows, cols))


class TestBettiCrossCheck:
    def test_snf_vs_rational_on_random_complexes(self):
        # 100 random complexes on <= 8 vertices: SNF betti == rational betti
        rng = random.Random(0xBE771)
        for _ in range(100):
            C = random_complex(rng)
            H = homology(C)
            snf_betti = [b for b, _t in H.groups]
            while snf_betti and snf_betti[-1] == 0:
                snf_betti.pop()
            assert snf_betti == homology_betti_rational(C)

    def test_boundary_composite_always_zero(self):
        rng = random.Random(0xDD)
        for _ in range(50):
            boundary_matrices(random_complex(rng))  # raises on failure


class TestFacePoset:
    def test_triangle_face_poset(self):
        C = SimplicialComplex.from_faces([(0, 1, 2)])
        P = face_poset(C)
        assert P.n == 7
        assert len(P.minimal_elements()) == 3
        assert len(P.maximal_elements()) == 1


class TestGPosetAndOrbits:
    def g_chain_pair(self):
        # two 2-chains swapped by an involution
        labels = ["a0", "b0", "a1", "b1"]
        pairs = [(0, 1), (2, 3)]
        up = closure_masks(len(labels), pairs)
        action = [[2, 3, 0, 1]]
        return GPoset(labels, up, action)

    def test_action_validated(self):
        X = self.g_chain_pair()
        assert X.orbits() == [(0, 2), (1, 3)]

    def test_bad_action_rejected(self):
        labels = ["a", "b"]
        up = closure_masks(len(labels), [(0, 1)])
        with pytest.raises(TheoryViolation):
            GPoset(labels, up, [[1, 0]])  # swap breaks the order

    def test_orbit_poset(self):
        X = self.g_chain_pair()
        Q, orbit_of = orbit_poset(X)
        assert Q.n == 2
        assert Q.leq(orbit_of[0], orbit_of[1])

    def test_trivial_action_is_identity_quotient(self):
        P = chain_poset(3)
        X = GPoset(P.labels, P.up, [])
        Q, orbit_of = orbit_poset(X)
        ok, _ = poset_iso_check(P, Q, orbit_of)
        assert ok


class TestChecks:
    def test_identity_pair_passes(self):
        P = chain_poset(3)
        X = GPoset(P.labels, P.up, [])
        cert = quillen_pair_check(X, X, [0, 1, 2], [0, 1, 2])
        assert cert.ok and cert.roundtrip_x == "id=HF"

    def test_order_violation_fails(self):
        X = GPoset(*_as_g(chain_poset(2)))
        Y = GPoset(*_as_g(antichain(2)))
        cert = quillen_pair_check(X, Y, [0, 1], [0, 1])
        assert not cert.ok
        assert not cert.forward_order_preserving
        assert cert.failures

    def test_iso_check_identity(self):
        P = chain_poset(3)
        assert poset_iso_check(P, P, [0, 1, 2]) == (True, None)

    def test_iso_check_chain_vs_antichain(self):
        ok, witness = poset_iso_check(chain_poset(2), antichain(2), [0, 1])
        assert not ok and witness is not None

    def test_iso_check_rejects_nonbijection(self):
        ok, _ = poset_iso_check(antichain(2), antichain(2), [0, 0])
        assert not ok


def _as_g(P):
    return P.labels, P.up, []
