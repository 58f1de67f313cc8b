"""The poset order held as flat up-set rows, and the checks read off one
row per orbit.

* The commuting poset streams its up masks into the row table.  The
  oracle lists every mask together, as block_geometry held them before; the
  masks rebuilt from the rows must equal them on every non-slow corpus
  block and on both S6 p=2 blocks.
* Chain counts are taken once per orbit and weighted by orbit size.  They
  must equal the count at every element on A and K of every corpus block
  and of both S6 p=2 blocks, and a count with one orbit's size off by one
  must not.
* Poset checks transitivity and antisymmetry at orbit representatives
  only, and quillen_pair_check its order and round-trip tests.  Under
  mutations that a representative's row does not show (a relation dropped
  in one other row, an expand or collapse value changed at one other
  element) and one that every row of an orbit shows, they must fail with
  the message, witness and failure list of the all-element scan, and
  theorem1's two round-trip fields, read off the certificate, must equal
  those of a scan of every element.
* Covering pairs are read off the rows.  They must equal those read off
  the up and down masks on A, K, K's orbit poset, the iso-class poset and
  F's pair poset of every non-slow corpus block and both S6 p=2 blocks.
* The default checks on S6 p=2's principal block and a `poset --which K`
  export there run with no mask rebuild in the library, and theorem2
  carries g^-1 along its orbit walk instead of inverting g at
  every step.
"""

import random
from types import SimpleNamespace

import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, build_group, main, select_blocks
from blockposets.commuting import block_geometry
from blockposets.errors import TheoryViolation
from blockposets.fusion import CommutingCategory, FusionSystem, IsoClassPoset
from blockposets.gf import field_context
from blockposets.perms import Permutation, symmetric_group
from blockposets.topology import (
    Poset,
    chain_counts,
    iter_bits,
    orbit_poset,
    quillen_pair_check,
)
from blockposets.verify import (
    DEFAULT_CHECKS,
    check_theorem1,
    check_theorem2,
    run_block_checks,
)

from oracles import (
    ListRowGPoset,
    chain_counts_by_element,
    commuting_up_masks,
    covering_pairs_by_masks,
    down_masks,
    quillen_pair_check_by_element,
    theorem1_scans,
    up_masks,
)


def outcome(check, *args):
    """(message, witness) raised by check, or None when it passes."""
    try:
        check(*args)
    except TheoryViolation as exc:
        return str(exc), exc.witness
    return None


def contexts(slow):
    for entry in CORPUS:
        if entry.slow and not slow:
            continue
        group = GroupContext(build_group(entry.spec),
                             field_context(entry.p, entry.d))
        for b in select_blocks(group.blocks, entry.selector):
            yield f"{entry.name}/{b.index}", BlockContext(group, b)
    group = GroupContext(symmetric_group(6), field_context(2, 1))
    for b in group.blocks:
        yield f"S6_p2/{b.index}", BlockContext(group, b)


@pytest.fixture(scope="module")
def geometries():
    """Every corpus block, the slow ones too, and both S6 p=2 blocks."""
    return [(name, ctx, block_geometry(ctx))
            for name, ctx in contexts(slow=True)]


@pytest.fixture(scope="module")
def s5_principal():
    group = GroupContext(symmetric_group(5), field_context(2, 1))
    (principal,) = [b for b in group.blocks if b.principal]
    ctx = BlockContext(group, principal)
    return ctx, block_geometry(ctx)


def as_certificate(cert):
    return (cert.ok, cert.forward_order_preserving,
            cert.backward_order_preserving, cert.forward_equivariant,
            cert.backward_equivariant, cert.roundtrip_x, cert.roundtrip_y,
            cert.failures)


def non_representatives(P):
    reps = set(P.orbit_representatives())
    return [x for x in range(P.n) if x not in reps]


class TestRowTable:
    def test_masks_match_listed_masks(self, geometries):
        checked = 0
        for name, ctx, geom in geometries:
            if name.startswith("S7"):
                continue
            assert up_masks(geom.kposet) \
                == commuting_up_masks(ctx, geom.apairs), name
            checked += geom.kposet.n
        assert checked > 3495

    def test_rows_are_increasing_up_sets(self, geometries):
        for name, _ctx, geom in geometries:
            for P in (geom.aposet, geom.kposet):
                rows = [P.members[P.offsets[i]:P.offsets[i + 1]].tolist()
                        for i in range(P.n)]
                assert all(row == sorted(set(row)) and i in row
                           for i, row in enumerate(rows)), name
                assert P.leq_pairs() == [(i, j) for i, row in enumerate(rows)
                                         for j in row], name

    def test_leq_reads_the_rows(self, s5_principal):
        _ctx, geom = s5_principal
        for P in (geom.aposet, geom.kposet):
            up = up_masks(P)
            assert [[P.leq(i, j) for j in range(P.n)] for i in range(P.n)] \
                == [[(up[i] >> j) & 1 == 1 for j in range(P.n)]
                    for i in range(P.n)]

    def test_one_mask_per_label(self):
        with pytest.raises(ValueError, match="2 up-sets for 1 labels"):
            Poset(["a"], [0b1, 0b10])
        with pytest.raises(ValueError, match="1 up-sets for 2 labels"):
            Poset(["a", "b"], [0b1])

    def test_maximal_elements_have_singleton_rows(self, geometries):
        for name, _ctx, geom in geometries:
            K = geom.kposet
            up = up_masks(K)
            assert K.maximal_elements() \
                == [i for i in range(K.n) if up[i] == 1 << i], name


def test_covering_pairs_match_masks(geometries):
    """A, K, K's orbit poset, the iso-class poset and F's pair poset."""
    checked = []
    for name, ctx, geom in geometries:
        if name.startswith("S7"):
            continue
        fs = FusionSystem.from_block_context(ctx)
        posets = {"A": geom.aposet, "K": geom.kposet,
                  "K-orbit": orbit_poset(geom.kposet)[0],
                  "iso-classes": IsoClassPoset(CommutingCategory(fs)).poset,
                  "F-pairs": ctx.pair_poset(fs.family).poset}
        for which, P in posets.items():
            assert P.covering_pairs() == covering_pairs_by_masks(P), \
                f"{name}/{which}"
            checked.append(bool(P.action))
    assert len(checked) == 5 * (7 + 2) and set(checked) == {True, False}


class TestChainCounts:
    def test_orbit_counts_match_every_element(self, geometries):
        sizes = []
        for name, _ctx, geom in geometries:
            for P in (geom.aposet, geom.kposet):
                assert chain_counts(P) == chain_counts_by_element(P), name
                sizes.append(P.n)
        assert 3495 in sizes and len(sizes) == 2 * (7 + 1 + 2)

    def test_plain_poset_counts_each_element(self, s5_principal):
        _ctx, geom = s5_principal
        K = geom.kposet
        plain = Poset(list(K.labels), up_masks(K))
        assert chain_counts(plain) == chain_counts(K) == [105, 240, 120]

    @pytest.mark.parametrize("delta", [1, -1])
    def test_orbit_size_off_by_one_is_caught(self, s5_principal, monkeypatch,
                                             delta):
        _ctx, geom = s5_principal
        K = geom.kposet
        expected = chain_counts_by_element(K)
        orbits = Poset.orbits

        def one_off(X):
            out = orbits(X)
            k = max(range(len(out)), key=lambda k: len(out[k]))
            out[k] = out[k] + out[k][:1] if delta > 0 else out[k][:-1]
            return out

        monkeypatch.setattr(Poset, "orbits", one_off)
        assert chain_counts(K) != expected


class TestRepresentativeChecks:
    """Mutations of the S5 and S6 p=2 principal posets (block 1 of each),
    A and K."""

    @pytest.fixture(scope="class")
    def posets(self, geometries):
        return [(f"{name}/{which}", P) for name, _ctx, geom in geometries
                if name in ("S5_p2/1", "S6_p2/1")
                for which, P in (("A", geom.aposet), ("K", geom.kposet))]

    def test_relation_dropped_in_one_other_row(self, posets):
        rng = random.Random(11)
        seen = set()
        for name, P in posets:
            others = set(non_representatives(P))
            pairs = [(i, j) for i, j in P.leq_pairs()
                     if i != j and i in others]
            for i, j in rng.sample(pairs, 6):
                up = up_masks(P)
                up[i] &= ~(1 << j)
                expected = outcome(ListRowGPoset, P.labels, up, P.action)
                assert expected is not None, name
                assert outcome(Poset, P.labels, up, P.action) == expected
                seen.add(expected[0])
        assert seen == {"relation not transitive",
                        "generator action is not an order-automorphism"}

    def test_relation_dropped_in_every_row_of_an_orbit(self, posets):
        rng = random.Random(12)
        checked = 0
        for name, P in posets:
            up = up_masks(P)
            starts = [(i, j) for i in P.orbit_representatives()
                      for j in iter_bits(up[i])
                      if any((up[k] >> j) & 1 for k in iter_bits(up[i])
                             if k not in (i, j))]
            for i, j in rng.sample(starts, min(4, len(starts))):
                orbit, queue = {(i, j)}, [(i, j)]
                for x, y in queue:
                    for a in P.action:
                        image = (a[x], a[y])
                        if image not in orbit:
                            orbit.add(image)
                            queue.append(image)
                up = up_masks(P)
                for x, y in orbit:
                    up[x] &= ~(1 << y)
                expected = outcome(ListRowGPoset, P.labels, up, P.action)
                assert expected[0] == "relation not transitive", name
                assert outcome(Poset, P.labels, up, P.action) == expected
                checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("side", ["expand", "collapse"])
    def test_map_changed_at_one_other_element(self, geometries, side):
        rng = random.Random(13)
        checked = 0
        for name, ctx, geom in geometries:
            if name not in ("S5_p2/1", "S6_p2/1"):
                continue
            A, K = geom.aposet, geom.kposet
            X, Y = (A, K) if side == "expand" else (K, A)
            for x in rng.sample(non_representatives(X), 4):
                mutated = SimpleNamespace(
                    aposet=A, kposet=K, expand_map=list(geom.expand_map),
                    collapse_map=list(geom.collapse_map))
                changed = getattr(mutated, side + "_map")
                changed[x] = rng.choice([y for y in range(Y.n)
                                         if y != changed[x]])
                fmap, hmap = mutated.expand_map, mutated.collapse_map
                expected = quillen_pair_check_by_element(A, K, fmap, hmap)
                got = as_certificate(quillen_pair_check(A, K, fmap, hmap))
                assert got == expected, name
                assert not got[0] and not (got[3] and got[4]), name
                result = check_theorem1(ctx, mutated)
                assert result.status == "fail", name
                assert result.witnesses == expected[-1], name
                assert (result.details["collapse_expand_is_identity"],
                        result.details["pointwise_below_expansion"]) \
                    == theorem1_scans(mutated), name
                checked += 1
        assert checked == 8

    def test_equivariant_maps_failing_at_representatives(self, geometries):
        """The identity from A onto its dual is equivariant and reverses
        every strict relation, so the representatives fail first and the
        all-element scan must give the full failure list."""
        for name, _ctx, geom in geometries:
            A = geom.aposet
            dual = Poset(A.labels, down_masks(up_masks(A)), A.action)
            identity = list(range(A.n))
            got = as_certificate(quillen_pair_check(A, dual, identity,
                                                    identity))
            assert got == quillen_pair_check_by_element(A, dual, identity,
                                                        identity), name
            assert got[3] and got[4], name
            strict = sum(1 for i, j in A.leq_pairs() if i != j)
            assert len(got[-1]) == 2 * strict, name

    def test_certificate_matches_every_element(self, geometries):
        for name, _ctx, geom in geometries:
            A, K = geom.aposet, geom.kposet
            cert = quillen_pair_check(A, K, geom.expand_map,
                                      geom.collapse_map)
            assert as_certificate(cert) == quillen_pair_check_by_element(
                A, K, geom.expand_map, geom.collapse_map), name
            assert cert.ok, name


def test_default_checks_never_rebuild_k_masks():
    """S6 p=2 principal: its homology check is skipped at the simplex
    bound, and no check can rebuild a poset's masks, as src/ has no
    mask rebuild left (the order complex reads the rows)."""
    group = GroupContext(symmetric_group(6), field_context(2, 1))
    (principal,) = [b for b in group.blocks if b.principal]
    results = run_block_checks(group, principal, DEFAULT_CHECKS)
    assert [r.status for r in results] \
        == ["pass", "pass", "pass", "pass", "skipped"]
    assert results[1].details["orbits"] == 71


def test_k_export_never_rebuilds_masks(tmp_path):
    """`poset --which K` on S6 p=2 principal reads its leq and covering
    pairs off the rows."""
    out = tmp_path / "k.json"
    assert main(["poset", "--group", "S6", "--prime", "2", "--block",
                 "principal", "--which", "K", "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_theorem2_carries_inverses_along_the_walk(monkeypatch):
    """check_theorem2 on S6 p=2 principal inverts one g per scanned coset
    and per orbit, and each generator once: 392 inversions, 716 while
    normal containment inverted R's generators to test normality, 4,203
    when the idempotent test inverted g at every call."""
    group = GroupContext(symmetric_group(6), field_context(2, 1))
    (principal,) = [b for b in group.blocks if b.principal]
    ctx = BlockContext(group, principal)
    geom = block_geometry(ctx)
    inverse = Permutation.inverse
    calls = [0]

    def counting(g):
        calls[0] += 1
        return inverse(g)

    monkeypatch.setattr(Permutation, "inverse", counting)
    assert check_theorem2(ctx, geom).status == "pass"
    assert calls[0] == 392
