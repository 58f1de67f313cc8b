"""The pair poset built at orbit representatives.

When the family is closed under conjugation, BlockContext.pair_poset tests
normal containment only below the first pair of each G-orbit, a pair at a
class representative R0, and carries those edges along the orbit walk
(tests/test_tuple_kernel.py compares the result with an all-pairs build).

* Building A on S6 p=2 principal makes at most 50 normal_containment calls
  (915 when every strictly contained pair was tested).
* A truncation Br_R0(e) that is not central in kC_G(R0) is refused, not
  multiplied as a class vector.
* SL(2,13) on the 168 nonzero vectors of GF(13)^2 has a central
  involution, so C_G(Z) = G: its p=2 report equals the one recorded when
  containment was a product in kC_G(R), and takes under a second (12 s
  then).

Run as a script, it counts the calls on S8 p=2 principal, which no tier-1
test builds, and exits 1 above 1,000 (104,965 when every strictly
contained pair was tested):

    PYTHONPATH=src python tests/test_orbit_build.py
"""

import json
import sys
import time
from pathlib import Path

import pytest

from blockposets.blocks import GroupAlgebraElement
from blockposets.brauer import BlockContext, BrauerPair, GroupContext
from blockposets.cli import main
from blockposets.commuting import elementary_abelian_poset
from blockposets.errors import TheoryViolation
from blockposets.gf import PrimeField
from blockposets.perms import Permutation, symmetric_group


def containment_calls(n):
    """The normal_containment calls that building A on the principal
    2-block of S_n makes, and A's size."""
    group = GroupContext(symmetric_group(n), PrimeField(2))
    (block,) = [b for b in group.blocks if b.principal]
    ctx = BlockContext(group, block)
    plain, calls = ctx.normal_containment, [0]

    def counting(lo, hi):
        calls[0] += 1
        return plain(lo, hi)

    ctx.normal_containment = counting
    size = elementary_abelian_poset(ctx).n
    return calls[0], size


def test_s6_p2_principal_a_makes_few_containment_calls():
    calls, size = containment_calls(6)
    assert size == 270
    assert 0 < calls <= 50


def test_non_central_truncation_is_refused():
    """On S5 p=2 principal, (1, e) is normal in every pair (R0, f) at a
    class representative, with e the block of kG.  Moving one coefficient
    of e off its C_G(R0)-class makes Br_R0(e) non-central."""
    G, F = symmetric_group(5), PrimeField(2)
    group = GroupContext(G, F)
    (block,) = [b for b in group.blocks if b.principal]
    ctx = BlockContext(group, block)
    R = next(R for R, _orbit in group.classes if R.order > 1
             and not group._site(R).centralizer.is_abelian())
    (hi,) = ctx.pairs_at(R)
    (lo,) = ctx.pairs_at(group.classes[0][0])
    assert ctx.normal_containment(lo, hi)
    C = group._site(R).centralizer
    e = lo.idempotent
    x = next(y for y in e.support if y in C.element_set and any(
        y.conjugate(c) != y for c in C.generators))
    z = next(y for y in C.elements if y not in e.support)
    support = dict(e.support)
    support[z] = support.pop(x)
    moved = BrauerPair(lo.subgroup, GroupAlgebraElement(G, F, support))
    with pytest.raises(TheoryViolation, match="pair's block is not central"):
        ctx.normal_containment(moved, hi)


def sl2_13_spec():
    """SL(2,13) acting on the nonzero row vectors of GF(13)^2, from
    [[1,1],[0,1]] and [[1,0],[1,1]], as a generators spec."""
    F = PrimeField(13)
    vectors = [(a, b) for a in range(13) for b in range(13) if a or b]
    index = {v: i for i, v in enumerate(vectors)}

    def acting(m):
        (a, b), (c, d) = m
        return Permutation([
            index[F.add(F.mul(x, a), F.mul(y, c)),
                  F.add(F.mul(x, b), F.mul(y, d))] for x, y in vectors])

    gens = [acting(((1, 1), (0, 1))), acting(((1, 0), (1, 1)))]
    return {"type": "generators", "degree": len(vectors),
            "gens": [[[p + 1 for p in cycle] for cycle in g.cycles()]
                     for g in gens]}


@pytest.mark.slow
def test_sl2_13_p2_matches_recorded_within_a_second(tmp_path):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["verify", "--group", json.dumps(sl2_13_spec()),
                 "--prime", "2", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.read_bytes() == (Path(__file__).parent / "data"
                                / "sl2_13_p2_all.json").read_bytes()
    assert elapsed < 1.0, f"{elapsed:.2f} s"


if __name__ == "__main__":
    calls, size = containment_calls(8)
    print(f"S8 p=2 principal: |A| = {size}, {calls} normal_containment calls")
    sys.exit(0 if size == 12238 and calls <= 1000 else 1)
