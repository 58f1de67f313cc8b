import pytest

from blockposets import verify
from blockposets.blocks import blocks
from blockposets.brauer import BlockContext
from blockposets.commuting import block_geometry
from blockposets.errors import SizeLimitExceeded
from blockposets.gf import PrimeField
from blockposets.perms import symmetric_group
from blockposets.verify import (
    check_blocks_oracle,
    check_homology,
    check_nonclique,
    check_theorem1,
    check_theorem2,
    run_block_checks,
)

GF2 = PrimeField(2)


@pytest.fixture(scope="module")
def s4_setup():
    G = symmetric_group(4)
    (b,) = blocks(G, GF2)
    ctx = BlockContext(b)
    return b, ctx, block_geometry(ctx)


class TestCheckResults:
    def test_json_shape(self, s4_setup):
        _b, ctx, geom = s4_setup
        result = check_theorem1(ctx, geom)
        doc = result.to_json_dict()
        assert doc["status"] == "pass"
        assert "time_s" not in doc
        assert doc["target"]["group"] == "S4"
        timed = result.to_json_dict(include_timing=True)
        assert "time_s" in timed

    def test_blocks_oracle_skip_on_tiny_bound(self):
        G = symmetric_group(4)
        result = check_blocks_oracle(G, GF2, oracle_bound=2)
        assert result.status == "skipped"
        assert "reason" in result.details

    def test_homology_skip_on_tiny_bound(self, s4_setup):
        _b, ctx, geom = s4_setup
        result = check_homology(ctx, geom, max_simplices=3)
        assert result.status == "skipped"
        # Euler characteristics still compared before skipping
        chis = result.details["euler_characteristics"]
        assert chis[0] == chis[1]

    def test_nonclique_pass_details(self, s4_setup):
        _b, ctx, geom = s4_setup
        result = check_nonclique(ctx, geom)
        assert result.passed
        assert result.details["obstruction"] is None

    def test_theorem2_empty_case(self):
        G = symmetric_group(3)
        b = next(x for x in blocks(G, GF2) if not x.principal)
        ctx = BlockContext(b)
        result = check_theorem2(ctx, block_geometry(ctx))
        assert result.passed
        assert result.details["iso_classes"] == 0

    def test_run_block_checks_dispatch(self):
        G = symmetric_group(3)
        b = next(x for x in blocks(G, GF2) if x.principal)
        results = run_block_checks(b, ["principal-type", "theorem1", "homology"])
        assert [r.name for r in results] == ["principal-type", "theorem1",
                                             "homology"]
        assert all(r.passed for r in results)

    def test_run_block_checks_rejects_unknown(self):
        G = symmetric_group(3)
        b = blocks(G, GF2)[0]
        with pytest.raises(ValueError):
            run_block_checks(b, ["nonsense"])


class TestResourceBoundContainment:
    def test_oversized_homology_skips_only_that_check(self, monkeypatch):
        def too_big(poset, max_simplices=None):
            raise SizeLimitExceeded("order complex exceeded 3 simplices")

        monkeypatch.setattr(verify, "order_complex", too_big)
        (b,) = blocks(symmetric_group(4), GF2)
        results = run_block_checks(
            b, ["theorem1", "homology", "nonclique", "principal-type"])
        assert [r.status for r in results] == ["pass", "skipped", "pass",
                                               "pass"]
        skipped = results[1]
        assert skipped.name == "homology"
        assert "order complex exceeded" in skipped.details["reason"]
        assert skipped.target["group"] == "S4"

    def test_geometry_bound_skips_its_checks_once(self, monkeypatch):
        calls = []

        def too_big(ctx):
            calls.append(ctx)
            raise SizeLimitExceeded("commuting poset exceeded 3 elements")

        monkeypatch.setattr(verify, "block_geometry", too_big)
        (b,) = blocks(symmetric_group(4), GF2)
        results = run_block_checks(
            b, ["theorem1", "principal-type", "nonclique"])
        assert [r.status for r in results] == ["skipped", "pass", "skipped"]
        assert len(calls) == 1
