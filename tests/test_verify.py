import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blockposets import verify
from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import main
from blockposets.commuting import block_geometry
from blockposets.errors import SizeLimitExceeded
from blockposets.gf import PrimeField
from blockposets.perms import symmetric_group
from blockposets.topology import order_complex
from blockposets.verify import (
    check_homology,
    check_nonclique,
    check_theorem1,
    check_theorem2,
    run_block_checks,
)

from oracles import check_blocks_oracle

GF2 = PrimeField(2)

# Runs `blockposets` with the given arguments and prints its exit status and
# its peak resident memory in kB (VmHWM), or "none" where the kernel does
# not report it.
PEAK_CHILD = """
import sys
from blockposets.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        peak = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
except OSError:
    peak = []
print(code, peak[0] if peak else "none")
"""


@pytest.fixture(scope="module")
def s4_setup():
    G = symmetric_group(4)
    group = GroupContext(G, GF2)
    (b,) = group.blocks
    ctx = BlockContext(group, b)
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

    def test_homology_bound_checked_before_building_complexes(
            self, s4_setup, monkeypatch):
        def never(poset, max_simplices=None):
            raise AssertionError("order complex built past the bound")

        monkeypatch.setattr(verify, "order_complex", never)
        _b, ctx, geom = s4_setup
        result = check_homology(ctx, geom, max_simplices=3)
        assert result.status == "skipped"
        assert result.details["reason"] == \
            "complex exceeds homology bound; Euler check only"
        assert result.details["simplices"] == [
            order_complex(geom.aposet).num_simplices(),
            order_complex(geom.kposet).num_simplices()]

    def test_s6_principal_homology_skips_with_euler_characteristics(self):
        group = GroupContext(symmetric_group(6), GF2)
        b = next(x for x in group.blocks if x.principal)
        ctx = BlockContext(group, b)
        result = check_homology(ctx, block_geometry(ctx))
        # the K complex has 2.84M simplices, past both size bounds
        assert result.status == "skipped"
        assert result.details["euler_characteristics"] == [-15, -15]
        assert result.details["simplices"][1] > 1_000_000

    def test_nonclique_pass_details(self, s4_setup):
        _b, ctx, geom = s4_setup
        result = check_nonclique(ctx, geom)
        assert result.status == "pass"
        assert result.details["obstruction"] is None

    def test_theorem2_empty_case(self):
        G = symmetric_group(3)
        group = GroupContext(G, GF2)
        b = next(x for x in group.blocks if not x.principal)
        ctx = BlockContext(group, b)
        result = check_theorem2(ctx, block_geometry(ctx))
        assert result.status == "pass"
        assert result.details["iso_classes"] == 0

    def test_run_block_checks_dispatch(self):
        G = symmetric_group(3)
        group = GroupContext(G, GF2)
        b = next(x for x in group.blocks if x.principal)
        results = run_block_checks(
            group, b, ["principal-type", "theorem1", "homology"])
        assert [r.name for r in results] == ["principal-type", "theorem1",
                                             "homology"]
        assert all(r.status == "pass" for r in results)

    def test_run_block_checks_rejects_unknown(self):
        G = symmetric_group(3)
        group = GroupContext(G, GF2)
        b = group.blocks[0]
        with pytest.raises(ValueError):
            run_block_checks(group, b, ["nonsense"])


class TestResourceBoundContainment:
    def test_oversized_homology_skips_only_that_check(self, monkeypatch):
        def too_big(poset, max_simplices=None):
            raise SizeLimitExceeded("order complex exceeded 3 simplices")

        monkeypatch.setattr(verify, "order_complex", too_big)
        group = GroupContext(symmetric_group(4), GF2)
        (b,) = group.blocks
        results = run_block_checks(
            group, b, ["theorem1", "homology", "nonclique", "principal-type"])
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
        group = GroupContext(symmetric_group(4), GF2)
        (b,) = group.blocks
        results = run_block_checks(
            group, b, ["theorem1", "principal-type", "nonclique"])
        assert [r.status for r in results] == ["skipped", "pass", "skipped"]
        assert len(calls) == 1


class TestTimings:
    def test_first_geometry_reader_includes_the_build(self, monkeypatch):
        """--timings: the block's geometry is built inside the time of the
        first check that reads it."""
        build = verify.block_geometry

        def slow_build(ctx):
            time.sleep(0.2)
            return build(ctx)

        monkeypatch.setattr(verify, "block_geometry", slow_build)
        group = GroupContext(symmetric_group(4), GF2)
        (b,) = group.blocks
        results = run_block_checks(
            group, b, ["principal-type", "theorem1", "nonclique"])
        assert [r.status for r in results] == ["pass"] * 3
        assert results[1].elapsed >= 0.2
        assert results[1].to_json_dict(include_timing=True)["time_s"] >= 0.2


class TestReportDrift:
    """Seed-0 reports of the benchmark workloads, byte for byte.

    Each invocation is the one `perfbench/workloads.py` runs on seed 0, and
    its report must equal the one recorded in `perfbench/expected/`.
    """

    EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"

    def assert_recorded(self, workload, argv, tmp_path):
        out = tmp_path / "report.json"
        main(argv + ["--out", str(out)])
        assert out.read_bytes() == \
            (self.EXPECTED / workload / "0.json").read_bytes()

    @pytest.mark.slow
    def test_corpus_reports_match_recorded(self, tmp_path):
        """The whole corpus, the slow S7 entry included."""
        self.assert_recorded("corpus", ["verify", "--corpus", "--slow"],
                             tmp_path)

    @pytest.mark.parametrize("workload, argv", [
        ("s6_p2_principal", ["verify", "--group", "S6", "--prime", "2",
                             "--block", "principal",
                             "--checks", "theorem1,nonclique"]),
        ("s6_p5_all", ["verify", "--group", "S6", "--prime", "5",
                       "--block", "all"]),
    ])
    def test_s6_reports_match_recorded(self, workload, argv, tmp_path):
        self.assert_recorded(workload, argv, tmp_path)

    def test_s6_p2_all_blocks_match_recorded(self, tmp_path):
        """Both S6 p=2 blocks, every check: theorem2 reads the 247-object
        commuting category of the principal block.  Recorded under tests/,
        as no benchmark workload runs it."""
        out = tmp_path / "report.json"
        main(["verify", "--group", "S6", "--prime", "2", "--out", str(out)])
        assert out.read_bytes() == \
            (Path(__file__).parent / "data" / "s6_p2_all.json").read_bytes()

    @pytest.mark.parametrize("name, argv", [
        ("s6_p5_blocks_auto_split", ["blocks", "--group", "S6", "--prime", "5",
                                     "--auto-split", "--format", "json"]),
        ("s5_p3_gf9", ["verify", "--group", "S5", "--prime", "3",
                       "--field-degree", "2"]),
    ])
    def test_extension_field_reports_match_recorded(self, name, argv,
                                                    tmp_path):
        """Blocks over GF(p^2): the seven blocks of S6 at the splitting
        degree for p = 5, and every check on the three blocks of S5 over
        GF(9).  Recorded under tests/, as no benchmark workload leaves the
        prime field."""
        out = tmp_path / "report.json"
        main(argv + ["--out", str(out)])
        assert out.read_bytes() == \
            (Path(__file__).parent / "data" / f"{name}.json").read_bytes()

    def test_order_24_principal_type_witness_matches_recorded(self,
                                                              tmp_path):
        """<(1 2 3), (4 5), (6 7), (2 3)(4 6)(5 7)> over GF(4): block 0 fails
        principal-type (its Brauer image at one class is a sum of 2
        blocks), and the report names that class by its generators.
        Recorded under tests/, as it is the one pinned report with a
        failing check."""
        out = tmp_path / "report.json"
        spec = ('{"type":"generators","degree":7,"gens":[[[1,2,3]],[[4,5]],'
                '[[6,7]],[[2,3],[4,6],[5,7]]]}')
        assert main(["verify", "--group", spec, "--prime", "2",
                     "--field-degree", "2", "--out", str(out)]) == 1
        assert out.read_bytes() == (Path(__file__).parent / "data"
                                    / "order_24_gf4.json").read_bytes()

    def test_s8_p2_nonprincipal_matches_recorded(self, tmp_path):
        """The defect-2 block of S8 (order 40,320), every check: its set-up
        runs all_subgroups on a Sylow 2-subgroup of order 128 and a
        centralizer for each of its p-subgroup classes.  Recorded under
        tests/, as no benchmark workload runs it."""
        out = tmp_path / "report.json"
        main(["verify", "--group", '{"type":"symmetric","n":8}',
              "--prime", "2", "--block", "nonprincipal", "--out", str(out)])
        assert out.read_bytes() == (Path(__file__).parent / "data"
                                    / "s8_p2_nonprincipal.json").read_bytes()

    def test_c2cubed_p2_all_blocks_match_recorded(self, tmp_path):
        """C2^3 = <(1 2), (3 4), (5 6)> at p=2, every check on its one
        block: its K has 127 elements and 94,585 chains, just within the
        homology bound, and a maximum, so its Stong core is a point.
        Recorded under tests/, as no benchmark workload runs it."""
        out = tmp_path / "report.json"
        spec = ('{"type":"generators","degree":6,'
                '"gens":[[[1,2]],[[3,4]],[[5,6]]]}')
        assert main(["verify", "--group", spec, "--prime", "2",
                     "--block", "all", "--out", str(out)]) == 0
        assert out.read_bytes() == (Path(__file__).parent / "data"
                                    / "c2cubed_p2_all.json").read_bytes()

    def test_s7_p2_principal_matches_recorded(self, tmp_path):
        """The principal 2-block of S7, every default check: 19 classes of
        2-subgroups with 3,417 members in all, and a commuting poset of
        23,051 elements, whose homology is skipped at the simplex bound.
        Recorded under tests/, as no benchmark workload runs it.

        It runs in a fresh process, whose peak resident memory must stay
        under 50 MB: it was 72 MB when K held one |K|-bit up mask per
        element, and is about 37 MB with K's order in flat rows.  The peak
        is not asserted in development mode, whose debug allocator hooks
        add to it, nor where the kernel does not report it."""
        out = tmp_path / "report.json"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep + path if path else src)
        child = subprocess.run(
            [sys.executable, "-c", PEAK_CHILD, "verify", "--group", "S7",
             "--prime", "2", "--block", "principal", "--out", str(out)],
            env=env, capture_output=True, text=True, check=True)
        code, peak_kb = child.stdout.split()
        assert code == "2"          # homology skipped, nothing failed
        assert out.read_bytes() == (Path(__file__).parent / "data"
                                    / "s7_p2_principal.json").read_bytes()
        if sys.flags.dev_mode or peak_kb == "none":
            pytest.skip("peak resident memory not measured here")
        assert int(peak_kb) / 1024 < 50

    @pytest.mark.parametrize("name, p", [
        ("s6_p2_principal_iso_classes", 2),
        ("s6_p3_principal_iso_classes", 3),
    ])
    def test_iso_class_exports_match_recorded(self, name, p, tmp_path):
        """`poset --which iso-classes` on the principal blocks of S6 at
        p = 2 (71 classes) and p = 3: the class labels, their order and the
        covering relation of the commuting category's iso-class poset, which
        theorem2 reports only as counts.  Recorded under tests/, as no
        benchmark workload exports it."""
        out = tmp_path / "poset.json"
        main(["poset", "--group", "S6", "--prime", str(p), "--block",
              "principal", "--which", "iso-classes", "--out", str(out)])
        assert out.read_bytes() == \
            (Path(__file__).parent / "data" / f"{name}.json").read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("group, which", [
        ("S5", "A"), ("S5", "K"), ("S5", "K-orbit"), ("S4", "brauer-pairs"),
    ])
    def test_poset_exports_match_recorded(self, group, which, fmt, tmp_path):
        """`poset` on the p = 2 principal block: the elements, their
        orbits, the order and the covering relation, as JSON and DOT."""
        out = tmp_path / f"poset.{fmt}"
        assert main(["poset", "--group", group, "--prime", "2", "--block",
                     "principal", "--which", which, "--format", fmt,
                     "--out", str(out)]) == 0
        name = f"{group.lower()}_p2_principal_{which.replace('-', '_')}"
        assert out.read_bytes() == \
            (Path(__file__).parent / "data" / f"{name}.{fmt}").read_bytes()
