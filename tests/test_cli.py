import json

import pytest

from blockposets import cli
from blockposets.blocks import blocks
from blockposets.cli import (
    CORPUS,
    build_group,
    main,
    parse_group_spec,
    select_blocks,
)
from blockposets.gf import PrimeField, field_context
from blockposets.perms import symmetric_group
from blockposets.verify import CHECKS_BY_NAME, DEFAULT_CHECKS


class TestGroupSpecs:
    def test_presets(self):
        assert build_group(parse_group_spec("S4")).order == 24
        assert build_group(parse_group_spec("D8")).order == 8

    def test_json_symmetric(self):
        G = build_group(parse_group_spec('{"type": "symmetric", "n": 5}'))
        assert G.order == 120

    def test_json_generators(self):
        spec = '{"type": "generators", "degree": 4, "gens": [[[1,2],[3,4]], [[1,3],[2,4]]]}'
        G = build_group(parse_group_spec(spec))
        assert G.order == 4

    def test_bad_spec_rejected(self):
        with pytest.raises(SystemExit):
            parse_group_spec("not json at all {{")

    def test_element_bound_guards_presets(self, capsys):
        rc = main(["blocks", "--group", "S7", "--prime", "2",
                   "--max-elements", "100"])
        assert rc == 2  # resource bound, not a verification failure

    def test_bad_spec_exits_2_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_group_spec("not json at all {{")
        assert exc.value.code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_select_blocks(self):
        bl = blocks(symmetric_group(3), PrimeField(2))
        assert len(select_blocks(bl, "all")) == 2
        assert len(select_blocks(bl, "principal")) == 1
        assert select_blocks(bl, "0")[0].index == 0


class TestBadInput:
    """Bad input ends with one line on stderr and exit status 2."""

    GENS = '{"type": "generators", "degree": 3, "gens": %s}'

    @pytest.mark.parametrize("argv", [
        ["blocks", "--group", "S3", "--prime", "4"],
        ["blocks", "--group", "S3", "--prime", "0"],
        ["blocks", "--group", "S3", "--prime", "1"],
        ["blocks", "--group", "S3", "--prime", "1", "--auto-split"],
        ["verify", "--group", "S3", "--prime", "4"],
        ["blocks", "--group", GENS % "[[[1, 2, 1, 3]]]"],
        ["blocks", "--group", GENS % "[[[1, 5]]]"],
        ["blocks", "--group", '{"type": "generators", "degree": 3}'],
        ["blocks", "--group", '{"type": "generators", "gens": []}'],
        ["verify", "--group", '{"type": "symmetric"}'],
        ["verify", "--group", "S3", "--checks", "nonsense"],
        ["poset", "--group", "S3", "--which", "A", "--block", "9"],
        ["verify", "--group", '{"type": "generators", "degree": -3, '
                              '"gens": []}', "--prime", "2"],
        ["verify", "--group", '{"type": "generators", "degree": 0, '
                              '"gens": []}', "--prime", "2"],
        ["verify", "--group", '{"type": "symmetric", "n": -2}',
         "--prime", "2"],
        ["verify", "--group", '{"type": "symmetric", "n": 0}',
         "--prime", "2"],
        ["verify", "--group", "S3", "--checks", "theorem1,theorem1"],
        ["verify", "--group", "S3", "--checks", "theorem1,nonclique,theorem1"],
        ["verify", "--corpus", "--checks", "homology,homology"],
        ["verify", "--group", "S3", "--field-degree", "0"],
        ["blocks", "--group", "S3", "--field-degree", "-1"],
        ["verify", "--group", "S3", "--max-elements", "0"],
        ["poset", "--group", "S3", "--which", "K", "--max-elements", "-5"],
        ["verify", "--group", "S3", "--max-simplices", "-1"],
        ["verify", "--group", '{"type": "symmetric", "n": 2.7}'],
        ["verify", "--group", '{"type": "symmetric", "n": true}'],
        ["verify", "--group", '{"type": "dihedral", "order": 6.5}'],
        ["verify", "--group", '{"type": "generators", "degree": 2.9, '
                              '"gens": [[[1, 2]]]}'],
        ["verify", "--group", GENS % '"ab"'],
        ["verify", "--group", GENS % "[[[1, true]]]"],
        ["verify", "--group", GENS % "[[1, 2]]"],
    ], ids=["prime-4", "prime-0", "prime-1", "prime-1-auto-split",
            "verify-prime-4", "repeated-point", "point-out-of-range",
            "no-gens", "no-degree", "no-n", "unknown-check", "bad-block",
            "degree-negative", "degree-zero", "n-negative", "n-zero",
            "check-twice", "check-twice-apart", "corpus-check-twice",
            "field-degree-zero", "field-degree-negative",
            "max-elements-zero", "max-elements-negative",
            "max-simplices-negative", "n-float", "n-bool", "order-float",
            "degree-float", "gens-string", "point-bool", "gens-flat"])
    def test_one_line_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("spec, reason", [
        ('{"type": "generators", "degree": -3, "gens": []}', "degree >= 1"),
        ('{"type": "symmetric", "n": -2}', "n >= 1"),
    ])
    def test_size_below_one_names_the_bound(self, spec, reason, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--group", spec, "--prime", "2"])
        assert capsys.readouterr().err.strip().endswith(reason)

    @pytest.mark.parametrize("spec, reason", [
        ('{"type": "symmetric", "n": 2.7}', "n must be an integer, not 2.7"),
        ('{"type": "symmetric", "n": true}',
         "n must be an integer, not true"),
        ('{"type": "dihedral", "order": 6.5}',
         "order must be an integer, not 6.5"),
        ('{"type": "generators", "degree": 2.9, "gens": [[[1, 2]]]}',
         "degree must be an integer, not 2.9"),
        (GENS % '"ab"', "gens must be a list of cycle lists of integer points"),
    ])
    def test_non_integer_is_refused_not_truncated(self, spec, reason, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--group", spec, "--prime", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip().endswith(reason)

    @pytest.mark.parametrize("flags, reason", [
        (["--checks", "theorem1,theorem1"], "check 'theorem1' named twice"),
        (["--field-degree", "0"], "field degree must be >= 1"),
        (["--field-degree", "-1"], "field degree must be >= 1"),
        (["--max-elements", "0"], "--max-elements must be >= 1"),
        (["--max-elements", "-5"], "--max-elements must be >= 1"),
        (["--max-simplices", "-1"], "--max-simplices must be >= 0"),
    ])
    def test_bad_flag_names_the_rule(self, flags, reason, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--group", "S3"] + flags)
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip() == f"blockposets: {reason}"

    @pytest.mark.parametrize("low", ["0", "-1"])
    def test_find_dihedral_block_refuses_min_below_one(self, low, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["find-dihedral-block", "--min", low, "--max", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "blockposets: --min must be >= 1\n"

    def test_zero_simplex_bound_is_allowed(self, capsys):
        # a zero bound skips homology as a resource bound; it is not bad input
        rc = main(["verify", "--group", "S3", "--block", "principal",
                   "--checks", "homology", "--max-simplices", "0"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 2
        (entry,) = report["entries"]
        assert {c["status"] for c in entry["checks"]} == {"skipped"}


class TestBlocksCommand:
    def test_s3_text(self, capsys, tmp_path):
        rc = main(["blocks", "--group", "S3", "--prime", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 block(s)" in out
        assert "principal" in out

    def test_s3_json(self, capsys):
        rc = main(["blocks", "--group", "S3", "--prime", "2",
                   "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["block_count"] == 2
        defects = sorted(b["defect_order"] for b in doc["blocks"])
        assert defects == [1, 2]

    def test_auto_split_c3(self, capsys):
        spec = '{"type": "generators", "degree": 3, "gens": [[[1,2,3]]]}'
        rc = main(["blocks", "--group", spec, "--prime", "2",
                   "--auto-split", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["d"] == 2            # 2 has order 2 mod 3
        assert doc["block_count"] == 3  # kC3 splits over GF(4)


class TestVerifyCommand:
    def test_single_group_pass(self, capsys):
        rc = main(["verify", "--group", "S3", "--prime", "2"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert rc == 0
        assert all(e["status"] == "pass" for e in doc["entries"])

    def test_corpus_without_slow_skips(self, capsys, tmp_path):
        rc = main(["verify", "--corpus", "--checks", "principal-type",
                   "--out", str(tmp_path / "report.json")])
        doc = json.loads((tmp_path / "report.json").read_text())
        assert rc == 2  # the degree-7 entry is gated
        statuses = {e["entry"]: e["status"] for e in doc["entries"]}
        assert statuses["S7_p2_nonprincipal"] == "skipped"
        assert statuses["S3_p2"] == "pass"

    def test_unknown_check_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--group", "S3", "--checks", "nonsense"])

    @pytest.mark.parametrize("extra", [[], ["--auto-split"]],
                             ids=["fixed-field", "auto-split"])
    def test_element_bound_skips_the_entry(self, extra, tmp_path):
        rc = main(["verify", "--group", "S5", "--prime", "2",
                   "--max-elements", "10", "--out", str(tmp_path / "r.json")]
                  + extra)
        doc = json.loads((tmp_path / "r.json").read_text())
        assert rc == 2
        (entry,) = doc["entries"]
        assert (entry["status"], entry["checks"]) == ("skipped", [])
        assert entry["reason"] == ("resource bound: symmetric group of "
                                   "degree 5 exceeds 10 elements")

    def test_principal_clique_on_request(self, tmp_path):
        rc = main(["verify", "--group", "S4", "--prime", "2",
                   "--checks", "principal-clique",
                   "--out", str(tmp_path / "s4.json")])
        doc = json.loads((tmp_path / "s4.json").read_text())
        assert rc == 0
        (check,) = doc["entries"][0]["checks"]
        assert (check["name"], check["status"]) == ("principal-clique", "pass")
        assert check["details"]["cliques"] == check["details"]["commuting_elements"]
        # S3 at p=2: block 0 has defect zero and is not principal
        rc = main(["verify", "--group", "S3", "--prime", "2",
                   "--checks", "principal-clique",
                   "--out", str(tmp_path / "s3.json")])
        doc = json.loads((tmp_path / "s3.json").read_text())
        assert rc == 2
        statuses = [(c["target"]["principal"], c["status"])
                    for c in doc["entries"][0]["checks"]]
        assert statuses == [(False, "skipped"), (True, "pass")]
        skipped = doc["entries"][0]["checks"][0]
        assert skipped["details"]["reason"] == "block is not principal"

    def test_default_checks_leave_out_principal_clique(self, tmp_path):
        main(["verify", "--group", "S3", "--prime", "2",
              "--out", str(tmp_path / "r.json")])
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["checks_requested"] == list(DEFAULT_CHECKS)
        assert "principal-clique" not in DEFAULT_CHECKS
        assert set(DEFAULT_CHECKS) < set(CHECKS_BY_NAME)

    def test_report_deterministic_with_cache(self, tmp_path, capsys):
        # two runs of one verify write the same bytes
        args = ["verify", "--group", "S4", "--prime", "2",
                "--checks", "theorem1,homology"]
        rc1 = main(args + ["--out", str(tmp_path / "r1.json")])
        rc2 = main(args + ["--out", str(tmp_path / "r2.json")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "r1.json").read_bytes() == \
            (tmp_path / "r2.json").read_bytes()


class TestPosetCommand:
    def test_k_json_s3(self, capsys):
        rc = main(["poset", "--group", "S3", "--prime", "2",
                   "--block", "principal", "--which", "K"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert len(doc["elements"]) == 3
        assert doc["covering"] == []
        assert {"id", "label", "orbit"} <= set(doc["elements"][0])

    def test_empty_marker_for_defect_zero(self, capsys):
        rc = main(["poset", "--group", "S3", "--prime", "2",
                   "--block", "0", "--which", "A"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["empty"] is True and doc["elements"] == []

    def test_dot_output(self, capsys):
        rc = main(["poset", "--group", "S4", "--prime", "2",
                   "--block", "principal", "--which", "K-orbit",
                   "--format", "dot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("digraph")
        assert "->" in out

    def test_brauer_pairs_s3(self, capsys):
        rc = main(["poset", "--group", "S3", "--prime", "2",
                   "--block", "principal", "--which", "brauer-pairs"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert len(doc["elements"]) == 4
        assert len(doc["covering"]) == 3  # (1,b) under the three pairs

    def test_iso_classes_s4(self, capsys):
        rc = main(["poset", "--group", "S4", "--prime", "2",
                   "--block", "principal", "--which", "iso-classes"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert len(doc["elements"]) == 7


class TestFindDihedralBlock:
    def test_low_range_none(self, capsys):
        rc = main(["find-dihedral-block", "--min", "3", "--max", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["n"] is None

    def test_empty_range(self, capsys):
        rc = main(["find-dihedral-block", "--min", "5", "--max", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1 and doc["n"] is None


class TestCorpusDefinition:
    def test_entries_resolve(self):
        for entry in CORPUS:
            if entry.slow:
                continue
            G = build_group(entry.spec)
            F = field_context(entry.p, entry.d)
            bl = blocks(G, F)
            assert select_blocks(bl, entry.selector)


class TestAutoSplitBuildsOnce:
    def test_verify_builds_the_group_once(self, monkeypatch, tmp_path):
        built = []
        plain = cli.build_group

        def counted(spec, max_elements=cli.MAX_GROUP_ORDER):
            built.append(spec)
            return plain(spec, max_elements)

        monkeypatch.setattr(cli, "build_group", counted)
        spec = '{"type": "generators", "degree": 3, "gens": [[[1,2,3]]]}'
        rc = main(["verify", "--group", spec, "--prime", "2", "--auto-split",
                   "--out", str(tmp_path / "c3.json")])
        assert rc == 0
        assert len(built) == 1
        doc = json.loads((tmp_path / "c3.json").read_text())
        assert {c["target"]["d"] for c in doc["entries"][0]["checks"]} == {2}
