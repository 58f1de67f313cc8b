"""Smoke test of the benchmark harness on a tiny target list (S3, S4 and D8
at p=2). Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import shutil

from run import BENCH_DIR, EXPECTED_DIR, measure

ROOT = os.path.dirname(BENCH_DIR)
OTHER_SEED = 7
# Products made while scanning elements depend on the labels, and seed 0
# builds groups through the presets rather than from generators; every
# other count is label-free.
LABEL_DEPENDENT = {"perms.mul.calls", "trace.spans"}


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _emitted(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_every_named_metric_is_emitted_with_its_unit():
    counts = {}
    for seed in (0, OTHER_SEED):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, record = measure(ROOT, "smoke", seed, 1, trace)
            assert result["correct"], record
            assert result["failed"] == 0 and result["attempted"] > 0
            assert _emitted(result) == _declared(kind)
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            if trace:
                assert record["counts_repeat"]
                counts[seed] = record["counts"]
                # Reached only through verify.CHECKS_BY_NAME and through
                # homology's default argument snf=smith_normal_form.
                assert result["metrics"]["verify.theorem1_s"]["value"] > 0
                assert record["counts"]["topology.snf.calls"] > 0
            else:
                assert result["metrics"]["verified_frac"]["value"] == 1.0
    for key in set(counts[0]) - LABEL_DEPENDENT:
        assert counts[0][key] == counts[OTHER_SEED][key], key


def test_altered_expected_report_counts_as_failure(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(EXPECTED_DIR, expected)
    path = expected / "smoke" / "0.json"
    report = json.loads(path.read_text())
    details = report["entries"][0]["checks"][0]["details"]
    details["pairs"] += 1
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for seed in (0, OTHER_SEED):
        result, _record = measure(ROOT, "smoke", seed, 1, 0,
                                  expected_dir=str(expected))
        assert not result["correct"]
        assert result["failed"] > 0
        assert result["metrics"]["verified_frac"]["value"] < 1.0
