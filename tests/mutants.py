"""Registered source mutations, each with the tests that must kill it.

An entry names a file under src/blockposets/, an exact snippet of it, the
text that replaces the snippet, and the tests (pytest node ids, relative to
the repository root) of which at least one must fail on the mutated copy.
`tests/run_mutants.py` replays them.  A snippet must occur exactly once in
its file: a change to mutated code has to update its entry.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name file snippet replacement tests")

MUTANTS = [
    Mutant(
        "subset test on the first generator only",
        "brauer.py",
        "if inside.issuperset(gens[q]))",
        "if inside.issuperset(gens[q][:1]))",
        ["tests/test_tuple_kernel.py::TestSubsetPairPoset"]),
    Mutant(
        "trivial subgroup left out of filed",
        "brauer.py",
        "filed.setdefault(key[1] if len(key) > 1 else gindex.root,\n"
        "                             []).append(q)",
        "if len(key) > 1:\n"
        "                filed.setdefault(key[1], []).append(q)",
        ["tests/test_tuple_kernel.py::TestSubsetPairPoset"]),
    Mutant(
        "wrong generator recorded for the 8th conjugate of each orbit",
        "perms.py",
        "orbit[image] = t\n",
        "orbit[image] = 1 - t if len(orbit) == 8 else t\n",
        ["tests/test_position_keys.py"]),
    Mutant(
        "kappa-mask test dropped from principal-clique",
        "verify.py",
        "if len(row) == above.bit_count() \\\n"
        "                and all(kmasks[u] & mask == mask for u in row):",
        "if len(row) == above.bit_count():",
        ["tests/test_principal_clique.py::test_orbit_elements_swapped"]),
    Mutant(
        "chain extended by its first element's row",
        "topology.py",
        "for j in strict_up[chain[-1]]]",
        "for j in strict_up[chain[0]] if j > chain[-1]]",
        ["tests/test_order_complex_rows.py::test_rows_match_masks"]),
    Mutant(
        "one target dropped from the row of one class's least object",
        "fusion.py",
        "for t in {t for _psi, t in category.row(i)}:",
        "for t in {t for _psi, t in category.row(i) if (i, t) != (28, 70)}:",
        ["tests/test_category_certificate.py::TestAgainstPairwiseCategory"
         "::test_iso_class_poset_matches_scan"]),
    Mutant(
        "least-element test dropped from the beat-point sweep",
        "cores.py",
        "any(len(up[y]) == len(u) - 1 for y in u)",
        "u",
        ["tests/test_stong_core.py::TestCertificate",
         "tests/test_acceptance.py::test_criterion_5_homology_agreement"]),
    Mutant(
        "Smith pivot recorded with a nonzero remainder in its row or column",
        "topology.py",
        "_, i0, j0 = min(rest)\n                continue",
        "p = row[i0][j0]\n                break",
        ["tests/test_topology.py::TestSmithNormalForm::test_diag_2_3",
         "tests/test_class_coords.py::TestSmithNormalForm"]),
    Mutant(
        "Smith divisibility step skipped",
        "topology.py",
        "if offender is None:",
        "if True:",
        ["tests/test_topology.py::TestSmithNormalForm::test_diag_2_3",
         "tests/test_class_coords.py::TestSmithNormalForm"]),
    Mutant(
        "row-size test dropped from principal-clique",
        "verify.py",
        "if len(row) == above.bit_count() \\\n"
        "                and all(kmasks[u] & mask == mask for u in row):",
        "if all(kmasks[u] & mask == mask for u in row):",
        ["tests/test_principal_clique.py::test_covering_relation_dropped"]),
    Mutant(
        "carried generators not checked against the child's key",
        "brauer.py",
        "if not set(key).issuperset(map(index.pos.__getitem__, gens)):",
        "if False:",
        ["tests/test_group_context.py::TestSitesOnTheOrbitTree"
         "::test_wrong_recorded_generator_is_caught",
         "tests/test_group_context.py::TestSitesOnTheOrbitTree"
         "::test_wrong_parent_link_is_caught"]),
    Mutant(
        "one carried edge dropped",
        "brauer.py",
        "lower[j] = [action[t][i] for i in lower[walk.order[parent]]]",
        "lower[j] = [action[t][i] for i in lower[walk.order[parent]]]"
        "[j == 269:]",
        ["tests/test_tuple_kernel.py::TestSubsetPairPoset"
         "::test_elementary_abelian_family_s6_p2"]),
    Mutant(
        "centrality of Br_R0(e) not asserted, its class vector read off "
        "the first members",
        "brauer.py",
        "        br = _class_vector(e, site.members, offsets)\n"
        "        if br is None:",
        "        br = [e.support.get(site.members[k], self.F.zero)\n"
        "              for k in offsets[:-1]]\n"
        "        if False:",
        ["tests/test_orbit_build.py::test_non_central_truncation_is_refused"]),
    Mutant(
        "one-pair shortcut of the fusion test taken without its pair count",
        "fusion.py",
        "if below is None or key in self._shared and not \\",
        "if below is None or False and not \\",
        ["tests/test_lazy_sites.py"
         "::test_one_pair_shortcut_matches_the_idempotent_test",
         "tests/test_subpairs.py::TestTargetMutation"
         "::test_dropping_the_idempotent_test_is_caught",
         "tests/test_verify.py::TestReportDrift"
         "::test_order_24_principal_type_witness_matches_recorded"]),
    Mutant(
        "Br_R(b) truncated to the centralizer of R's first generator only",
        "brauer.py",
        "members = self.group.centralizer(i).elements",
        "members = centralizer(self.G, R.generators[:1]).elements",
        ["tests/test_lazy_sites.py"
         "::test_brauer_image_on_the_centralizer_matches_the_site"]),
]
