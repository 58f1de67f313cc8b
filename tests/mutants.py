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
        "if inside.issuperset(gens[q])))",
        "if inside.issuperset(gens[q][:1])))",
        ["tests/test_tuple_kernel.py::TestSubsetPairPoset"]),
    Mutant(
        "trivial subgroup left out of filed",
        "brauer.py",
        "filed.setdefault(key[1] if len(key) > 1 else root, []).append(q)",
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
]
