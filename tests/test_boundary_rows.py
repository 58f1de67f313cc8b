"""Boundary maps as the row dicts that the Smith form reads, against the
(row, column)-keyed dicts they replaced.

On every corpus complex, on the complex of A for each block of S6 at p=2
and on random complexes, the rows must hold the same entries as the
oracle's dict and give the same Smith diagonal in every dimension.  The
composite check must catch a boundary with one facet's sign flipped.
"""

import random

import pytest

from blockposets.brauer import BlockContext, GroupContext
from blockposets.cli import CORPUS, PRESETS, build_group, select_blocks
from blockposets.commuting import block_geometry
from blockposets.errors import TheoryViolation
from blockposets.gf import field_context
from blockposets.topology import (
    _assert_composite_zero,
    boundary_matrices,
    order_complex,
    smith_normal_form,
)

import oracles
from oracles import complex_from_faces, entries_of, row_dicts
from test_topology import random_complex


def corpus_complexes():
    """(name, complex): A and K of every corpus block, and A of each block
    of S6 at p=2 (its K is beyond any homology bound)."""
    targets = [(entry.name, entry.spec, entry.p, entry.selector)
               for entry in CORPUS]
    targets.append(("S6_p2", PRESETS["S6"], 2, "all"))
    for name, spec, p, selector in targets:
        group = GroupContext(build_group(spec), field_context(p, 1))
        for b in select_blocks(group.blocks, selector):
            geom = block_geometry(BlockContext(group, b))
            yield f"{name}/{b.index}/A", order_complex(geom.aposet)
            if name != "S6_p2":
                yield f"{name}/{b.index}/K", order_complex(geom.kposet)


def assert_same_as_oracle(C, label):
    counts = C.face_counts()
    rows = boundary_matrices(C)
    expect = oracles.boundary_matrices(C)
    assert [entries_of(m) for m in rows] == expect, label
    assert [len(m) for m in rows] == counts[:-1], label
    for n, (m, entries) in enumerate(zip(rows, expect)):
        got = smith_normal_form(m, counts[n]).diagonal
        want = smith_normal_form(row_dicts(entries, counts[n]),
                                 counts[n]).diagonal
        assert got == want, (label, n)


@pytest.mark.slow
def test_corpus_complexes_match_the_dict_oracle():
    seen = 0
    for label, C in corpus_complexes():
        assert_same_as_oracle(C, label)
        seen += 1
    assert seen == 18


def test_random_complexes_match_the_dict_oracle():
    rng = random.Random(0x50F7)
    for k in range(60):
        assert_same_as_oracle(random_complex(rng), k)


def composites(mats):
    for low, high in zip(mats, mats[1:]):
        _assert_composite_zero(low, high)


def test_every_flipped_sign_is_caught():
    """The full 3-simplex: each entry of each boundary, flipped alone, makes
    some composite nonzero, for the rows and for the dict oracle alike."""
    C = complex_from_faces([(0, 1, 2, 3)])
    flips = 0
    for n, m in enumerate(boundary_matrices(C)):
        for i, j in [(i, j) for i, row in enumerate(m) for j in row]:
            mats = boundary_matrices(C)
            mats[n][i][j] = -mats[n][i][j]
            with pytest.raises(TheoryViolation, match="composite nonzero"):
                composites(mats)
            dicts = oracles.boundary_matrices(C)
            dicts[n][(i, j)] = -dicts[n][(i, j)]
            with pytest.raises(TheoryViolation, match="composite nonzero"):
                for low, high in zip(dicts, dicts[1:]):
                    oracles.assert_composite_zero(low, high)
            flips += 1
    assert flips == 4 * 3 + 6 * 2 + 4 * 1


def test_smith_form_reads_stored_zeros_as_absent():
    entries = {(0, 0): 0, (0, 1): 2, (1, 0): 3, (1, 1): 0}
    rows = row_dicts(entries, 2)
    assert smith_normal_form(rows, 2).diagonal == [1, 6]
    with pytest.raises(ValueError):
        smith_normal_form(row_dicts(entries, 2), 3)

