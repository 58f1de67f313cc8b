"""Class algebra and blocks of kG."""

from __future__ import annotations

from .blocks import blocks, class_sum_algebra


def class_algebra_and_blocks(G, F):
    """The class-sum algebra Z(kG) and the blocks of kG, k = F."""
    A = class_sum_algebra(G, F)
    return A, blocks(G, F, algebra=A)
