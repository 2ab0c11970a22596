"""Seeded block-text sources for the workloads.

Block contents always come from :class:`repro.data.BlockGenerator`.  The
offline workloads draw block *lengths* by stratified sampling: every batch
of ``n`` blocks has the lengths at the ``n`` evenly spaced quantiles of the
generator's own length distribution (``1 + Geometric(1/mean)``, clipped).
The work in a 100-block batch then does not depend on how many long blocks
a seed happened to draw, which otherwise moved GRANITE's time per batch by
up to +-25%; the seed still picks every block's instructions.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional


def stratified_lengths(count: int) -> List[int]:
    """Block lengths at ``count`` evenly spaced quantiles of the default distribution."""
    from repro.data import GeneratorConfig

    config = GeneratorConfig()
    stop = 1.0 / max(config.mean_instructions, 1.1)
    lengths = []
    for index in range(count):
        quantile = (index + 0.5) / count
        draws = max(1, math.ceil(math.log(1.0 - quantile) / math.log(1.0 - stop)))
        lengths.append(min(max(1 + draws, config.min_instructions), config.max_instructions))
    return lengths


class DistinctTexts:
    """Hands out block texts never handed out before, from a seeded stream.

    ``instructions`` fixes every block's length; by default lengths follow
    the generator's BHive-like distribution.
    """

    def __init__(self, seed: int, instructions: Optional[int] = None) -> None:
        from repro.data import BlockGenerator, GeneratorConfig

        config = GeneratorConfig(seed=seed)
        if instructions is not None:
            config = GeneratorConfig(seed=seed, min_instructions=instructions,
                                     max_instructions=instructions)
        self.generator = BlockGenerator(config)
        self.seen: set = set()

    def take(self, count: int) -> List[str]:
        texts: List[str] = []
        while len(texts) < count:
            text = self.generator.generate_block().canonical_text()
            if text not in self.seen:
                self.seen.add(text)
                texts.append(text)
        return texts


class StratifiedTexts:
    """Never-repeated block texts whose lengths follow :func:`stratified_lengths`."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.by_length: Dict[int, DistinctTexts] = {}
        self.seen: set = set()

    def take(self, count: int) -> List[str]:
        texts = []
        for length in stratified_lengths(count):
            source = self.by_length.get(length)
            if source is None:
                # One stream per length; 64 > the longest block, so streams
                # of different seeds never share a generator seed.
                source = self.by_length[length] = DistinctTexts(
                    self.seed * 64 + length, instructions=length)
                source.seen = self.seen
            texts.extend(source.take(1))
        return texts
