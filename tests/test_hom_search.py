"""The End(M) candidate blocks: every valid candidate exactly once, in either order."""

import numpy as np

from modclass import build_ring, corpus_test_modules, free_module
from modclass.modules import hom_candidate_blocks, hom_image_mask


def small_modules(corpus):
    """Corpus test modules, R^2 for rings of at most 16 elements, and (Z/4)^3,
    whose 64^3 candidates span four blocks."""
    modules = []
    for ring in corpus.values():
        modules += corpus_test_modules(ring)
        if ring.size <= 16:
            modules.append(free_module(ring, 2))
    modules.append(free_module(build_ring("Z/4"), 3))
    return modules


def test_unseeded_blocks_ascend_through_the_valid_candidates(corpus):
    for module in small_modules(corpus):
        got = np.concatenate(list(hom_candidate_blocks(module, module)))
        assert np.array_equal(got, np.flatnonzero(hom_image_mask(module, module))), module.label


def test_seeded_blocks_yield_every_valid_candidate_once(corpus):
    for module in small_modules(corpus):
        expected = np.flatnonzero(hom_image_mask(module, module))
        for seed in (1, 2, 3):
            blocks = hom_candidate_blocks(module, module, rng=np.random.default_rng(seed))
            got = np.concatenate(list(blocks))
            assert len(got) == len(expected), (module.label, seed)
            assert np.array_equal(np.sort(got), expected), (module.label, seed)
