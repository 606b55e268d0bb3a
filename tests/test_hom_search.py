"""The End(M) candidate blocks against a per-tuple check with scalar act and add:
every valid candidate exactly once, in either order."""

import numpy as np
import pytest

from modclass import build_ring, corpus_test_modules, free_module
from modclass.modules import hom_candidate_blocks


def small_modules(corpus):
    """Corpus test modules, R^2 for rings of at most 16 elements, and (Z/4)^3,
    whose 64^3 candidates span sixteen blocks."""
    modules = []
    for ring in corpus.values():
        modules += corpus_test_modules(ring)
        if ring.size <= 16:
            modules.append(free_module(ring, 2))
    modules.append(free_module(build_ring("Z/4"), 3))
    return modules


def per_tuple_endomorphisms(module):
    """Ascending candidate indices (y_1..y_g) that every relation of the module
    annihilates, each sum_i c_i y_i built from scalar ``act`` and ``add``."""
    g, m = module.num_generators, module.size
    coefficients = [tuple(int(c) for c in module._cover_digits(r)) for r in module.relations]
    valid = []
    for w in range(m**g):
        images = [(w // m**i) % m for i in range(g)]
        for row in coefficients:
            total = 0
            for c, y in zip(row, images):
                total = module.add(total, module.act(c, y))
            if total != 0:
                break
        else:
            valid.append(w)
    return np.array(valid, dtype=np.int64)


@pytest.fixture(scope="module")
def checked(corpus):
    return [(module, per_tuple_endomorphisms(module)) for module in small_modules(corpus)]


def test_unseeded_blocks_ascend_through_the_valid_candidates(checked):
    for module, expected in checked:
        got = np.concatenate(list(hom_candidate_blocks(module, module)))
        assert np.array_equal(got, expected), module.label


def test_seeded_blocks_yield_every_valid_candidate_once(checked):
    for module, expected in checked:
        for seed in (1, 2, 3):
            blocks = hom_candidate_blocks(module, module, rng=np.random.default_rng(seed))
            got = np.concatenate(list(blocks))
            assert len(got) == len(expected), (module.label, seed)
            assert np.array_equal(np.sort(got), expected), (module.label, seed)
