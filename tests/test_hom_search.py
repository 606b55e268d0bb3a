"""The End(M) candidate blocks against a per-tuple check with scalar act and add:
every valid candidate exactly once, in either order, as carrier coordinates;
and the isomorphism search takes the first bijective map of the hom listing."""

import numpy as np
import pytest

from modclass import build_ring, corpus_test_modules, find_bijective_hom, free_module, hom_enumerate
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
    """The candidates (y_1..y_g) that every relation of the module annihilates,
    as the columns of a (g, count) array in ascending order of the base-|M|
    index sum_i y_i |M|^i, each sum_i c_i y_i built from scalar ``act`` and
    ``add``."""
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
            valid.append(images)
    return np.array(valid, dtype=np.int64).reshape(len(valid), g).T


@pytest.fixture(scope="module")
def checked(corpus):
    return [(module, per_tuple_endomorphisms(module)) for module in small_modules(corpus)]


def coordinate_blocks(module, blocks):
    """The yielded blocks, each checked to be a nonempty (g, k) integer array
    of carrier elements, side by side."""
    blocks = list(blocks)
    for block in blocks:
        assert np.issubdtype(block.dtype, np.integer), module.label
        assert block.ndim == 2 and block.shape[0] == module.num_generators and block.shape[1] > 0, module.label
        assert ((block >= 0) & (block < module.size)).all(), module.label
    return np.concatenate(blocks, axis=1)


def test_unseeded_blocks_ascend_through_the_valid_candidates(checked):
    for module, expected in checked:
        got = coordinate_blocks(module, hom_candidate_blocks(module, module))
        assert np.array_equal(got, expected), module.label


def test_seeded_blocks_yield_every_valid_candidate_once(checked):
    for module, expected in checked:
        for seed in (1, 2, 3):
            blocks = hom_candidate_blocks(module, module, rng=np.random.default_rng(seed))
            got = coordinate_blocks(module, blocks)
            # np.lexsort keys on the last row first: ascending base-|M| index.
            assert np.array_equal(got[:, np.lexsort(got)], expected), (module.label, seed)


def test_isomorphism_search_takes_the_first_bijective_map(corpus):
    """``find_bijective_hom`` returns the first bijective map that
    ``hom_enumerate`` lists, between the corpus test modules of one ring and
    against R^2 for rings of at most 8 elements."""
    pairs = 0
    for ring in corpus.values():
        modules = corpus_test_modules(ring)
        if ring.size <= 8:
            modules.append(free_module(ring, 2))
        for a in modules:
            for b in modules:
                if a.size != b.size:
                    continue
                first = next((hom for hom in hom_enumerate(a, b) if hom.is_bijective), None)
                found = find_bijective_hom(a, b)
                assert (found is None) == (first is None), (a.label, b.label)
                if first is not None:
                    assert np.array_equal(found.table, first.table), (a.label, b.label)
                    pairs += 1
    assert pairs
