"""The additive-subgroup kernel against a naive fixed-point oracle."""

import numpy as np

from modclass import BUILTIN_CORPUS_SPECS, build_ring, free_module, regular_module
from modclass.subgroup import generators, span


def naive_span(add, gens):
    """Fixed point of S -> S u (S + S), starting from {0} and the generators."""
    members = np.unique(np.array([0, *gens], dtype=np.int64))
    while True:
        sums = np.ravel(add(members[:, None], members[None, :]))
        grown = np.unique(np.concatenate([members, sums]))
        if len(grown) == len(members):
            return grown
        members = grown


def check_against_oracle(add, size, gen_sets):
    for gens in gen_sets:
        expected = naive_span(add, gens)
        assert np.array_equal(np.flatnonzero(span(add, size, gens)), expected), gens
        picked = generators(add, size, expected)
        assert np.array_equal(np.flatnonzero(span(add, size, picked)), expected), gens


def test_span_of_one_in_regular_module_of_z7_is_everything():
    reg = regular_module(build_ring("Z/7"))
    assert np.flatnonzero(span(reg.cover_add, reg.cover_size, [1])).tolist() == list(range(7))


def test_corpus_additive_groups_match_oracle(corpus):
    rng = np.random.default_rng(0)
    for spec in BUILTIN_CORPUS_SPECS:
        ring = corpus[spec]
        gen_sets = [[x] for x in range(ring.size)]
        gen_sets += [rng.integers(0, ring.size, k).tolist() for k in (2, 2, 3, 3, 4)]
        check_against_oracle(ring.add, ring.size, gen_sets)


def test_rank_two_free_modules_match_oracle():
    for spec in ("Z/4", "GF(2) x GF(2)"):
        module = free_module(build_ring(spec), 2)
        pairs = [[x, y] for x in range(module.size) for y in range(x, module.size)]
        check_against_oracle(module.add, module.size, pairs)
