"""The additive-subgroup kernel against a naive fixed-point oracle, the
block-split, join-irreducible lattices against an unsplit closure that joins
every member with every cyclic part, one ``grow`` per additive generator, and
the canonical closure against the one that joins every member with every
irreducible part and dedupes the joins by their bytes."""

import re

import numpy as np
import pytest

from modclass import (
    BUILTIN_CORPUS_SPECS,
    DEFAULTS,
    SizeCapError,
    all_submodules,
    build_ring,
    central_primitive_idempotents,
    cyclic_submodule,
    direct_sum,
    free_module,
    ideal_generated,
    one_sided_ideals,
    random_recipe_rings,
    regular_module,
)
from modclass import ideals as ideals_module
from modclass.ideals import IDEAL_ENUM_CAP
from modclass.subgroup import (
    _join_closure,
    _join_irreducible,
    _sumset,
    generators,
    grow,
    lattice,
    span,
    walk,
    zero,
)
from helpers import submodule_generated
from test_pp import sweep_specs
from test_rings import traced_peak_mb


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


# -- the greedy walk against the pick loop it replaced ---------------------------


def pick_loop(add, mask, elements, parts):
    """The greedy loop written out: pick each element not yet marked, in
    order, and grow the mask by every one of its parts."""
    picks = []
    for x in elements:
        if not mask[x]:
            picks.append(int(x))
            for y in parts(x):
                grow(add, mask, y)
    return picks


def left_products(module):
    """x -> e_i·x for R's additive generators e_i."""
    return lambda x: module.act_table[module.ring._gens, x]


def right_products(module):
    """x -> x·e_j for R's additive generators e_j, coordinate by coordinate on
    the free module R^g, whose carrier elements are its cover indices."""
    ring = module.ring
    return lambda x: module._cover_encode(ring.mul_table[module.coords(x)[:, None], ring._gens].T)


def test_walk_matches_the_pick_loop(corpus):
    rng = np.random.default_rng(0)
    cfg = DEFAULTS.with_overrides(max_module=81**2)  # R^2 over M(2,GF(3))
    for spec in BUILTIN_CORPUS_SPECS:
        for rank in (1, 2):
            module = free_module(corpus[spec], rank, cfg)
            add, size = module.add, module.size
            start = zero(size)
            start[cyclic_submodule(module, int(rng.integers(1, size)))] = True
            for parts in (left_products(module), right_products(module)):
                for order in (np.arange(size), rng.permutation(size)):
                    for marked in (zero(size), start):
                        expected = marked.copy()
                        picks = pick_loop(add, expected, order, parts)
                        mask = marked.copy()
                        assert walk(add, mask, order, parts) == tuple(picks), (spec, rank)
                        assert np.array_equal(mask, expected), (spec, rank)
            # Nothing already marked is picked, and the mask stays as it was.
            mask = start.copy()
            assert walk(add, mask, np.flatnonzero(start), left_products(module)) == ()
            assert np.array_equal(mask, start)


# -- the block-split lattice against the unsplit join-closure --------------------


def naive_lattice(add, size, parts):
    """Every sum of ``parts`` sorted by (size, elements): each member found
    is joined with every distinct part by growing its mask along an additive
    generating set of the part."""
    closed = {}
    for part in parts:
        part = np.asarray(part, dtype=np.int64)
        closed.setdefault(part.tobytes(), (part, generators(add, size, part)))
    found = {key: part for key, (part, _) in closed.items()}
    queue = list(found)
    while queue:
        base = np.zeros(size, dtype=bool)
        base[found[queue.pop()]] = True
        for part, gens in closed.values():
            if base[part].all():
                continue
            mask = base.copy()
            for g in gens:
                grow(add, mask, g)
            joined = np.flatnonzero(mask)
            if joined.tobytes() not in found:
                found[joined.tobytes()] = joined
                queue.append(joined.tobytes())
    return sorted((tuple(a.tolist()) for a in found.values()), key=lambda a: (len(a), a))


def unsplit_submodules(module):
    """Every cyclic submodule, closed as one single block by the oracle."""
    cyclics = [cyclic_submodule(module, x) for x in range(module.size)]
    return naive_lattice(module.add, module.size, cyclics)


def unsplit_ideals(ring, side):
    cyclics = [ideal_generated(ring, side, [x]).elements for x in range(ring.size)]
    return naive_lattice(ring.add, ring.size, cyclics)


def join_irreducible_count(module):
    """How many distinct cyclic submodules are not the join of the cyclic
    submodules strictly inside them."""
    cyclics = [cyclic_submodule(module, x) for x in range(module.size)]
    return len(_join_irreducible(module.add, module.size, cyclics)[0])


def split_submodules(module):
    return [tuple(a.tolist()) for a in all_submodules(module)]


def test_split_submodule_lattices_of_corpus_r_and_r2_match_unsplit(corpus):
    for ring in corpus.values():
        reg = regular_module(ring)
        modules = [reg] + ([direct_sum(reg, reg)] if reg.size**2 <= DEFAULTS.max_module else [])
        for module in modules:
            assert split_submodules(module) == unsplit_submodules(module), module.label


def test_split_lattices_of_random_rings_match_unsplit(corpus):
    random_rings = random_recipe_rings(100, seed=5)
    for ring in random_rings:
        reg = regular_module(ring)
        assert split_submodules(reg) == unsplit_submodules(reg), ring.label
    small = [r for r in corpus.values() if r.size <= IDEAL_ENUM_CAP]
    for ring in small + random_rings:
        for side in ("left", "right", "two-sided"):
            assert one_sided_ideals(ring, side) == unsplit_ideals(ring, side), (ring.label, side)


def test_one_sided_cyclic_ideals_read_off_the_table_match_the_span(corpus):
    # Rx and xR are a column and a row of the table, with no span; the
    # lattices over them are the span route's.
    sweep = [build_ring(spec) for spec in sweep_specs()]
    rings = list(corpus.values()) + sweep + random_recipe_rings(60, seed=3, max_size=64)
    lattices = 0
    for ring in rings:
        for side in ("left", "right"):
            for x in range(ring.size):
                gathered = ideals_module._cyclic_ideal(ring, side, x)
                assert tuple(gathered.tolist()) == ideal_generated(ring, side, [x]).elements, (ring.label, x)
            if ring.size <= IDEAL_ENUM_CAP:
                assert one_sided_ideals(ring, side) == unsplit_ideals(ring, side), (ring.label, side)
                lattices += 1
    assert lattices > 150


def test_one_sided_ideals_span_nothing(monkeypatch, corpus):
    calls = []
    real = ideals_module.ideal_generated
    monkeypatch.setattr(ideals_module, "ideal_generated", lambda *a: calls.append(a) or real(*a))
    for ring in corpus.values():
        if ring.size <= IDEAL_ENUM_CAP:
            one_sided_ideals(ring, "left")
            one_sided_ideals(ring, "right")
    assert not calls
    one_sided_ideals(corpus["Z/6"], "two-sided")
    assert calls


def test_cap_on_the_product_raises_before_any_direct_sum():
    # R^2 over Z/6 = Z/2 x Z/3: blocks of 5 and 6 submodules, 30 in all.
    ring = build_ring("Z/6")
    reg = regular_module(ring)
    square = direct_sum(reg, reg)
    assert len(all_submodules(square)) == 30
    blocks = [
        [cyclic_submodule(square, x) for x in np.unique(square.act_table[c])]
        for c in central_primitive_idempotents(ring)
    ]

    def closure_add(x, y):
        # The join-closure only adds to 1-D member arrays; a direct sum adds 2-D ones.
        assert np.ndim(x) <= 1, "a direct sum was built"
        return square.add(x, y)

    assert len(lattice(square.add, square.size, [blocks[0]], limit=10)) == 5
    assert len(lattice(square.add, square.size, [blocks[1]], limit=10)) == 6
    with pytest.raises(SizeCapError, match=re.escape("lattice above 10")):
        lattice(closure_add, square.size, blocks, limit=10)
    with pytest.raises(SizeCapError, match=re.escape(f"{square.label}: submodule lattice above 10")):
        all_submodules(square, limit=10)


def test_join_irreducible_parts_are_counted_exactly(m2f2, z8):
    # R^2 over the simple ring M(2,GF(2)) is the sum of two simple modules
    # GF(2)^2: its 15 simple submodules are the join-irreducible ones.
    reg = regular_module(m2f2)
    square = direct_sum(reg, reg)
    assert join_irreducible_count(square) == 15
    assert len(all_submodules(square)) == 67
    # The ideals of Z/8 are a chain: each nonzero one is irreducible.
    assert join_irreducible_count(regular_module(z8)) == 3


@pytest.mark.parametrize("spec, rank", [("Z/2048", 1), ("GF(2) x M(2,GF(2))", 2)])
def test_lattice_joins_in_bounded_memory(spec, rank):
    # Nested members short-circuit their join and every other sumset is
    # gathered in blocks: an unblocked sumset over the chain of Z/2048 peaks
    # near 40 MB.
    reg = regular_module(build_ring(spec))
    module = reg if rank == 1 else direct_sum(reg, reg)
    module.act_table, module._add_op()  # what all_submodules reads, built before the trace starts
    expected = len(all_submodules(module))
    members, mb = traced_peak_mb(lambda: all_submodules(module))
    assert len(members) == expected
    assert mb < 2, mb


# -- the canonical closure against the closure that dedupes by bytes -------------


def dedupe_closure(add, size, parts):
    """The members' keys from the closure that joins every member found with
    every irreducible part and keeps each join once, by its bytes."""
    irreducible, masks, _ = _join_irreducible(add, size, parts)
    bottom = np.zeros(1, dtype=np.int64)
    found = {bottom.tobytes(): bottom}
    queue = [bottom]
    while queue:
        base = queue.pop()
        base_mask = zero(size)
        base_mask[base] = True
        for part, part_mask in zip(irreducible, masks):
            joined, _ = _sumset(add, base, base_mask, part, part_mask)
            if joined.tobytes() not in found:
                found[joined.tobytes()] = joined
                queue.append(joined)
    return set(found)


def check_canonical_closure(add, size, blocks, generated):
    """Per block, the canonical closure yields the oracle's members, each
    once, and each is generated by the seeds it carries."""
    for parts in blocks:
        parts = list(parts)
        members = _join_closure(add, size, parts, None, "lattice")
        keys = [member.tobytes() for member, _ in members]
        assert len(keys) == len(set(keys))
        assert set(keys) == dedupe_closure(add, size, parts)
        for member, seeds in members:
            assert np.array_equal(generated(seeds), member), seeds


def submodule_blocks(module):
    act, ring = module.act_table, module.ring
    return [[cyclic_submodule(module, x) for x in np.unique(act[c])] for c in central_primitive_idempotents(ring)]


def ideal_blocks(ring, side):
    return [
        [ideal_generated(ring, side, [x]).elements for x in np.unique(ring.mul_table[c])]
        for c in central_primitive_idempotents(ring)
    ]


def test_canonical_closure_builds_each_submodule_once(corpus):
    rings = list(corpus.values()) + random_recipe_rings(40, seed=5, max_size=32)
    for ring in rings:
        reg = regular_module(ring)
        for module in [reg] + ([direct_sum(reg, reg)] if reg.size**2 <= DEFAULTS.max_module else []):

            def generated(seeds):
                return submodule_generated(module, seeds)

            check_canonical_closure(module.add, module.size, submodule_blocks(module), generated)


def test_canonical_closure_builds_each_ideal_once(corpus):
    small = [r for r in corpus.values() if r.size <= IDEAL_ENUM_CAP]
    for ring in small + random_recipe_rings(40, seed=5, max_size=32):
        for side in ("left", "right", "two-sided"):

            def generated(seeds):
                return np.array(ideal_generated(ring, side, list(seeds)).elements, dtype=np.int64)

            check_canonical_closure(ring.add, ring.size, ideal_blocks(ring, side), generated)
