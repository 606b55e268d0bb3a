"""Module presentations, carriers, homomorphism enumeration."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modclass import (
    ClosureError,
    SizeCapError,
    all_submodules,
    build_ring,
    builtin_corpus,
    corpus_test_modules,
    cyclic_submodule,
    direct_sum,
    free_module,
    generated_module_family,
    hom_enumerate,
    identity_hom,
    is_isomorphic,
    primitive_decomposition,
    quotient_module,
    random_recipe_rings,
    regular_module,
    submodule_as_module,
    verify_module_axioms,
    zero_module,
    DEFAULTS,
    EngineConfig,
    FiniteModule,
)
from modclass import ideals as ideals_module, modules as modules_module, subgroup as subgroup_module
from modclass.corpus import BUILTIN_CORPUS_SPECS
from modclass.modules import _relation_generators, hom_candidate_blocks
from modclass.properties import is_flat_module, is_projective_module
from modclass.rings import _fill, base_digits, base_index
from modclass.subgroup import generators, span
from helpers import compose, hom_is_valid, is_submodule, submodule_generated


class TestConstruction:
    def test_free_modules(self, z4, z6):
        assert free_module(z4, 1).size == 4
        assert free_module(z6, 2).size == 36
        assert free_module(z4, 0).size == 1

    def test_free_module_cap(self, z6):
        with pytest.raises(SizeCapError):
            free_module(z6, 2, cfg=EngineConfig(max_module=30))

    def test_axioms_hold(self, corpus):
        for ring in corpus.values():
            if ring.size > 16:
                continue
            assert verify_module_axioms(regular_module(ring))
            assert verify_module_axioms(free_module(ring, 2))

    def test_quotient_action_reduces(self, z4):
        reg = regular_module(z4)
        half = quotient_module(reg, [0, 2])
        assert half.size == 2
        assert verify_module_axioms(half)
        assert half.act(2, 1) == 0  # 2 acts as zero after reduction
        assert half.act(3, 1) == 1

    def test_quotient_identities(self, z6):
        reg = regular_module(z6)
        assert quotient_module(reg, [0]) is reg
        assert quotient_module(reg, list(range(6))).size == 1

    def test_quotient_needs_a_submodule(self, z6):
        reg = regular_module(z6)
        with pytest.raises(ClosureError):
            quotient_module(reg, [0, 1])  # 1 generates everything

    @pytest.mark.parametrize(
        "spec, elements",
        [("Z/4", [2]), ("Z/4", [0, 1]), ("GF(4)", [0, 1]), ("Z/4", [])],
        ids=["without-zero", "non-subgroup", "subgroup-not-closed-under-the-action", "empty"],
    )
    def test_quotient_refuses_every_non_submodule(self, spec, elements):
        # In GF(4), {0, 1} is an additive subgroup that the generator 2 moves.
        reg = regular_module(build_ring(spec))
        elements = np.array(elements, dtype=np.int64)
        assert not is_submodule(reg, elements)
        with pytest.raises(ClosureError, match=re.escape(f"{reg.label}: quotient by a non-submodule")):
            quotient_module(reg, elements)

    def test_corrupted_action_is_rejected_at_every_size(self):
        module = regular_module(build_ring("Z/2048"))
        # A regular module shares the ring's table: corrupt a private copy.
        module._act_table = module.act_table.copy()
        module.act_table[5, 7] += 1
        assert not verify_module_axioms(module)

    def test_seeded_single_entry_corruptions_are_rejected(self, corpus):
        reg = regular_module(corpus["Z/6"])
        modules = [regular_module(ring) for ring in corpus.values()]
        modules += [free_module(ring, 2) for ring in corpus.values() if ring.size <= 16]
        modules += [quotient_module(reg, cyclic_submodule(reg, 3)), regular_module(build_ring("Z/2048"))]
        rng = np.random.default_rng(0)
        for module in modules:
            table = module._act_table = module.act_table.copy()  # never the ring's own table
            for _ in range(20):
                r, x = int(rng.integers(module.ring.size)), int(rng.integers(module.size))
                old = int(table[r, x])
                table[r, x] = (old + int(rng.integers(1, module.size))) % module.size
                assert not verify_module_axioms(module), (module.label, r, x)
                table[r, x] = old
            assert verify_module_axioms(module), module.label

    def test_carrier_of_a_non_submodule_is_rejected(self, m2f2):
        # K = {0, 1} is an additive subgroup of M(2,GF(2)) but not a left ideal.
        w = np.arange(m2f2.size)
        module = FiniteModule(m2f2, 1, np.minimum(w, m2f2.add(w, 1)), "M(2,GF(2))/{0,1}")
        assert not verify_module_axioms(module)

    def test_sizes_multiply_through_quotients(self, corpus):
        for ring in corpus.values():
            if ring.size > 16:
                continue
            reg = regular_module(ring)
            for sub in all_submodules(reg):
                assert quotient_module(reg, sub).size * len(sub) == reg.size


def per_row_act_table(module):
    """Reference action table, one encode of the acted cover digits per ring element."""
    digits = module._cover_digits(module.rep)
    return np.stack(
        [module.cls[module._cover_encode(module.ring.mul_table[r, digits])] for r in range(module.ring.size)]
    )


class TestActTable:
    def test_block_build_matches_per_row_build(self, z6, m2f2, t2f2):
        reg = regular_module(m2f2)
        modules = [
            regular_module(z6),
            free_module(z6, 2),
            reg,
            free_module(t2f2, 2),
            quotient_module(reg, cyclic_submodule(reg, 1)),
            # 65 rows a block: 15 full blocks, then 25 rows.
            regular_module(build_ring("Z/1000")),
            # Two generators, 16 rows a block: 2 full blocks, then 13 rows.
            free_module(build_ring("Z/45"), 2),
            # 4096 elements: no addition table.
            free_module(build_ring("Z/64"), 2),
        ]
        for module in modules:
            table = module.act_table
            assert table.dtype == np.int32, module.label
            assert np.array_equal(table, per_row_act_table(module)), module.label
            if module.size <= 2048:
                rep = module.rep
                sums = module.cls[module.cover_add(rep[:, None], rep[None, :])]
                assert np.array_equal(module.add_table, sums), module.label

    def test_regular_module_shares_the_multiplication_table(self, corpus):
        # And adds with the ring's own addition, so it builds no addition
        # table of its own, also above the 2,048 elements up to which other
        # modules build one.
        for ring in [*corpus.values(), build_ring("Z/2500")]:
            reg = regular_module(ring)
            assert np.shares_memory(reg.act_table, ring.mul_table), ring.label
            x = np.arange(ring.size)
            assert np.array_equal(reg.add(x, x[::-1]), ring.add(x, x[::-1])), ring.label
            assert reg._add_table is None, ring.label


def gathered_cover_add(module, u, v):
    """Free-cover addition digit by digit through R's addition table."""
    size, g = module.ring.size, module.num_generators
    return base_index(module.ring.add_table[base_digits(u, size, g), base_digits(v, size, g)], size)


class TestCoverAddition:
    """Every n_i a power of two: a cover index is a word of bit fields, added
    by lanes; every other ring adds through the table."""

    @pytest.mark.parametrize(
        "spec, rank", [("Z/4", 2), ("GF(4)", 2), ("T(2,GF(2))", 2), ("Z/8 x Z/2", 2), ("GF(2)", 3)]
    )
    def test_lanes_match_the_gather_on_every_pair(self, spec, rank):
        module = free_module(build_ring(spec), rank)
        assert module._cover_lane is not None
        u, v = np.divmod(np.arange(module.cover_size**2), module.cover_size)
        assert np.array_equal(module.cover_add(u, v), gathered_cover_add(module, u, v))

    def test_lanes_match_the_gather_on_random_pairs(self):
        module = free_module(build_ring("GF(2) x M(2,GF(2))"), 2)
        assert module._cover_lane is not None and module.cover_size == 1024
        u, v = np.random.default_rng(7).integers(0, module.cover_size, (2, 10_000))
        assert np.array_equal(module.cover_add(u, v), gathered_cover_add(module, u, v))

    @pytest.mark.parametrize("spec", ["Z/6", "GF(3)", "Z/12"])
    def test_other_rings_take_the_gather(self, spec):
        module = free_module(build_ring(spec), 2)
        assert module._cover_lane is None
        u, v = np.divmod(np.arange(module.cover_size**2), module.cover_size)
        assert np.array_equal(module.cover_add(u, v), gathered_cover_add(module, u, v))


def pairwise_labels(a, b):
    """The carrier of a (+) b written out pair by pair: (x, y) is x + |a|·y,
    its least cover index rep_a[x] + |cover a|·rep_b[y]."""
    shift = a.cover_size
    w = np.arange(shift * b.cover_size)
    ids = np.arange(a.size * b.size)
    cls = a.cls[w % shift] + b.cls[w // shift] * a.size
    rep = a.rep[ids % a.size] + b.rep[ids // a.size] * shift
    relations = np.unique(a.relations[None, :] + b.relations[:, None] * shift)
    return cls, rep, relations


class TestLabelling:
    def test_direct_sum_labels_are_pairwise(self, corpus):
        checked = 0
        for ring in corpus.values():
            reg = regular_module(ring)
            modules = [reg, *primitive_decomposition(ring).representatives]
            proper = [sub for sub in all_submodules(reg) if 1 < len(sub) < reg.size]
            modules += [quotient_module(reg, proper[0])] if proper else []
            for a in modules:
                for b in modules:
                    if a.size * b.size > DEFAULTS.max_module:
                        continue
                    total = direct_sum(a, b)
                    cls, rep, relations = pairwise_labels(a, b)
                    assert np.array_equal(total.cls, cls), total.label
                    assert np.array_equal(total.rep, rep), total.label
                    assert np.array_equal(total.relations, relations), total.label
                    checked += 1
        assert checked > 50

    def test_free_module_labels_are_cover_indices(self, corpus):
        for ring in corpus.values():
            for g in range(3):
                if ring.size**g <= DEFAULTS.max_module:
                    free = free_module(ring, g)
                    assert np.array_equal(free.cls, np.arange(ring.size**g)), free.label
                    assert np.array_equal(free.rep, free.cls) and list(free.relations) == [0], free.label


def doubling_fill_act_table(module):
    """Reference action table: the doubling fill of the generator rows e_i x
    by module addition (``rings._fill``), independent of the gather."""
    ring = module.ring
    gen_rows = module.cls[module.cover_act(ring._gens[:, None, None], module.rep)]
    return _fill(ring, np.zeros(module.size, dtype=np.int32), gen_rows, module._add_op())


class TestActTableOracle:
    def test_gather_matches_doubling_fill(self):
        rings = builtin_corpus()
        modules = [m for ring in rings for m in generated_module_family(ring)]
        modules += [m for ring in rings + random_recipe_rings(40, seed=5) for m in corpus_test_modules(ring)]
        z64 = free_module(build_ring("Z/64"), 2)
        modules += [
            # Several row blocks each, the last one short for Z/45.
            free_module(build_ring("Z/45"), 2),
            quotient_module(z64, cyclic_submodule(z64, 32)),
        ]
        for module in modules:
            table = module.act_table
            assert table.dtype == np.int32 and table.shape == (module.ring.size, module.size), module.label
            assert np.array_equal(table, doubling_fill_act_table(module)), module.label


class TestDirectSum:
    def test_sizes_and_axioms(self, z6):
        reg = regular_module(z6)
        total = direct_sum(reg, reg)
        assert total.size == 36
        assert verify_module_axioms(total)

    def test_free_cover_above_the_cap_is_refused(self, m2f2):
        # |P| = 4 over a 16-element ring: P^3 has 64 elements but a free
        # cover of 16^3, above max(max_module, max_homs) = 1024.
        p = primitive_decomposition(m2f2).representatives[0]
        cfg = EngineConfig(max_module=1024, max_homs=1024)
        total = p
        with pytest.raises(SizeCapError, match="free cover 4096 above cap"):
            for _ in range(4):
                total = direct_sum(total, p, cfg)

    def test_ring_mismatch(self, z4, z6):
        with pytest.raises(ValueError):
            direct_sum(regular_module(z4), regular_module(z6))

    def test_sum_with_zero_is_identity_up_to_isomorphism(self, z6):
        reg = regular_module(z6)
        assert is_isomorphic(direct_sum(reg, zero_module(z6)), reg).value

    def test_commutative_and_associative_up_to_isomorphism(self, z6):
        reg = regular_module(z6)
        p1 = submodule_as_module(reg, cyclic_submodule(reg, 3), label="P1")
        p2 = submodule_as_module(reg, cyclic_submodule(reg, 2), label="P2")
        assert is_isomorphic(direct_sum(p1, p2), direct_sum(p2, p1)).value
        left = direct_sum(direct_sum(p1, p2), p1)
        right = direct_sum(p1, direct_sum(p2, p1))
        assert is_isomorphic(left, right).value

    def test_summand_modules_rebuild_the_regular_module(self, z6):
        reg = regular_module(z6)
        p1 = submodule_as_module(reg, cyclic_submodule(reg, 3), label="P1")
        p2 = submodule_as_module(reg, cyclic_submodule(reg, 2), label="P2")
        verdict = is_isomorphic(direct_sum(p1, p2), reg)
        assert verdict.value and verdict.witness is not None


class TestHomEnumeration:
    def test_z2_to_z4_has_two_maps(self, z4):
        reg = regular_module(z4)
        half = quotient_module(reg, [0, 2])
        homs = hom_enumerate(half, reg)
        assert len(homs) == 2
        assert sorted(h(half.gens[0]) for h in homs) == [0, 2]

    def test_regular_endomorphisms(self, z4):
        reg = regular_module(z4)
        assert len(hom_enumerate(reg, reg)) == 4

    def test_hom_to_zero_module(self, z4):
        reg = regular_module(z4)
        assert len(hom_enumerate(reg, zero_module(z4))) == 1

    def test_free_source_counts(self, corpus):
        # |Hom(R^n, M)| = |M|^n over every corpus ring, n <= 2, within caps
        for spec, ring in corpus.items():
            reg = regular_module(ring)
            x = _proper_element(reg)
            small = (
                quotient_module(reg, cyclic_submodule(reg, x))
                if x is not None
                else zero_module(ring)
            )
            for n in (1, 2):
                try:
                    source = free_module(ring, n)
                except SizeCapError:
                    continue
                for target in (reg, small):
                    try:
                        homs = hom_enumerate(source, target)
                    except SizeCapError:
                        continue
                    assert len(homs) == target.size**n, (spec, n, target.label)

    def test_all_enumerated_homs_are_valid(self, z4, z6):
        for ring in (z4, z6):
            reg = regular_module(ring)
            half = quotient_module(reg, cyclic_submodule(reg, _proper_element(reg)))
            for hom in hom_enumerate(half, reg) + hom_enumerate(reg, half):
                assert hom_is_valid(hom)

    def test_cap_respected(self, z6):
        reg = regular_module(z6)
        big = direct_sum(reg, reg)
        with pytest.raises(SizeCapError):
            hom_enumerate(big, big, cfg=EngineConfig(max_homs=100))

    def test_composition(self, z4):
        reg = regular_module(z4)
        double = hom_enumerate(reg, reg)[2]  # generator image 2
        assert compose(double, identity_hom(reg)).table.tolist() == double.table.tolist()


def _proper_element(reg):
    """Least element generating a proper nonzero submodule, None for simple carriers."""
    for x in range(1, reg.size):
        sub = cyclic_submodule(reg, x)
        if 1 < len(sub) < reg.size:
            return x
    return None


class TestSubmodules:
    def test_z6_lattice(self, z6):
        subs = all_submodules(regular_module(z6))
        assert [tuple(int(v) for v in s) for s in subs] == [
            (0,),
            (0, 3),
            (0, 2, 4),
            (0, 1, 2, 3, 4, 5),
        ]

    def test_m2f2_square_matches_subspace_count(self, m2f2):
        # Column-module equivalence: submodules of R^2 correspond to
        # subspaces of a 4-dimensional binary space: 67 of them.
        reg = regular_module(m2f2)
        assert len(all_submodules(direct_sum(reg, reg))) == 67

    def test_generated_is_the_span_of_the_cyclic_submodules(self, corpus):
        # Oracle: the sum of the R*s, each listed element by element.
        rng = np.random.default_rng(1)
        for ring in corpus.values():
            if ring.size > 16:
                continue
            reg = regular_module(ring)
            for module in (reg, direct_sum(reg, reg)):
                seed_sets = [[x] for x in range(module.size)]
                seed_sets += [rng.integers(0, module.size, k).tolist() for k in (2, 2, 3, 3)]
                for seeds in seed_sets:
                    parts = [int(y) for s in seeds for y in cyclic_submodule(module, s)]
                    expected = np.flatnonzero(span(module.add, module.size, parts))
                    got = submodule_generated(module, seeds)
                    assert np.array_equal(got, expected), (module.label, seeds)

    def test_is_submodule_matches_the_whole_action(self, corpus):
        # On additive subgroups, closure under the e_i must equal closure under R.
        rng = np.random.default_rng(2)
        for ring in corpus.values():
            if ring.size > 16:
                continue
            reg = regular_module(ring)
            for module in (reg, direct_sum(reg, reg)):
                for k in (1, 1, 2, 2, 3):
                    for _ in range(5):
                        subgroup = np.flatnonzero(span(module.add, module.size, rng.integers(0, module.size, k)))
                        mask = np.zeros(module.size, dtype=bool)
                        mask[subgroup] = True
                        closed = bool(mask[module.act_table[:, subgroup]].all())
                        assert is_submodule(module, subgroup) == closed, (module.label, subgroup)

    def test_lattice_cap_names_the_module(self, m2f2):
        reg = regular_module(m2f2)
        square = direct_sum(reg, reg)
        with pytest.raises(SizeCapError, match=re.escape(f"{square.label}: submodule lattice above 10")):
            all_submodules(square, limit=10)

    @given(st.sampled_from(["Z/4", "Z/6", "Z/8", "T(2,GF(2))"]), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_cyclic_submodules_are_submodules(self, spec, seed):
        ring = build_ring(spec)
        reg = regular_module(ring)
        x = seed % reg.size
        sub = cyclic_submodule(reg, x)
        mask = np.zeros(reg.size, dtype=bool)
        mask[sub] = True
        assert mask[reg.add(sub[:, None], sub[None, :])].all()
        assert mask[reg.act_table[:, sub]].all()


def family_bases(ring):
    """R and R^2 as ``generated_module_family`` builds them, in its order."""
    reg = regular_module(ring)
    return [reg] + ([direct_sum(reg, reg)] if reg.size**2 <= DEFAULTS.max_module else [])


class TestQuotientFamily:
    """The family's quotients, built from the lattice's parts, against the
    public ``quotient_module`` and its walk over each N."""

    def test_join_route_matches_the_public_quotient(self, corpus):
        count = 0
        for ring in corpus.values():
            family = iter(generated_module_family(ring))
            for base in family_bases(ring):
                for sub in all_submodules(base):
                    module = next(family)
                    public = quotient_module(base, sub, label=module.label)
                    for name in ("act_table", "cls", "rep"):
                        ours, theirs = getattr(module, name), getattr(public, name)
                        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), module.label
                    relations = np.zeros(module.cover_size, dtype=bool)
                    relations[module.relations] = True
                    spanned = span(module.cover_add, module.cover_size, _relation_generators(module))
                    assert np.array_equal(spanned, relations), module.label
                    count += 1
            assert next(family, None) is None
        assert count == 781

    def test_hom_blocks_do_not_depend_on_the_relation_generators(self, corpus):
        compared = 0
        for spec in ("Z/4", "Z/6", "Z/8", "T(2,GF(2))"):
            ring = corpus[spec]
            family = [m for m in generated_module_family(ring) if m.size <= 8]
            for source in family:
                walked = quotient_module(family_bases(ring)[source.num_generators - 1], source.relations)
                walked._relation_gens = np.array(
                    generators(walked.cover_add, walked.cover_size, walked.relations), dtype=np.int64
                )
                if np.array_equal(_relation_generators(source), walked._relation_gens):
                    continue
                compared += 1
                for target in family[:6]:
                    ours = list(hom_candidate_blocks(source, target))
                    theirs = list(hom_candidate_blocks(walked, target))
                    assert len(ours) == len(theirs), (source.label, target.label)
                    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs)), (source.label, target.label)
        assert compared >= 20

    def test_the_family_walks_no_submodule(self, monkeypatch):
        # What the checks keep on each ring (its radical and decomposition) is
        # built first: only the family and its checks are counted.
        rings = builtin_corpus()
        for ring in rings:
            is_projective_module(regular_module(ring))
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return wrapper

        submodule_generators = counted("_submodule_generators", modules_module._submodule_generators)
        monkeypatch.setattr(modules_module, "_submodule_generators", submodule_generators)
        # Every module that calls generators, each through its own name for it.
        for namespace in (subgroup_module, modules_module, ideals_module):
            monkeypatch.setattr(namespace, "generators", counted("generators", subgroup_module.generators))
        family = [m for ring in rings for m in generated_module_family(ring)]
        for module in family:
            is_flat_module(module)
            is_projective_module(module)
        assert len(family) == 781
        assert calls == []
