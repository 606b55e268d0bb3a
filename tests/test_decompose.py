"""Idempotent and Krull-Schmidt decompositions."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from modclass import (
    DEFAULTS,
    DecompositionSignature,
    IndecomposableRegistry,
    ModuleHom,
    SizeCapError,
    baur_monk_invariant,
    build_ring,
    central_primitive_idempotents,
    classify_ring,
    corpus_test_modules,
    corner_isomorphism,
    cyclic_submodule,
    direct_sum,
    free_module,
    get_registry,
    idempotents,
    is_flat_module,
    is_free_module,
    is_isomorphic,
    is_projective_module,
    krull_schmidt,
    library_pairs,
    primitive_decomposition,
    quotient_module,
    random_recipe_rings,
    regular_module,
    submodule_as_module,
)
from modclass import decompose, ideals
from modclass.decompose import _find_splitting_idempotent
from modclass.modules import hom_candidate_blocks


class TestIdempotents:
    def test_examples(self, z6, z4, gf4):
        assert idempotents(z6) == (0, 1, 3, 4)
        assert idempotents(z4) == (0, 1)
        assert idempotents(gf4) == (0, 1)


class TestCentralPrimitiveIdempotents:
    @staticmethod
    def check(ring):
        """Central, idempotent, pairwise orthogonal, summing to 1, ascending,
        and primitive: the central idempotents, found by commuting with every
        element, are exactly the 2^k sums of subsets of the k blocks."""
        mul = ring.mul_table
        blocks = central_primitive_idempotents(ring)
        assert list(blocks) == sorted(blocks)
        total = 0
        for i, c in enumerate(blocks):
            assert c != 0 and int(mul[c, c]) == c
            assert np.array_equal(mul[c, :], mul[:, c])
            for d in blocks[i + 1 :]:
                assert int(mul[c, d]) == 0 and int(mul[d, c]) == 0
            total = ring.add(total, c)
        if ring.size > 1:
            assert total == ring.one
        central = [e for e in idempotents(ring) if np.array_equal(mul[e, :], mul[:, e])]
        assert len(central) == 2 ** len(blocks)
        return blocks

    @pytest.mark.parametrize(
        "spec, count",
        [
            ("Z/6", 2),
            ("Z/12", 2),
            ("GF(2) x M(2,GF(2))", 2),
            ("Z/8", 1),
            ("T(2,GF(2))", 1),
            ("M(2,GF(2))", 1),
            ("GF(2) x Z/4 x T(2,GF(2))", 3),
        ],
    )
    def test_counts(self, spec, count):
        assert len(self.check(build_ring(spec))) == count

    def test_z6(self, z6):
        assert central_primitive_idempotents(z6) == (3, 4)

    def test_corpus_and_random_rings(self, corpus):
        for ring in list(corpus.values()) + random_recipe_rings(100, seed=5):
            self.check(ring)


class TestPrimitiveDecomposition:
    def test_z6(self, z6):
        decomposition = primitive_decomposition(z6)
        assert decomposition.idempotents == (3, 4)
        assert decomposition.k == 2
        assert decomposition.multiplicities == (1, 1)
        assert decomposition.sizes == (2, 3)

    def test_m2f2(self, m2f2):
        decomposition = primitive_decomposition(m2f2)
        assert decomposition.idempotents == (1, 8)  # the two diagonal matrix units
        assert decomposition.k == 1
        assert decomposition.multiplicities == (2,)
        assert decomposition.sizes == (4,)

    def test_z8(self, z8):
        decomposition = primitive_decomposition(z8)
        assert decomposition.k == 1
        assert decomposition.multiplicities == (1,)
        assert decomposition.representatives[0].size == 8

    def test_size_product_formula(self, corpus):
        for spec, ring in corpus.items():
            decomposition = primitive_decomposition(ring)
            product = 1
            for size, mult in zip(decomposition.sizes, decomposition.multiplicities):
                product *= size**mult
            assert product == ring.size, spec

    def test_corner_criterion_vs_hom_search(self, corpus):
        # The corner-element test for Re ≅ Rf must agree with explicit
        # isomorphism search between the presented left ideals.
        for spec in ("Z/6", "Z/12", "T(2,GF(2))", "M(2,GF(2))"):
            ring = corpus[spec]
            reg = regular_module(ring)
            decomposition = primitive_decomposition(ring)
            es = decomposition.idempotents
            for i, e in enumerate(es):
                for f in es[i + 1 :]:
                    corner = corner_isomorphism(ring, e, f)
                    left_e = submodule_as_module(reg, cyclic_submodule(reg, e), generators=[e])
                    left_f = submodule_as_module(reg, cyclic_submodule(reg, f), generators=[f])
                    direct = is_isomorphic(left_e, left_f)
                    assert (corner is not None) == bool(direct), (spec, e, f)

    def test_class_order_matches_integer_tuple_key(self, corpus):
        rings = list(corpus.values())
        rings += [build_ring(s) for s in ("GF(2) x GF(2)", "GF(3) x GF(3)", "Z/30", "GF(2) x GF(4) x GF(4)")]
        checked = 0
        for ring in rings:
            decomposition = primitive_decomposition(ring)
            if decomposition.k < 2:
                continue
            keys = [
                (rep.size, tuple(int(v) for v in rep.act_table.ravel()))
                for rep in decomposition.representatives
            ]
            assert keys == sorted(keys), ring.label
            checked += 1
        assert checked >= 8

    def test_seed_invariance(self, corpus):
        for spec, ring in corpus.items():
            if ring.size > 32:
                continue
            base = primitive_decomposition(ring)
            for seed in (1, 2, 3):
                seeded = primitive_decomposition(ring, rng=np.random.default_rng(seed))
                assert seeded.sizes == base.sizes, spec
                assert seeded.multiplicities == base.multiplicities, spec


class TestRingStructureKeptOnRing:
    @pytest.fixture
    def computed(self, monkeypatch):
        """Labels of the rings whose decomposition and radical are computed
        rather than read back."""
        calls = {"decomposition": [], "radical": []}
        decompose_, radical_ = decompose._decompose, ideals._radical

        def counted_decompose(ring, cfg, rng):
            calls["decomposition"].append(ring.label)
            return decompose_(ring, cfg, rng)

        def counted_radical(ring):
            calls["radical"].append(ring.label)
            return radical_(ring)

        monkeypatch.setattr(decompose, "_decompose", counted_decompose)
        monkeypatch.setattr(ideals, "_radical", counted_radical)
        return calls

    def test_one_computation_per_ring_across_verdicts(self, computed):
        ring = build_ring("GF(2) x M(2,GF(2))")
        classify_ring(ring)
        modules = corpus_test_modules(ring)  # |R| = 32: the P_i, read off the decomposition
        module = modules[0]
        assert not is_free_module(module).value
        assert is_projective_module(module).value
        assert is_flat_module(module).value
        assert computed == {"decomposition": [ring.label], "radical": [ring.label]}

    def test_seeded_call_recomputes_without_touching_the_kept_one(self, computed):
        ring = build_ring("GF(2) x GF(3) x Z/4")  # commutative: the primitive idempotents are unique
        kept = primitive_decomposition(ring)
        seeded = primitive_decomposition(ring, rng=np.random.default_rng(7))
        assert seeded is not kept
        fields = ("idempotents", "classes", "multiplicities", "sizes")
        assert [getattr(seeded, f) for f in fields] == [getattr(kept, f) for f in fields]
        for p, q in zip(seeded.representatives, kept.representatives):
            assert np.array_equal(p.act_table, q.act_table)
        assert primitive_decomposition(ring) is kept
        assert len(computed["decomposition"]) == 2

    def test_cap_below_a_kept_p_i_still_raises(self, m2f2):
        primitive_decomposition(m2f2)
        with pytest.raises(SizeCapError) as raised:
            primitive_decomposition(m2f2, DEFAULTS.with_overrides(max_module=3))
        assert str(raised.value) == "P1(M(2,GF(2))): module size 4 above cap 3"
        assert primitive_decomposition(m2f2).sizes == (4,)

    def test_classify_ring_builds_no_class_arrays(self):
        # The per-class arrays serve projective-cover counts alone, so a ring
        # that is only classified never builds them.
        for spec in ("GF(128)", "M(2,Z/4)", "PolyQuot(GF(2),[1,0,0,1,0,0,0,0,0,1])", "T(2,GF(2)) x Z/4"):
            ring = build_ring(spec)
            classify_ring(ring)
            assert ring._decomposition is not None and "_class_arrays" not in vars(ring._decomposition), spec
            assert is_projective_module(regular_module(ring)).value
            assert len(vars(ring._decomposition)["_class_arrays"]) == ring._decomposition.k, spec

    def test_kept_decomposition_is_frozen(self, z6):
        decomposition = primitive_decomposition(z6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decomposition.multiplicities = (2,)
        assert decomposition.multiplicities == (1, 1)


class TestKrullSchmidt:
    def test_regular_matches_primitive_decomposition(self, corpus):
        for spec, ring in corpus.items():
            decomposition = primitive_decomposition(ring)
            signature = krull_schmidt(regular_module(ring))
            expected = tuple(
                sorted(zip(decomposition.sizes, decomposition.multiplicities))
            )
            assert signature.sizes() == expected, spec

    def test_free_rank_two_doubles(self, z6):
        signature = krull_schmidt(free_module(z6, 2))
        assert signature.sizes() == ((2, 2), (3, 2))

    def test_z2_over_z4_is_new_indecomposable(self, z4):
        reg = regular_module(z4)
        half = quotient_module(reg, [0, 2])
        signature = krull_schmidt(half)
        assert signature.sizes() == ((2, 1),)
        registry = get_registry(z4)
        regular_classes = {c for c, _ in krull_schmidt(reg).entries}
        assert all(c not in regular_classes for c, _ in signature.entries)

    def test_signature_of_sum_is_multiset_union(self, z6, m2f2):
        for ring in (z6, m2f2):
            reg = regular_module(ring)
            decomposition = primitive_decomposition(ring)
            pieces = list(decomposition.representatives)
            for a in pieces:
                for b in pieces:
                    combined = krull_schmidt(direct_sum(a, b))
                    assert combined == krull_schmidt(a).combine(krull_schmidt(b))

    def test_signatures_compare_the_registry_by_identity_then_the_entries(self):
        first, second = IndecomposableRegistry(), IndecomposableRegistry()
        entries = ((0, 2), (1, 1))
        assert DecompositionSignature(first, entries) != DecompositionSignature(second, entries)
        assert DecompositionSignature(first, entries) != DecompositionSignature(first, entries[:1])
        same = DecompositionSignature(first, tuple(list(entries)))
        assert same == DecompositionSignature(first, entries)
        assert hash(same) == hash(DecompositionSignature(first, entries))
        assert len({same, DecompositionSignature(first, entries), DecompositionSignature(second, entries)}) == 2

    def test_seed_invariance_regular_and_square(self, corpus):
        for spec, ring in corpus.items():
            if ring.size > 16:
                continue
            for module in (regular_module(ring), direct_sum(regular_module(ring), regular_module(ring))):
                base = krull_schmidt(module)
                for seed in (1, 2, 3):
                    assert krull_schmidt(module, rng=np.random.default_rng(seed)) == base


def per_tuple_splitting_idempotent(module):
    """Reference search: valid image tuples in ascending candidate order (the
    unseeded blocks), each tested for idempotence on the table of the map it
    defines."""
    g = module.num_generators
    coords = module.coords(np.arange(module.size)).T
    for block in hom_candidate_blocks(module, module):
        for images in map(tuple, block.T.tolist()):
            if images in ((0,) * g, module.gens):
                continue
            table = module.combine(coords, images)
            if all(table[y] == y for y in images):
                return images
    return None


class TestSplittingIdempotent:
    def test_block_search_matches_per_tuple_loop(self, corpus):
        for spec, ring in corpus.items():
            modules = [regular_module(ring)]
            if ring.size**4 <= DEFAULTS.max_homs:
                modules.append(free_module(ring, 2))
            for module in modules:
                expected = per_tuple_splitting_idempotent(module)
                assert _find_splitting_idempotent(module, DEFAULTS, None) == expected, module.label


class TestIsIsomorphic:
    def test_p_plus_p_is_regular_m2f2(self, m2f2):
        decomposition = primitive_decomposition(m2f2)
        p = decomposition.representatives[0]
        verdict = is_isomorphic(direct_sum(p, p), regular_module(m2f2))
        assert verdict.value
        assert verdict.witness is not None

    def test_size_mismatch(self, z4):
        reg = regular_module(z4)
        half = quotient_module(reg, [0, 2])
        verdict = is_isomorphic(half, reg)
        assert not verdict.value
        assert verdict.witness[0] == "size"

    def test_p1_vs_p2_over_z6(self, z6):
        decomposition = primitive_decomposition(z6)
        p1, p2 = decomposition.representatives
        verdict = is_isomorphic(p1, p2)
        assert not verdict.value

    def test_explicit_search_is_guarded_by_its_own_space(self):
        # Z/64 on one generator and on [1, 2, 4]: the search reg -> wide scans
        # 64^1 generator-image tuples, wide -> reg scans 64^3 > 100_000.
        reg = regular_module(build_ring("Z/64"))
        wide = submodule_as_module(reg, np.arange(64), generators=[1, 2, 4])
        assert isinstance(is_isomorphic(reg, wide).witness, ModuleHom)
        assert isinstance(is_isomorphic(wide, reg).witness, DecompositionSignature)

    def test_different_rings_rejected(self, z4, z6):
        with pytest.raises(ValueError):
            is_isomorphic(regular_module(z4), regular_module(z6))


def _leaves(value):
    """The non-tuple values nested in tuples, dict values and NamedTuples."""
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


class TestRegistryLifetime:
    def test_registry_does_not_keep_its_ring_alive(self):
        ring = build_ring("Z/6")
        ref = weakref.ref(ring)
        assert is_free_module(regular_module(ring))
        del ring
        gc.collect()
        assert ref() is None

    def test_ring_kept_stores_hold_arrays_and_ints_and_die_with_the_ring(self):
        ring = build_ring("T(2,GF(2)) x Z/4")
        ref = weakref.ref(ring)
        classify_ring(ring)
        module = direct_sum(regular_module(ring), corpus_test_modules(ring)[-1])
        assert not is_free_module(module)
        assert is_projective_module(regular_module(ring))
        assert is_flat_module(module).value == is_projective_module(module).value
        krull_schmidt(module)
        for phi, psi in library_pairs(ring):
            baur_monk_invariant(module, phi, psi)
        # The pp residuals and the decomposition's cached class arrays hold
        # arrays alone, never the ring.
        residuals = ring._pp_residuals
        arrays = primitive_decomposition(ring).__dict__["_class_arrays"]
        assert len(residuals) > 1 and len(arrays) == 3 and all(len(a) == 3 for a in arrays)
        for store in (residuals, arrays):
            assert {type(leaf) for leaf in _leaves(store)} == {np.ndarray}
        del ring, module
        gc.collect()
        assert ref() is None
