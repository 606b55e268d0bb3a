"""Freeness, projectivity, flatness, and the cross-checks between them."""

import dataclasses
import itertools

import numpy as np
import pytest

from modclass import (
    ConsistencyError,
    Ideal,
    ModuleHom,
    all_submodules,
    build_ring,
    corpus_test_modules,
    cyclic_submodule,
    direct_sum,
    free_module,
    generated_module_family,
    identity_hom,
    is_flat_module,
    is_free_module,
    is_projective_module,
    jacobson_radical,
    krull_schmidt,
    primitive_decomposition,
    quotient_module,
    random_recipe_rings,
    regular_module,
    ring_from_tables,
    submodule_as_module,
    zero_module,
)
from modclass import properties
from modclass.modules import _images_of, hom_candidate_blocks, hom_from_images


def split_surjection_search(pi):
    """A section s with pi∘s = id, or None when none exists: the first map
    target -> source, in ascending candidate order, that sends each generator
    of the target to a preimage of itself."""
    source, target = pi.source, pi.target
    if len(np.unique(pi.table)) != target.size:
        raise ValueError("split_surjection_search: map is not surjective")
    g = target.num_generators
    for block in hom_candidate_blocks(target, source):
        for i, gen in enumerate(target.gens):
            block = block[pi.table[(block // source.size**i) % source.size] == gen]
        if len(block):
            return hom_from_images(target, source, _images_of(int(block[0]), g, source.size))
    return None


def flat_by_definition(module, n_max=2, l_max=2):
    """Literal oracle: every relation must factor through an annihilating matrix.

    For each tuple m in M^n and coefficient tuple r with sum(r_i m_i) = 0,
    search exhaustively for H (n x l over the ring) and m' in M^l with
    m_i = sum_j H[i][j] m'_j and sum_i r_i H[i][j] = 0.  Tiny inputs only.
    """
    ring = module.ring

    def factors(r_tuple, m_tuple):
        n = len(r_tuple)
        for l in range(1, l_max + 1):
            for flat_h in itertools.product(range(ring.size), repeat=n * l):
                h = [flat_h[i * l : (i + 1) * l] for i in range(n)]
                if any(
                    _ring_sum(ring, (ring.mul(r_tuple[i], h[i][j]) for i in range(n))) != 0
                    for j in range(l)
                ):
                    continue
                for m_prime in itertools.product(range(module.size), repeat=l):
                    if all(
                        _module_sum(module, (module.act(h[i][j], m_prime[j]) for j in range(l)))
                        == m_tuple[i]
                        for i in range(n)
                    ):
                        return True
        return False

    for n in range(1, n_max + 1):
        for m_tuple in itertools.product(range(module.size), repeat=n):
            for r_tuple in itertools.product(range(ring.size), repeat=n):
                total = _module_sum(
                    module, (module.act(r, m) for r, m in zip(r_tuple, m_tuple))
                )
                if total != 0:
                    continue
                if not factors(r_tuple, m_tuple):
                    return False, (r_tuple, m_tuple)
    return True, None


def _ring_sum(ring, values):
    out = 0
    for v in values:
        out = ring.add(out, v)
    return out


def _module_sum(module, values):
    out = 0
    for v in values:
        out = module.add(out, v)
    return out


class TestFreeness:
    def test_column_module_not_free(self, m2f2):
        p = primitive_decomposition(m2f2).representatives[0]
        verdict = is_free_module(p)
        assert not verdict.value
        assert "not a multiple of 2" in verdict.note

    def test_p_plus_p_is_free(self, m2f2):
        p = primitive_decomposition(m2f2).representatives[0]
        verdict = is_free_module(direct_sum(p, p))
        assert verdict.value and verdict.witness == 1

    def test_zero_module_free_of_rank_zero(self, m2f2):
        verdict = is_free_module(zero_module(m2f2))
        assert verdict.value and verdict.witness == 0

    def test_free_modules_detected_with_rank(self, z6):
        for rank in (1, 2):
            verdict = is_free_module(free_module(z6, rank))
            assert verdict.value and verdict.witness == rank


class TestProjectivity:
    def test_z2_over_z4_not_projective(self, z4):
        reg = regular_module(z4)
        half = quotient_module(reg, [0, 2])
        verdict = is_projective_module(half)
        # The witness of a "no" is the kernel of the projective cover Z/4 -> Z/2.
        assert not verdict.value and verdict.witness == 2

    def test_semisimple_ring_everything_projective(self, z6):
        reg = regular_module(z6)
        for sub in ([0, 3], [0, 2, 4]):
            assert is_projective_module(quotient_module(reg, sub)).value
            assert is_projective_module(submodule_as_module(reg, np.array(sub))).value

    def test_free_modules_projective(self, corpus):
        for spec in ("Z/4", "Z/8", "T(2,GF(2))"):
            assert is_projective_module(free_module(corpus[spec], 2)).value

    def test_section_witness_is_genuine(self, m2f2):
        p = primitive_decomposition(m2f2).representatives[0]
        verdict = is_projective_module(p)
        assert verdict.value
        section = verdict.witness
        assert isinstance(section, ModuleHom)
        assert np.array_equal(p.cls[section.table], np.arange(p.size))

    def test_square_of_product_ring_decided_at_default_caps(self, corpus):
        # The End(M) search on this module has 2^20 candidates, above max_homs;
        # the projective-cover count needs no hom search.
        ring = corpus["GF(2) x M(2,GF(2))"]
        square = direct_sum(regular_module(ring), regular_module(ring))
        verdict = is_projective_module(square)
        assert verdict.value
        section = verdict.witness
        assert isinstance(section, ModuleHom) and section.is_valid()
        assert np.array_equal(square.cls[section.table], np.arange(square.size))
        free = is_free_module(square)
        assert free.value and free.witness == 2

    def test_section_when_the_cover_is_above_max_module(self, corpus):
        # Three generators give a 32^3-element free cover, above max_module;
        # the verdict and its section still come out at default caps.
        ring = corpus["GF(2) x M(2,GF(2))"]
        square = direct_sum(regular_module(ring), regular_module(ring))
        module = submodule_as_module(
            square, np.arange(square.size), generators=[*square.gens, 5]
        )
        assert module.cover_size > 4096
        verdict = is_projective_module(module)
        assert verdict.value
        assert np.array_equal(module.cls[verdict.witness.table], np.arange(module.size))
        assert is_free_module(module).witness == 2


def _signature_verdicts(module):
    """(projective, free rank or None) from Krull-Schmidt signatures."""
    found = dict(krull_schmidt(module).entries)
    regular = dict(krull_schmidt(regular_module(module.ring)).entries)
    if not set(found) <= set(regular):
        return False, None
    ranks = {divmod(found.get(c, 0), r) for c, r in regular.items()}
    if len(ranks) == 1:
        rank, remainder = ranks.pop()
        if not remainder:
            return True, rank
    return True, None


def _oracle_modules(corpus):
    """Rank-1 corpus families, R^2 for corpus rings of at most 16 elements,
    and the regular and test modules of 100 random rings."""
    for ring in corpus.values():
        reg = regular_module(ring)
        for sub in all_submodules(reg):
            yield quotient_module(reg, sub, label=f"{ring.label}/[{len(sub)}]")
        if ring.size <= 16:
            yield direct_sum(reg, reg)
    for ring in random_recipe_rings(100, seed=5):
        yield regular_module(ring)
        yield from corpus_test_modules(ring)


class TestCorpusTestModules:
    def test_modules_sharing_a_table_prefix_are_both_kept(self):
        # P2 (projective) and R/J (not projective) over T(2,GF(4)) both have
        # 16 elements and agree on the first 64 action-table entries.
        ring = build_ring("T(2,GF(4))")
        modules = {m.label: m for m in corpus_test_modules(ring)}
        assert {"P2(T(2,GF(4)))", "T(2,GF(4))/J"} <= set(modules)
        assert is_projective_module(modules["P2(T(2,GF(4)))"]).value
        assert not is_projective_module(modules["T(2,GF(4))/J"]).value


class TestCoverCountOracles:
    def test_count_agrees_with_krull_schmidt_and_section_search(self, corpus):
        mismatches = []
        checked = 0
        for module in _oracle_modules(corpus):
            projective, rank = _signature_verdicts(module)
            cover = free_module(module.ring, module.num_generators)
            sectioned = split_surjection_search(ModuleHom(cover, module, module.cls)) is not None
            by_count = is_projective_module(module)
            free = is_free_module(module)
            checked += 1
            if not (by_count.value == projective == sectioned):
                mismatches.append((module.label, "projective", by_count.value, projective, sectioned))
            if free.value != (rank is not None) or (free.value and free.witness != rank):
                mismatches.append((module.label, "free", free.witness, rank))
        assert checked > 300
        assert not mismatches

    def test_dropped_class_raises(self, monkeypatch, corpus):
        ring = corpus["GF(2) x M(2,GF(2))"]
        real = primitive_decomposition(ring)

        def tampered(ring, cfg=None):
            return dataclasses.replace(
                real,
                classes=real.classes[:-1],
                multiplicities=real.multiplicities[:-1],
                representatives=real.representatives[:-1],
            )

        monkeypatch.setattr(properties, "primitive_decomposition", tampered)
        reg = regular_module(ring)
        small = quotient_module(reg, cyclic_submodule(reg, _least_proper(reg)))
        for module in (reg, small, real.representatives[0]):
            with pytest.raises(ConsistencyError):
                is_projective_module(module)
            with pytest.raises(ConsistencyError):
                is_free_module(module)

    def test_radical_too_small_raises(self, monkeypatch, z4):
        # With J taken as 0, |D| = |eRe| = 4 while e(M/JM) of Z/2 has 2 elements.
        def zero_radical(ring, cfg=None):
            return Ideal(ring=ring, side="two-sided", elements=(0,), generators=())

        monkeypatch.setattr(properties, "jacobson_radical", zero_radical)
        half = quotient_module(regular_module(z4), [0, 2])
        with pytest.raises(ConsistencyError):
            is_projective_module(half)


class TestSplitSurjection:
    def test_no_section_for_z4_to_z2(self, z4):
        reg = regular_module(z4)
        half = quotient_module(reg, [0, 2])
        pi = ModuleHom(reg, half, half.cls.copy())
        assert split_surjection_search(pi) is None

    def test_identity_splits_with_identity(self, z6):
        reg = regular_module(z6)
        section = split_surjection_search(identity_hom(reg))
        assert section is not None
        assert np.array_equal(section.table, np.arange(reg.size))

    def test_regular_onto_column_module_splits(self, m2f2):
        p = primitive_decomposition(m2f2).representatives[0]
        reg = regular_module(m2f2)
        pi = ModuleHom(reg, p, p.cls.copy())
        section = split_surjection_search(pi)
        assert section is not None
        assert np.array_equal(pi.table[section.table], np.arange(p.size))

    def test_non_surjective_rejected(self, z4):
        reg = regular_module(z4)
        doubling = ModuleHom(reg, reg, reg.act_table[2].astype(np.int64))
        with pytest.raises(ValueError):
            split_surjection_search(doubling)


class TestFlatness:
    def test_z2_over_z4_fails_with_witnessed_relation(self, z4):
        reg = regular_module(z4)
        half = quotient_module(reg, [0, 2])
        report = is_flat_module(half)
        assert not report.value and report.exact
        assert report.witness["support_coefficients"] == (2,)
        assert report.projective is False
        assert report.agrees_with_projective

    def test_free_modules_flat(self, corpus):
        for spec in ("Z/6", "M(2,GF(2))", "Z/8"):
            report = is_flat_module(free_module(corpus[spec], 1))
            assert report.value and report.exact

    def test_column_module_flat_at_bound_two(self, m2f2):
        p = primitive_decomposition(m2f2).representatives[0]
        report = is_flat_module(p, relation_length_bound=2)
        assert report.value and report.exact
        assert report.projective and report.agrees_with_projective

    def test_brute_force_oracle_agreement(self, z4, t2f2):
        # Literal existential search over (H, m') against the engine verdict.
        reg4 = regular_module(z4)
        modules = [
            quotient_module(reg4, [0, 2], label="Z/2 over Z/4"),
            reg4,
            zero_module(z4),
        ]
        regt = regular_module(t2f2)
        modules.append(
            submodule_as_module(regt, cyclic_submodule(regt, _least_proper(regt)))
        )
        for module in modules:
            engine = is_flat_module(module, relation_length_bound=2, cross_check=False)
            oracle, witness = flat_by_definition(module, n_max=2, l_max=2)
            assert engine.value == oracle, (module.label, witness)

    def test_bound_one_still_catches_the_z4_witness(self, z4):
        reg = regular_module(z4)
        half = quotient_module(reg, [0, 2])
        report = is_flat_module(half, relation_length_bound=1)
        assert not report.value


    def test_relabeled_field_is_flat_without_inconsistency(self):
        # Z/7 relabeled by the additive automorphism a -> 2a: the identity is 2
        # and x*y = 4xy, since 4 = 1/2 mod 7.  Every module over a field is
        # free, so flatness must hold and agree with projectivity.
        table = [[4 * x * y % 7 for y in range(7)] for x in range(7)]
        ring = ring_from_tables((7,), 2, table, label="Z/7 via a->2a")
        for module in generated_module_family(ring):
            report = is_flat_module(module)
            assert report.value and report.agrees_with_projective, module.label


class TestPropertyChain:
    def test_free_implies_projective_implies_flat(self, corpus):
        for spec in ("Z/4", "Z/6", "Z/8", "T(2,GF(2))", "M(2,GF(2))"):
            ring = corpus[spec]
            reg = regular_module(ring)
            modules = [reg, free_module(ring, 2), zero_module(ring)]
            x = _least_proper(reg)
            if x is not None:
                modules.append(quotient_module(reg, cyclic_submodule(reg, x)))
                modules.append(submodule_as_module(reg, cyclic_submodule(reg, x)))
            for module in modules:
                free = bool(is_free_module(module))
                projective = bool(is_projective_module(module))
                flat = bool(is_flat_module(module, cross_check=False))
                assert (not free) or projective, (spec, module.label)
                assert (not projective) or flat, (spec, module.label)
                assert flat == projective, (spec, module.label)

    def test_radical_quotient_projective_iff_semisimple_block(self, z4, z6):
        # Z/4: R/J = Z/2 is not projective; Z/6: J = 0 so R/J = R is.
        reg4 = regular_module(z4)
        assert not is_projective_module(
            quotient_module(reg4, list(jacobson_radical(z4).elements))
        ).value
        reg6 = regular_module(z6)
        assert is_projective_module(reg6).value

    def test_semisimple_rings_make_every_family_module_projective(self, corpus):
        from modclass import all_submodules

        for spec in ("Z/6", "GF(4)", "M(2,GF(2))"):
            ring = corpus[spec]
            assert len(jacobson_radical(ring)) == 1
            reg = regular_module(ring)
            for sub in all_submodules(reg):
                assert is_projective_module(quotient_module(reg, sub)).value, spec


def _least_proper(reg):
    for x in range(1, reg.size):
        sub = cyclic_submodule(reg, x)
        if 1 < len(sub) < reg.size:
            return x
    return None
