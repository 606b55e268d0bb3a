"""Ideals, the Jacobson radical, quotient rings, and ring predicates."""

import math
import re

import numpy as np
import pytest

from modclass import (
    ConsistencyError,
    FiniteRing,
    SideError,
    all_submodules,
    build_ring,
    chain_conditions,
    galois_field,
    ideal_generated,
    idempotents,
    is_local,
    is_simple_ring,
    jacobson_radical,
    matrix_units,
    one_sided_ideals,
    quotient_ring,
    radical_nilpotency_degree,
    random_recipe_rings,
    regular_module,
    units,
)
from modclass.rings import unit_mask
from helpers import all_hold


def maximal_ideals(ring, side):
    """Maximal proper ideals of the given side, from the full lattice."""
    proper = [i for i in one_sided_ideals(ring, side) if len(i) < ring.size]
    return [i for i in proper if not any(len(j) > len(i) and set(i) < set(j) for j in proper)]


def e12_of_t2f2():
    return matrix_units(2, galois_field(2), upper_only=True)[(0, 1)]


def naive_ideal(ring, side, gens):
    """Fixed point of S -> S u (S + S) u R*S (left) and/or S*R (right), from {0}
    and the generators."""
    members = np.unique(np.array([0, *gens], dtype=np.int64))
    mul = ring.mul_table
    while True:
        parts = [members, np.ravel(ring.add(members[:, None], members[None, :]))]
        if side in ("left", "two-sided"):
            parts.append(mul[:, members].ravel())
        if side in ("right", "two-sided"):
            parts.append(mul[members, :].ravel())
        grown = np.unique(np.concatenate(parts))
        if len(grown) == len(members):
            return grown
        members = grown


def check_against_naive(ring, gen_sets):
    for side in ("left", "right", "two-sided"):
        for gens in gen_sets:
            expected = tuple(int(v) for v in naive_ideal(ring, side, gens))
            assert ideal_generated(ring, side, gens).elements == expected, (ring.label, side, gens)


class TestIdealGenerated:
    def test_matches_naive_fixed_point(self, corpus):
        rng = np.random.default_rng(0)
        for ring in corpus.values():
            gen_sets = [[x] for x in range(ring.size)]
            gen_sets += [rng.integers(0, ring.size, k).tolist() for k in (2, 2, 3)]
            if ring.size <= 16:
                gen_sets += [[x, y] for x in range(1, ring.size) for y in range(x + 1, ring.size)]
            check_against_naive(ring, gen_sets)

    def test_random_rings_match_naive_fixed_point(self):
        rng = np.random.default_rng(5)
        for ring in random_recipe_rings(100, seed=5):
            gen_sets = [[x] for x in range(ring.size)]
            gen_sets += [rng.integers(0, ring.size, 2).tolist() for _ in range(4)]
            check_against_naive(ring, gen_sets)

    def test_left_ideal_lattice_is_the_regular_submodule_lattice(self, corpus):
        rings = [r for r in corpus.values() if r.size <= 64] + random_recipe_rings(100, seed=5)
        for ring in rings:
            submodules = [tuple(int(v) for v in s) for s in all_submodules(regular_module(ring))]
            assert one_sided_ideals(ring, "left") == submodules, ring.label

    def test_z6_two(self, z6):
        assert ideal_generated(z6, "two-sided", [2]).elements == (0, 2, 4)

    def test_matrix_ring_is_simple_from_e11(self, m2f2):
        e11 = matrix_units(2, galois_field(2))[(0, 0)]
        assert len(ideal_generated(m2f2, "two-sided", [e11])) == 16

    def test_triangular_nilpotent_corner(self, t2f2):
        e12 = e12_of_t2f2()
        ideal = ideal_generated(t2f2, "two-sided", [e12])
        assert ideal.elements == (0, e12)

    def test_empty_generators_give_zero_ideal(self, z6):
        assert ideal_generated(z6, "left", []).elements == (0,)

    def test_one_sided_differ_in_triangular(self, t2f2):
        e11 = matrix_units(2, galois_field(2), upper_only=True)[(0, 0)]
        left = ideal_generated(t2f2, "left", [e11])
        right = ideal_generated(t2f2, "right", [e11])
        assert left.elements != right.elements


class TestRadical:
    def test_examples(self, z4, z6, t2f2):
        assert jacobson_radical(z4).elements == (0, 2)
        assert jacobson_radical(z6).elements == (0,)
        assert jacobson_radical(t2f2).elements == (0, e12_of_t2f2())

    def test_matches_maximal_left_ideal_intersection(self, corpus):
        # Independent oracle: J = intersection of all maximal left ideals.
        for spec, ring in corpus.items():
            if ring.size > 64:
                continue
            radical = set(jacobson_radical(ring).elements)
            intersection = set(range(ring.size))
            for maximal in maximal_ideals(ring, "left"):
                intersection &= set(maximal)
            assert radical == intersection, spec

    def test_nilpotency_bound(self, corpus):
        for spec, ring in corpus.items():
            radical = jacobson_radical(ring)
            degree = radical_nilpotency_degree(ring, radical)
            assert degree <= math.log2(ring.size) + 1, spec

    def test_quotient_by_radical_is_semisimple(self, corpus):
        for spec, ring in corpus.items():
            radical = jacobson_radical(ring)
            quotient = quotient_ring(ring, radical)
            assert jacobson_radical(quotient).elements == (0,), spec


    def test_corrupt_table_rejected(self):
        # a = 1 and b = 2 are nilpotent with R*a and R*b nil, but a + b = 1:
        # the table is not distributive, and the nil set is not a subgroup.
        table = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2], [0, 1, 2, 3]]
        corrupt = FiniteRing((2, 2), one=3, label="corrupt", mul_table=table)
        with pytest.raises(ConsistencyError, match="not closed under addition"):
            jacobson_radical(corrupt)

    @pytest.mark.parametrize("n", [4, 1024])
    @pytest.mark.parametrize("what", ["addition", "left multiples", "right multiples"])
    def test_nil_set_not_an_ideal_rejected(self, n, what):
        # 1 is idempotent, every other x has x^2 = 0.  With 1 * 1 = 1 alone the
        # nil set is all but 1, and 2 + (n - 1) = 1.  With 1 * b = 1 for odd b
        # it is the even elements, and one entry 3, which is nilpotent but odd,
        # makes a left or a right multiple leave it.  At n = 1024 every check
        # runs over several row blocks, and the entry sits in the last one.
        table = np.zeros((n, n), dtype=np.int64)
        table[1, 1 if what == "addition" else slice(1, None, 2)] = 1
        if what == "left multiples":
            table[n - 1, 2] = 3
        if what == "right multiples":
            table[n - 2, 3] = 3
        corrupt = FiniteRing((n,), one=1, label=f"corrupt{n}", mul_table=table)
        message = f"jacobson_radical(corrupt{n}): nil left-ideal set not closed under {what}"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            jacobson_radical(corrupt)


class TestQuotientRing:
    def test_z4_mod_radical_is_f2(self, z4):
        quotient = quotient_ring(z4, jacobson_radical(z4))
        assert quotient.size == 2
        assert units(quotient) == frozenset({quotient.one})
        assert is_simple_ring(quotient).value

    def test_t2f2_mod_radical_has_two_nontrivial_idempotents(self, t2f2):
        quotient = quotient_ring(t2f2, jacobson_radical(t2f2))
        assert quotient.size == 4
        assert len(idempotents(quotient)) == 4

    def test_zero_ideal_returns_same_ring(self, z6):
        zero = ideal_generated(z6, "two-sided", [])
        assert quotient_ring(z6, zero) is z6

    def test_quotient_by_whole_ring(self, z4):
        whole = ideal_generated(z4, "two-sided", [1])
        assert quotient_ring(z4, whole).size == 1

    def test_one_sided_ideal_rejected(self, t2f2):
        e11 = matrix_units(2, galois_field(2), upper_only=True)[(0, 0)]
        left = ideal_generated(t2f2, "left", [e11])
        with pytest.raises(SideError):
            quotient_ring(t2f2, left)

    def test_sizes_multiply(self, corpus):
        for ring in corpus.values():
            if ring.size > 64:
                continue
            for elements in one_sided_ideals(ring, "right"):
                ideal = ideal_generated(ring, "two-sided", list(elements))
                if len(ideal) != len(elements):
                    continue  # right ideal that is not two-sided
                quotient = quotient_ring(ring, ideal)
                assert quotient.size * len(ideal) == ring.size

    def test_every_quotient_passes_the_axioms(self):
        # mixed additive orders and noncommutativity stress the re-presentation
        from modclass import build_ring, verify_ring_axioms

        for spec in ("Z/4 x Z/6", "T(2,GF(2))", "PolyQuot(Z/4,[2,0,1])"):
            ring = build_ring(spec)
            for elements in one_sided_ideals(ring, "right"):
                ideal = ideal_generated(ring, "two-sided", list(elements))
                if len(ideal) != len(elements):
                    continue
                quotient = quotient_ring(ring, ideal)
                assert quotient.size * len(ideal) == ring.size, spec
                assert verify_ring_axioms(quotient).ok, spec


class TestPredicates:
    def test_is_local(self, z4, z6, gf4):
        assert is_local(z4).value
        assert len(is_local(z4).witness) == 2
        verdict = is_local(z6)
        assert not verdict.value
        a, b = verdict.witness
        assert (a + b) % 6 in units(z6)
        assert is_local(gf4).value

    def test_is_local_witness_is_the_first_bad_pair(self):
        # 1,536 non-units: their sums are checked in row blocks, and the
        # witness is still the first pair in row-major order.
        ring = build_ring("GF(2) x Z/1024")
        unit = unit_mask(ring)
        nonunits = np.flatnonzero(~unit)
        i, j = np.argwhere(unit[ring.add_table[np.ix_(nonunits, nonunits)]])[0]
        verdict = is_local(ring)
        assert not verdict
        assert verdict.witness == (nonunits[i], nonunits[j])

    def test_is_simple(self, m2f2, z6):
        assert is_simple_ring(m2f2).value
        verdict = is_simple_ring(z6)
        assert not verdict.value
        assert verdict.witness.elements in ((0, 3), (0, 2, 4))

    def test_chain_conditions_z6(self, z6):
        report = chain_conditions(z6)
        assert all_hold(report)
        assert report.right_ideal_count == 4
        assert sorted(report.right_ideal_lattice, key=len) == [
            (0,),
            (0, 3),
            (0, 2, 4),
            (0, 1, 2, 3, 4, 5),
        ]

    def test_chain_conditions_z8_chain_length(self, z8):
        report = chain_conditions(z8)
        assert report.longest_chain == 4  # {0} < (4) < (2) < R

    def test_chain_conditions_above_cap_keep_rationale(self, corpus):
        ring = corpus["M(2,GF(3))"]
        report = chain_conditions(ring)
        assert all_hold(report)
        assert report.right_ideal_count is None
        assert "finite" in report.rationale

    def test_local_iff_quotient_is_division_ring(self, corpus):
        # is_local(R) <=> R/J has exactly the trivial idempotents and all
        # nonzero elements invertible.
        for spec, ring in corpus.items():
            radical = jacobson_radical(ring)
            quotient = quotient_ring(ring, radical)
            division_like = (
                set(idempotents(quotient)) == {0, quotient.one}
                and len(units(quotient)) == quotient.size - 1
            )
            assert bool(is_local(ring)) == division_like, spec
