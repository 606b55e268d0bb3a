"""Ring construction, axiom verification, units, and the spec DSL."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modclass import (
    EngineConfig,
    FiniteRing,
    RingSpecError,
    RingValidationError,
    SizeCapError,
    build_ring,
    cyclic_ring,
    galois_field,
    matrix_ring,
    matrix_units,
    product_ring,
    ring_from_tables,
    struct_const_from_dict,
    units,
    verify_ring_axioms,
)


def brute_force_units(ring):
    """Oracle: scan all pairs for two-sided inverses."""
    out = set()
    for a in range(ring.size):
        has_right = any(ring.mul(a, b) == ring.one for b in range(ring.size))
        has_left = any(ring.mul(b, a) == ring.one for b in range(ring.size))
        if has_right and has_left:
            out.add(a)
    return out


class TestConstructions:
    @pytest.mark.parametrize(
        "spec, size",
        [
            ("Z/6", 6),
            ("M(2,GF(2))", 16),
            ("GF(4)", 4),
            ("T(2,GF(2))", 8),
            ("GF(2) x M(2,GF(2))", 32),
            ("PolyQuot(GF(2),[0,0,1])", 4),
            ("M(2,GF(3))", 81),
            ("Z/4 x Z/6", 24),
        ],
    )
    def test_sizes(self, spec, size):
        assert build_ring(spec).size == size

    def test_axioms_pass_on_corpus(self, corpus):
        for spec, ring in corpus.items():
            report = verify_ring_axioms(ring)
            assert report.ok, (spec, report.summary())

    def test_gf4_is_a_field(self, gf4):
        assert gf4.is_commutative
        assert units(gf4) == frozenset({1, 2, 3})

    def test_nilpotent_generator_of_poly_quotient(self):
        ring = build_ring("PolyQuot(GF(2),[0,0,1])")
        x = 2  # the class of the indeterminate
        assert ring.mul(x, x) == 0
        assert ring.mul(x, ring.one) == x

    def test_corrupted_table_detected(self):
        table = (np.arange(6)[:, None] * np.arange(6)[None, :]) % 6
        ring_from_tables([6], 1, table)  # sanity: the honest table passes
        bad = table.copy()
        bad[2, 3] = 5
        with pytest.raises(RingValidationError) as err:
            ring_from_tables([6], 1, bad)
        assert err.value.report is not None
        assert not err.value.report.ok

    def test_corrupted_entry_at_4096_detected(self):
        idx = np.arange(4096, dtype=np.int32)
        table = (idx[:, None] * idx[None, :]) % 4096
        table[1234, 2345] = (table[1234, 2345] + 1) % 4096
        with pytest.raises(RingValidationError) as err:
            ring_from_tables([4096], 1, table)
        report = err.value.report
        assert not report.right_distributive and not report.left_distributive
        assert ("right_distributivity", 1234, 2345) in report.failures

    def test_non_associative_biadditive_table(self):
        # A 512-element GF(2)-algebra with identity e_0 and random products of
        # the other generators: biadditive and order-compatible, not associative.
        t = 9
        gens = 1 << np.arange(t)
        gp = np.random.default_rng(0).integers(0, 2**t, size=(t, t))
        gp[0, :] = gens
        gp[:, 0] = gens
        bits = (np.arange(2**t)[:, None] >> np.arange(t)) & 1
        gp_bits = (gp[..., None] >> np.arange(t)) & 1
        table = (np.einsum("ai,bj,ijd->abd", bits, bits, gp_bits) % 2) @ gens
        report = verify_ring_axioms(FiniteRing((2,) * t, 1, "nonassoc", mul_table=table))
        assert report.has_identity and report.left_distributive and report.right_distributive
        assert not report.associative
        triples = [f[1:] for f in report.failures if f[0] == "associativity"]
        assert triples and all(set(abc) <= set(gens.tolist()) for abc in triples)
        assert report.checked_triples == t**3

    def test_order_incompatible_table_rejected(self):
        # Z/2 x Z/4 with e_0 claimed as the identity: 2 * (e_0 * e_1) = 2 e_1 != 0.
        lean = FiniteRing((2, 4), 1, "lean", gen_products=[[1, 2], [2, 0]])
        idx = np.arange(8)
        table = lean.mul(idx[:, None], idx[None, :])
        with pytest.raises(RingValidationError) as err:
            ring_from_tables([2, 4], 1, table)
        report = err.value.report
        assert not report.right_distributive and not report.left_distributive
        kinds = {f[0] for f in report.failures}
        assert {"right_order", "left_order"} <= kinds
        assert ("right_order", 1, 2) in report.failures

    def test_right_but_not_left_distributive(self):
        # Orders (2, 2), e_0 = 1 the identity, row of e_1 the map g: additive
        # in the left argument by construction, but e_1 * (e_0 + e_1) = 1
        # while e_1 * e_0 + e_1 * e_1 = 2.
        g = (0, 2, 0, 1)
        table = [[(b if a & 1 else 0) ^ (g[b] if a & 2 else 0) for b in range(4)] for a in range(4)]
        report = verify_ring_axioms(FiniteRing((2, 2), 1, "rdist", mul_table=table))
        assert not report.left_distributive
        assert report.right_distributive and report.associative and report.has_identity
        assert ("left_distributivity", 2, 3) in report.failures

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            cyclic_ring(5000, cfg=EngineConfig(max_ring=4096))


class TestUnits:
    def test_z4(self, z4):
        assert units(z4) == frozenset({1, 3})

    def test_matrix_ring_unit_count(self):
        # invertible 2x2 matrices over GF(q): (q^2 - 1)(q^2 - q)
        for q in (2, 3):
            ring = matrix_ring(2, galois_field(q))
            assert len(units(ring)) == (q * q - 1) * (q * q - q)

    def test_brute_force_agreement(self, corpus):
        for spec in ("Z/4", "Z/6", "GF(4)", "T(2,GF(2))", "M(2,GF(2))"):
            ring = corpus[spec]
            assert units(ring) == frozenset(brute_force_units(ring)), spec

    def test_product_units_factor(self):
        a, b = cyclic_ring(4), cyclic_ring(6)
        prod = product_ring(a, b)
        expected = {x + a.size * y for x in units(a) for y in units(b)}
        assert units(prod) == frozenset(expected)

    def test_galois_fields_have_all_nonzero_units(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
            assert len(units(galois_field(q))) == q - 1

    def test_one_sided_inverses_are_two_sided(self, corpus):
        # Checked rather than assumed: both one-sided invertible sets coincide.
        for spec, ring in corpus.items():
            hits = ring.mul_table == ring.one
            right_invertible = set(np.nonzero(hits.any(axis=1))[0])
            left_invertible = set(np.nonzero(hits.any(axis=0))[0])
            assert right_invertible == left_invertible == set(units(ring)), spec


class TestEncoding:
    @given(st.sampled_from(["Z/6", "GF(4)", "T(2,GF(2))", "M(2,GF(2))", "Z/4 x Z/6"]))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip(self, spec):
        ring = build_ring(spec)
        idx = np.arange(ring.size)
        assert np.array_equal(ring.encode(ring.decode(idx)), idx)

    def test_zero_is_index_zero(self, corpus):
        for ring in corpus.values():
            assert ring.add(0, 0) == 0
            assert ring.mul(0, ring.one) == 0


class TestStructConstMode:
    """Rings above the table cap evaluate products from generator products."""

    @pytest.mark.parametrize(
        "spec",
        [
            "M(2,GF(3))",
            "Z/12",
            "GF(9)",
            "GF(16)",
            "T(2,GF(4))",
            "Z/4 x GF(4)",
            "PolyQuot(GF(2),[1,1,0,1])",
            "PolyQuot(Z/4,[2,0,1])",
            "PolyQuot(GF(4),[2,1,1])",
        ],
    )
    def test_lean_agrees_with_table_mode(self, spec):
        tabled = build_ring(spec)
        lean = build_ring(spec, cfg=EngineConfig(mul_table_cap=tabled.size - 1))
        assert lean.mul_table is None
        idx = np.arange(tabled.size)
        assert np.array_equal(lean.mul(idx[:, None], idx[None, :]), tabled.mul_table)

    def test_big_cyclic(self):
        ring = cyclic_ring(10_000, cfg=EngineConfig(max_ring=100_000))
        assert ring.mul_table is None
        assert ring.mul(123, 456) == (123 * 456) % 10_000
        assert ring.add(9_999, 2) == 1
        report = verify_ring_axioms(ring)
        assert report.ok and report.checked_triples == 1

    def test_matrix_units_multiply(self):
        scalars = galois_field(2)
        ring = matrix_ring(2, scalars)
        e = matrix_units(2, scalars)
        assert ring.mul(e[(0, 0)], e[(0, 1)]) == e[(0, 1)]
        assert ring.mul(e[(0, 1)], e[(1, 0)]) == e[(0, 0)]
        assert ring.mul(e[(0, 1)], e[(0, 1)]) == 0
        assert ring.add(e[(0, 0)], e[(1, 1)]) == ring.one


class TestDsl:
    @pytest.mark.parametrize(
        "bad",
        ["Z/0", "", "GF(6)", "GF(512)", "M(0,GF(2))", "Z/", "Frob(3)",
         "Z/4 extra", "PolyQuot(GF(2),[0,1,0])", "StructConst(/does/not/exist.json)",
         "Z/4)", "M(2,)"],
    )
    def test_rejects(self, bad):
        with pytest.raises(RingSpecError):
            build_ring(bad)

    def test_struct_const_file_roundtrip(self, tmp_path, z6):
        path = tmp_path / "ring.json"
        path.write_text(
            __import__("json").dumps(
                {"orders": [6], "one": 1, "table": z6.mul_table.tolist()}
            )
        )
        ring = build_ring(f"StructConst({path})")
        assert ring.size == 6
        assert np.array_equal(ring.mul_table, z6.mul_table)

    def test_struct_const_dict_missing_keys(self):
        with pytest.raises(RingSpecError):
            struct_const_from_dict({"orders": [2]})

    def test_parenthesized_product(self):
        ring = build_ring("(Z/2 x Z/3) x GF(4)")
        assert ring.size == 24
