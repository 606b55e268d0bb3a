"""Ring construction, axiom verification, units, and the spec DSL."""

import tracemalloc

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
from modclass.classify import classify_ring
from modclass.decompose import krull_schmidt
from modclass.ideals import _radical, is_local
from modclass.modules import regular_module, verify_module_axioms
from modclass.pp import baur_monk_invariant, library_formulas, library_pairs, pp_subgroup_is_right_ideal
from modclass.properties import is_flat_module, is_free_module, is_projective_module
from modclass.rings import RingAxiomReport, _fill, _witnesses, base_digits, base_index
from helpers import relabeled


def brute_force_units(ring):
    """Oracle: scan all pairs for two-sided inverses."""
    out = set()
    for a in range(ring.size):
        has_right = any(ring.mul(a, b) == ring.one for b in range(ring.size))
        has_left = any(ring.mul(b, a) == ring.one for b in range(ring.size))
        if has_right and has_left:
            out.add(a)
    return out


def bilinear_products(ring, a, b):
    """Oracle: a * b from the generator products alone, digit d of a * b being
    the sum over (i, j) of a_i b_j (e_i e_j)_d."""
    t = len(ring.orders)
    da, db = np.broadcast_arrays(ring.decode(a), ring.decode(b))
    shape = da.shape[:-1]
    coef = (da.reshape(-1, t, 1) * db.reshape(-1, 1, t)).reshape(-1, t * t)
    digits = coef @ ring.decode(ring.gen_products).reshape(t * t, t)
    return ring.encode(digits.reshape(shape + (t,)))


def two_fill_report(ring):
    """Oracle: each law checked over the whole table with N x N masks.  The
    table is compared with the doubling fill of its own generator rows, and
    its transpose with that of its generator columns."""
    gens = ring._gens
    idx = np.arange(ring.size, dtype=np.int64)
    table, add = ring.mul_table, ring.add_table

    def vanishes(x):  # n_i * x[i, b] == 0 for each generator i
        return (ring.decode(x) * ring._orders_arr[:, None, None] % ring._orders_arr == 0).all(axis=-1)

    def fill(gen_rows):
        return _fill(ring, np.zeros(ring.size, dtype=np.int32), gen_rows, lambda rows, s: add[rows, s])

    rows, cols, gp = table[gens], table[:, gens].T, ring.gen_products
    checks = [
        ("right_order", ~vanishes(rows), (gens, idx)),
        ("left_order", ~vanishes(cols).T, (idx, gens)),
        ("right_distributivity", table != fill(rows), (idx, idx)),
        ("left_distributivity", (table.T != fill(cols)).T, (idx, idx)),
        ("associativity", table[gp[:, :, None], gens] != table[gens[:, None, None], gp], (gens, gens, gens)),
        ("identity", (table[ring.one, gens] != gens) | (table[gens, ring.one] != gens), (gens,)),
    ]
    failed = {kind for kind, bad, _ in checks if bad.any()}
    return RingAxiomReport(
        size=ring.size,
        has_identity="identity" not in failed,
        associative="associativity" not in failed,
        left_distributive=not failed & {"left_order", "left_distributivity"},
        right_distributive=not failed & {"right_order", "right_distributivity"},
        checked_triples=len(gens) ** 3,
        failures=[w for kind, bad, labels in checks for w in _witnesses(kind, bad, *labels)],
    )


@pytest.fixture(scope="module")
def m2gf8():
    return build_ring("M(2,GF(8))")


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

    @pytest.mark.parametrize("entry", [6, 2**32 + 1, -1])
    def test_table_entries_outside_the_carrier_rejected(self, entry):
        # Checked on the table as given: an int32 cast would wrap 2^32 + 1 to 1.
        table = (np.arange(6)[:, None] * np.arange(6)[None, :]) % 6
        table[2, 3] = entry
        for given in (table, table.tolist()):
            with pytest.raises(RingValidationError, match=r"^Z6: 'table' must be .* in 0\.\.5$"):
                FiniteRing((6,), 1, "Z6", mul_table=given)
            with pytest.raises(RingValidationError, match=r"^Z6: 'table' must be"):
                ring_from_tables([6], 1, given, label="Z6")

    def test_table_shape_and_identity_checked_with_the_label(self):
        table = (np.arange(6)[:, None] * np.arange(6)[None, :]) % 6
        with pytest.raises(RingValidationError, match=r"^Z6: table shape \(6, 5\) does not match carrier size 6$"):
            FiniteRing((6,), 1, "Z6", mul_table=table[:, :5])
        with pytest.raises(RingValidationError, match="^Z6: identity index 6 out of range"):
            ring_from_tables([6], 6, table, label="Z6")

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
        unchecked = FiniteRing((2, 4), 1, "unchecked", gen_products=[[1, 2], [2, 0]])
        idx = np.arange(8)
        table = unchecked.mul(idx[:, None], idx[None, :])
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

    def test_left_but_not_right_distributive(self):
        # The transpose of the table above: additive in the right argument by
        # construction, but (e_0 + e_1) * e_1 = 1 while e_0 * e_1 + e_1 * e_1 = 2.
        g = (0, 2, 0, 1)
        table = [[(a if b & 1 else 0) ^ (g[a] if b & 2 else 0) for b in range(4)] for a in range(4)]
        ring = FiniteRing((2, 2), 1, "ldist", mul_table=table)
        report = verify_ring_axioms(ring)
        assert report == two_fill_report(ring)
        assert not report.right_distributive
        assert report.left_distributive and report.associative and report.has_identity
        assert ("right_distributivity", 3, 2) in report.failures

    def test_corrupted_generator_row(self, corpus):
        ring = corpus["M(2,GF(3))"]
        table = ring.mul_table.copy()
        e = int(ring._gens[2])
        table[e, 40] = (table[e, 40] + 1) % ring.size
        bad = FiniteRing(ring.orders, ring.one, "bad row", mul_table=table)
        report = verify_ring_axioms(bad)
        assert report == two_fill_report(bad)
        assert not report.right_distributive and not report.left_distributive
        assert ("right_distributivity", e + 1, 40) in report.failures

    def test_corrupted_entry_off_the_generator_rows(self, m2gf8):
        # 4096 elements, t = 12: the one bad entry is found by the pass over
        # the table's own rows, not by the checks on generators.
        table = m2gf8.mul_table.copy()
        assert 3000 not in m2gf8._gens and 1234 not in m2gf8._gens
        table[3000, 1234] ^= 1
        bad = FiniteRing(m2gf8.orders, m2gf8.one, "bad entry", mul_table=table)
        report = verify_ring_axioms(bad)
        assert report == two_fill_report(bad)
        assert not report.right_distributive and not report.left_distributive
        assert ("right_distributivity", 3000, 1234) in report.failures

    def test_reports_match_two_fill_oracle(self, corpus):
        # Seeded corruptions: single entries, entries of a generator row or
        # column, and relabeled carriers; every report, witnesses and their
        # order included, is the oracle's.
        rng = np.random.default_rng(22)
        rings = list(corpus.values()) + [build_ring("Z/2 x M(2,Z/4)")]
        rejected = 0
        for ring in rings:
            n, gens = ring.size, ring._gens
            tables = [(ring.mul_table, ring.one)]
            for k in range(12):
                table = ring.mul_table.copy()
                a, b = rng.integers(n, size=2)
                if k % 3 == 1:
                    a = rng.choice(gens)
                elif k % 3 == 2:
                    b = rng.choice(gens)
                table[a, b] = (table[a, b] + rng.integers(1, n)) % n
                tables.append((table, ring.one))
            tables += [relabeled(ring, rng) for _ in range(3)]
            for table, one in tables:
                candidate = FiniteRing(ring.orders, one, "candidate", mul_table=table)
                report = verify_ring_axioms(candidate)
                assert report == two_fill_report(candidate), (ring.label, report.summary())
                rejected += not report.ok
        assert rejected >= 12 * len(rings)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            cyclic_ring(5000, cfg=EngineConfig(max_ring=4096))


def traced_peak_mb(call):
    """call() and the peak of the memory it allocates, in MB."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Validation, the radical and the unit checks run in row blocks: at the
    4096-element cap none allocates an N x N temporary (64 MB as int32)."""

    LIMIT_MB = 16

    @pytest.mark.parametrize("spec, unit_count", [("Z/4096", 2048), ("M(2,GF(8))", 63 * 56)])
    def test_below_one_table_above_the_tables(self, spec, unit_count, m2gf8):
        ring = m2gf8 if spec == "M(2,GF(8))" else build_ring(spec)
        ring._units = None
        calls = {
            "verify_ring_axioms": lambda: verify_ring_axioms(ring),
            "_radical": lambda: _radical(ring),
            "units": lambda: units(ring),
            "is_local": lambda: is_local(ring),
        }
        results, peaks = {}, {}
        for name, call in calls.items():
            results[name], peaks[name] = traced_peak_mb(call)
        assert results["verify_ring_axioms"].ok
        assert len(results["units"]) == unit_count
        assert bool(results["is_local"]) == (spec == "Z/4096")
        assert all(mb < self.LIMIT_MB for mb in peaks.values()), peaks

    @pytest.mark.parametrize("spec", ["M(2,GF(8))", "PolyQuot(GF(2),[1,0,0,1,0,0,0,0,0,0,0,0,1])"])
    def test_order_laws_without_a_digit_cube(self, spec, m2gf8):
        # t = 12: the order laws read the additive order of each entry, not
        # the (t, N, t) digits of all generator rows (4.7 MB here).
        ring = m2gf8 if spec == "M(2,GF(8))" else build_ring(spec)
        report, mb = traced_peak_mb(lambda: verify_ring_axioms(ring))
        assert report.ok
        assert mb < 4, mb

    def test_regular_module_axioms_in_row_blocks(self):
        # The module's own rows are checked in blocks, not against a
        # |R| x |M| doubling fill.
        module = regular_module(build_ring("Z/4096"))
        module.act_table, module._add_op()  # what the check reads, built before tracing
        ok, mb = traced_peak_mb(lambda: verify_module_axioms(module))
        assert ok
        assert mb < self.LIMIT_MB, mb


class TestOneRingAddition:
    """A ring whose additive group is a 2-group adds by lanes everywhere: its
    construction, classification and the regular module's free, projective,
    flat, Krull-Schmidt and pp checks never build its addition table."""

    @pytest.mark.parametrize("spec, sizes", [("Z/2048", ((2048, 1),)), ("M(2,GF(8))", ((64, 2),))])
    def test_two_groups_build_no_addition_table(self, spec, sizes):
        ring = build_ring(spec)
        assert classify_ring(ring).finite
        reg = regular_module(ring)
        assert is_free_module(reg) and is_projective_module(reg) and is_flat_module(reg)
        assert krull_schmidt(reg).sizes() == sizes
        for phi in library_formulas(ring).values():
            if phi.free == 1:
                assert pp_subgroup_is_right_ideal(ring, phi), phi.name
        for phi, psi in library_pairs(ring):
            baur_monk_invariant(reg, phi, psi)
        assert ring._add_table is None


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

    @pytest.mark.parametrize("base, n", [(1, 0), (1, 3), (2, 0), (2, 5), (3, 4), (7, 2), (64, 2)])
    def test_base_digits_round_trip(self, base, n):
        w = np.arange(base**n)
        digits = base_digits(w, base, n)
        assert digits.shape == (len(w), n)
        assert digits.tolist() == [[(int(x) // base**i) % base for i in range(n)] for x in w]
        assert np.array_equal(base_index(digits, base), w)
        # Leading axes are kept: the digits go along a new last axis.
        assert np.array_equal(base_digits(w[:, None], base, n)[:, 0], digits)

    def test_zero_is_index_zero(self, corpus):
        for ring in corpus.values():
            assert ring.add(0, 0) == 0
            assert ring.mul(0, ring.one) == 0


class TestStructConstMode:
    """Every table is filled from the structure constants (generator products)."""

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
        # Fill oracle: the doubling fill agrees with the bilinear evaluation
        # of every product from the generator products alone.
        ring = build_ring(spec)
        idx = np.arange(ring.size)
        assert np.array_equal(ring.mul_table, bilinear_products(ring, idx[:, None], idx[None, :]))

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
