"""Theorem-level verdicts, the matrix family, and meta-checks."""

import copy
import json

import numpy as np
import pytest

from modclass import (
    ClassificationReport,
    DEFAULTS,
    ConsistencyError,
    Verdict,
    build_ring,
    classify_matrix_family,
    classify_ring,
    is_local,
    is_simple_ring,
    jacobson_radical,
    lemma31_check,
    quotient_ring,
    random_recipe_rings,
    run_meta_suite,
    units,
    verify_implication_chain,
)
from modclass import classify as classify_module
from modclass.classify import verdict_holds
from test_golden_outputs import META_KEY, golden, meta_suite_output


class TestClassifyRing:
    def test_m2f2(self, m2f2):
        report = classify_ring(m2f2)
        assert report.k == 1
        assert report.indecomposables == [[4, 2]]
        assert report.categorical
        assert report.frees_elementary
        assert not report.projective_equals_free
        assert not report.is_local and report.r_mod_j_simple
        assert report.property_II == "true" and report.property_IV == "true"

    def test_z6(self, z6):
        report = classify_ring(z6)
        assert report.k == 2
        assert sorted(s for s, _ in report.indecomposables) == [2, 3]
        assert not report.categorical and not report.frees_elementary
        assert report.flats_elementary and report.projectives_elementary
        assert report.property_I == "unknown"

    def test_z4(self, z4):
        report = classify_ring(z4)
        assert report.is_local and report.k == 1
        assert report.indecomposables == [[4, 1]]
        assert report.property_II == report.property_III == report.property_IV == "true"
        assert report.property_I == "implied_true"
        assert report.projective_equals_free

    def test_radical_sizes(self, corpus):
        expected = {"Z/4": 2, "Z/6": 1, "Z/8": 4, "T(2,GF(2))": 2, "M(2,GF(2))": 1}
        for spec, size in expected.items():
            assert classify_ring(corpus[spec]).radical_size == size, spec

    def test_json_round_trip(self, corpus):
        for ring in corpus.values():
            report = classify_ring(ring)
            recovered = ClassificationReport.from_dict(json.loads(json.dumps(report.to_dict())))
            assert recovered == report

    def test_local_unique_indecomposable_is_the_regular_module(self, corpus):
        from modclass import is_isomorphic, primitive_decomposition, regular_module

        for spec, ring in corpus.items():
            report = classify_ring(ring)
            if not (report.is_local and report.k == 1):
                continue
            decomposition = primitive_decomposition(ring)
            assert decomposition.multiplicities == (1,), spec
            assert is_isomorphic(
                decomposition.representatives[0], regular_module(ring)
            ).value, spec


def _quasi_regular(ring):
    """The old route to J: {x : 1 - r*x is a unit for every r}."""
    unit = np.zeros(ring.size, dtype=bool)
    unit[list(units(ring))] = True
    one_minus = ring.sub(ring.one, ring.mul_table)  # (r, x) -> 1 - r*x
    return tuple(int(v) for v in np.flatnonzero(unit[one_minus].all(axis=0)))


class TestVerdictOracles:
    """The (k, r) verdicts against the element-wise predicates, kept as oracles."""

    def test_predicates_agree_with_reports(self, corpus):
        rings = list(corpus.values()) + random_recipe_rings(100, seed=5)
        for ring in rings:
            report = classify_ring(ring)
            radical = jacobson_radical(ring)
            assert radical.elements == _quasi_regular(ring), ring.label
            assert bool(is_local(ring)) == report.is_local, ring.label
            quotient = quotient_ring(ring, radical)
            simple = quotient.size >= 2 and bool(is_simple_ring(quotient))
            assert simple == report.r_mod_j_simple, ring.label

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("called although (k, r) decides the verdict")

    @pytest.mark.parametrize("spec", ["GF(4)", "Z/4", "M(2,GF(2))"])
    def test_simple_verdict_needs_no_quotient(self, corpus, monkeypatch, spec):
        monkeypatch.setattr(classify_module, "is_simple_ring", self._refuse)
        monkeypatch.setattr(classify_module, "quotient_ring", self._refuse)
        assert classify_ring(corpus[spec]).r_mod_j_simple

    @pytest.mark.parametrize("spec", ["GF(4)", "Z/4"])
    def test_local_verdict_needs_no_unit_scan(self, corpus, monkeypatch, spec):
        monkeypatch.setattr(classify_module, "is_local", self._refuse)
        assert classify_ring(corpus[spec]).is_local

    def test_predicate_contradicting_the_decomposition_raises(self, corpus, monkeypatch):
        monkeypatch.setattr(classify_module, "is_local", lambda ring, cfg=None: Verdict(True))
        with pytest.raises(ConsistencyError, match="contradict"):
            classify_ring(corpus["Z/6"])


def _polyquot_cases():
    """Seeded monic polynomials over GF(2), GF(3), GF(5) with at most 256 residues."""
    rng = np.random.default_rng(0)
    cases = []
    for p, max_degree in ((2, 8), (3, 5), (5, 3)):
        for _ in range(7):
            degree = int(rng.integers(1, max_degree + 1))
            cases.append((p, [int(c) for c in rng.integers(0, p, size=degree)] + [1]))
    return cases


class TestPolyQuotOracle:
    """GF(p)[x]/(f) against the factorization f = prod f_i^e_i from sympy.

    By the Chinese remainder theorem the ring is the product of the local
    rings GF(p)[x]/(f_i^e_i): one block per distinct factor, each of size
    p^(e_i deg f_i), with radical of size p^(deg f - sum deg f_i).
    """

    @pytest.mark.parametrize("p, coeffs", _polyquot_cases(), ids=lambda c: str(c).replace(" ", ""))
    def test_blocks_match_factorization(self, p, coeffs):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        factors = sympy.Poly(coeffs[::-1], x, modulus=p).factor_list()[1]
        degree = len(coeffs) - 1
        report = classify_ring(build_ring(f"PolyQuot(GF({p}),[{','.join(map(str, coeffs))}])"))
        assert report.k == len(factors)
        assert report.radical_size == p ** (degree - sum(f.degree() for f, _ in factors))
        expected = sorted([p ** (e * f.degree()), 1] for f, e in factors)
        assert sorted(report.indecomposables) == expected


class TestMatrixFamily:
    def test_finite_q2_matches_direct_classification(self, m2f2):
        family_report, certificate = classify_matrix_family(2, 2)
        direct = classify_ring(m2f2)
        assert family_report.to_dict() == direct.to_dict()
        assert all(claim.status == "verified" for claim in certificate.claims)
        assert certificate.claim("unique_indecomposable").holds
        assert certificate.claim("regular_is_p_power").holds
        assert certificate.claim("p_not_free").holds
        assert certificate.claim("uncountably_categorical").holds
        assert not certificate.claim("frees_not_elementary").holds

    def test_regular_is_p_power_holds_below_the_hom_cap(self):
        # No hom search is needed: the isomorphism comes from the regular
        # module's projective-cover section.
        _, certificate = classify_matrix_family(2, 2, DEFAULTS.with_overrides(max_homs=10))
        claim = certificate.claim("regular_is_p_power")
        assert claim.holds and claim.status == "verified"
        assert claim.witness["explicit_isomorphism_found"] is True

    def test_symbolic_n2_realizes_strictness(self):
        report, certificate = classify_matrix_family(2, "infinite")
        assert report.categorical and not report.frees_elementary
        assert report.property_II == "true"
        assert report.property_III == "false" and report.property_IV == "false"
        assert certificate.claim("p_not_free").holds
        assert certificate.claim("frees_not_elementary").holds
        assert all(claim.status == "certificate" for claim in certificate.claims)
        bridge = certificate.claim("unique_indecomposable").witness["finite_field_bridge"]
        assert [entry["q"] for entry in bridge] == [2, 3, 4, 5, 7, 8, 9]
        assert all(entry["ok"] for entry in bridge)

    def test_symbolic_n1_degenerate(self):
        report, certificate = classify_matrix_family(1, "infinite")
        assert report.frees_elementary and report.projective_equals_free
        assert not certificate.claim("p_not_free").holds
        assert not certificate.claim("frees_not_elementary").holds

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            classify_matrix_family(5, 2)
        with pytest.raises(ValueError):
            classify_matrix_family(2, 11)

    def test_finite_flips_only_the_frees_verdicts(self):
        finite, _ = classify_matrix_family(2, 2)
        symbolic, _ = classify_matrix_family(2, "infinite")
        assert finite.k == symbolic.k == 1
        assert finite.categorical == symbolic.categorical is True
        assert finite.r_mod_j_simple == symbolic.r_mod_j_simple is True
        assert finite.projective_equals_free == symbolic.projective_equals_free is False
        assert finite.frees_elementary and not symbolic.frees_elementary


class TestImplicationChain:
    def test_corpus_and_symbolic_clean(self, corpus):
        reports = [classify_ring(ring) for ring in corpus.values()]
        reports.append(classify_matrix_family(2, "infinite")[0])
        reports.append(classify_matrix_family(1, "infinite")[0])
        meta = verify_implication_chain(reports)
        assert meta.ok, [f.to_dict() for f in meta.findings]

    def test_forged_report_flagged_once(self):
        report, _ = classify_matrix_family(2, "infinite")
        forged = copy.deepcopy(report)
        forged.property_IV = "true"
        forged.property_III = "true"
        forged.property_II = "false"
        forged.categorical = False
        meta = verify_implication_chain([forged])
        assert len(meta.findings) == 1
        assert meta.findings[0].check == "III=>II"

    def test_strictness_only_in_symbolic_entries(self, corpus):
        reports = [classify_ring(ring) for ring in corpus.values()]
        reports.append(classify_matrix_family(2, "infinite")[0])
        strict = [
            r
            for r in reports
            if verdict_holds(r.property_II) and not verdict_holds(r.property_IV)
        ]
        assert len(strict) == 1 and not strict[0].finite

    def test_random_rings_respect_the_chain(self):
        rings = random_recipe_rings(15, seed=7)
        reports = [classify_ring(ring) for ring in rings]
        meta = verify_implication_chain(reports)
        assert meta.ok, [f.to_dict() for f in meta.findings]


class TestLemma31:
    def test_records_the_finite_counterexample(self, corpus):
        reports = [classify_ring(ring) for ring in corpus.values()]
        reports.append(classify_matrix_family(2, "infinite")[0])
        meta = lemma31_check(reports)
        assert meta.ok
        assert any("M(2,GF(2))" in record for record in meta.records)

    def test_symbolic_equivalence_violation_detected(self):
        report, _ = classify_matrix_family(2, "infinite")
        forged = copy.deepcopy(report)
        forged.frees_elementary = True  # break the equivalence on an infinite entry
        meta = lemma31_check([forged])
        assert not meta.ok


class TestSuite:
    def test_meta_suite_sections_clean(self):
        result = run_meta_suite(seeds=(1,))
        assert result.ok, [f.to_dict() for f in result.violations()]
        names = [m.name for m in result.meta]
        assert names == [
            "ring-axioms",
            "implication-chain",
            "frees-vs-projectives",
            "flat-projective",
            "invariant-multiplicativity",
            "decomposition-determinism",
        ]
        assert meta_suite_output(result) == golden()[META_KEY]
