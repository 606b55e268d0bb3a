"""pp-formula evaluation, definable subgroups, and index invariants."""

import numpy as np
import pytest

from modclass import (
    PPFormula,
    baur_monk_invariant,
    build_ring,
    direct_sum,
    library_formulas,
    library_pairs,
    pp_evaluate,
    pp_subgroup_is_right_ideal,
    quotient_module,
    regular_module,
    scalar_formula,
)


@pytest.fixture(scope="module")
def reg_z4(z4):
    return regular_module(z4)


class TestEvaluate:
    def test_divisibility_on_z4(self, z4, reg_z4):
        phi = scalar_formula(z4, 1, 1, [[1, -2]], name="div2")
        assert pp_evaluate(reg_z4, phi).tolist() == [0, 2]

    def test_tautology_and_zero(self, z4, reg_z4):
        assert len(pp_evaluate(reg_z4, scalar_formula(z4, 1, 0, []))) == 4
        assert pp_evaluate(reg_z4, scalar_formula(z4, 1, 0, [[1]])).tolist() == [0]

    def test_two_free_variables(self, z4, reg_z4):
        # x1 = x2 defines the diagonal subgroup of M^2
        phi = scalar_formula(z4, 2, 0, [[1, -1]], name="diag")
        sols = pp_evaluate(reg_z4, phi)
        assert len(sols) == 4
        assert all(s % 4 == s // 4 for s in sols)

    def test_blocked_evaluation_matches_one_shot(self):
        # x1 = 2z, x2 = 6z over Z/64: 64^3 witness tuples span four blocks.
        ring = build_ring("Z/64")
        module = regular_module(ring)
        phi = scalar_formula(ring, 2, 1, [[1, 0, -2], [0, 1, -6]])
        m = module.size
        w = np.arange(m**3)
        ok = np.ones(m**3, dtype=bool)
        for row in phi.equations:
            acc = np.zeros(m**3, dtype=np.int64)
            for j, coeff in enumerate(row):
                acc = module.add(acc, module.act_table[int(coeff), (w // m**j) % m])
            ok &= acc == 0
        expected = np.unique(w[ok] % m**2)
        assert len(expected) == 32
        assert pp_evaluate(module, phi).tolist() == expected.tolist()

    def test_monotone_under_extra_equations(self, z6):
        reg = regular_module(z6)
        base = scalar_formula(z6, 1, 1, [[1, -2]])
        tighter = scalar_formula(z6, 1, 1, [[1, -2], [3, 0]])
        assert set(pp_evaluate(reg, tighter)) <= set(pp_evaluate(reg, base))

    def test_solution_sets_are_subgroups(self, corpus):
        for spec in ("Z/4", "Z/6", "Z/12", "T(2,GF(2))"):
            ring = corpus[spec]
            reg = regular_module(ring)
            for phi in library_formulas(ring).values():
                sols = pp_evaluate(reg, phi)  # raises on closure failure
                assert sols[0] == 0


class TestRightIdeal:
    def test_div2_on_z4(self, z4):
        phi = scalar_formula(z4, 1, 1, [[1, -2]])
        verdict = pp_subgroup_is_right_ideal(z4, phi)
        assert verdict.value and verdict.witness == (2,)

    def test_e11_image_on_m2f2(self, m2f2):
        e11 = 1
        phi = PPFormula(free=1, bound=1, equations=((m2f2.one, int(m2f2.neg(e11))),))
        verdict = pp_subgroup_is_right_ideal(m2f2, phi)
        assert verdict.value
        sols = pp_evaluate(regular_module(m2f2), phi)
        assert len(sols) == 4

    def test_zero_formula(self, z4):
        verdict = pp_subgroup_is_right_ideal(z4, scalar_formula(z4, 1, 0, [[1]]))
        assert verdict.value and verdict.witness == ()

    def test_library_solutions_are_right_ideals_on_regular(self, corpus):
        for spec in ("Z/4", "Z/6", "T(2,GF(2))", "M(2,GF(2))"):
            ring = corpus[spec]
            for phi in library_formulas(ring).values():
                assert pp_subgroup_is_right_ideal(ring, phi).value, (spec, phi.name)


class TestInvariant:
    def test_z4_examples(self, z4, reg_z4):
        phi = scalar_formula(z4, 1, 1, [[1, -2]])
        psi = scalar_formula(z4, 1, 0, [[1]])
        assert baur_monk_invariant(reg_z4, phi, psi).index == 2
        doubled = direct_sum(reg_z4, reg_z4)
        assert baur_monk_invariant(doubled, phi, psi).index == 4
        assert baur_monk_invariant(reg_z4, phi, phi).index == 1

    def test_multiplicativity_over_library(self, corpus):
        for spec in ("Z/4", "Z/6", "GF(4)"):
            ring = corpus[spec]
            reg = regular_module(ring)
            mods = [reg]
            if spec == "Z/4":
                mods.append(quotient_module(reg, [0, 2]))
            pairs = library_pairs(ring)
            assert len(pairs) >= 10
            for a in mods:
                for b in mods:
                    summed = direct_sum(a, b)
                    for phi, psi in pairs:
                        left = baur_monk_invariant(summed, phi, psi).index
                        right = (
                            baur_monk_invariant(a, phi, psi).index
                            * baur_monk_invariant(b, phi, psi).index
                        )
                        assert left == right, (spec, phi.name, psi.name)


class TestSerialization:
    def test_round_trip(self):
        phi = PPFormula(free=1, bound=2, equations=((1, 2, 3), (0, 1, 0)), name="x")
        data = phi.to_json_dict()
        back = PPFormula.from_json_dict(data)
        assert back.free == phi.free and back.bound == phi.bound
        assert back.equations == phi.equations

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            PPFormula(free=1, bound=1, equations=((1,),))

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            PPFormula.from_json_dict({"free": 1, "eqs": []})
