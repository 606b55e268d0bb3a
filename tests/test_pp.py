"""pp-formula evaluation, definable subgroups, and index invariants."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from modclass import (
    BUILTIN_CORPUS_SPECS,
    DEFAULTS,
    ConsistencyError,
    PPFormula,
    SizeCapError,
    baur_monk_invariant,
    build_ring,
    corpus_test_modules,
    direct_sum,
    library_formulas,
    library_pairs,
    pp_evaluate,
    pp_subgroup_is_right_ideal,
    quotient_module,
    regular_module,
    scalar_formula,
)
from modclass import pp as pp_module
from modclass.modules import solution_blocks
from modclass.pp import _check_subgroup, _eliminate, _solution_mask
from modclass.rings import base_index, units
from helpers import formula_to_json, scalar_mul


@pytest.fixture(scope="module")
def reg_z4(z4):
    return regular_module(z4)


def enumerated_mask(module, phi):
    """Oracle: every tuple of M^(free+bound) scanned, solutions projected
    onto their free coordinates."""
    rows = np.array(phi.equations, dtype=np.int64).reshape(len(phi.equations), phi.free + phi.bound)
    mask = np.zeros(module.size**phi.free, dtype=bool)
    for block in solution_blocks(module, rows, DEFAULTS, "oracle witness space"):
        mask[base_index(block[: phi.free].T, module.size)] = True
    return mask


def sweep_specs():
    """The ring specs of the module-sweep benchmark workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.SWEEP_SMALL_SPECS + workloads.SWEEP_LARGE_SPECS


class TestEvaluate:
    def test_divisibility_on_z4(self, z4, reg_z4):
        phi = scalar_formula(z4, 1, 1, [[1, -2]], name="div2")
        assert pp_evaluate(reg_z4, phi).tolist() == [0, 2]

    def test_tautology_and_zero(self, z4, reg_z4):
        assert len(pp_evaluate(reg_z4, scalar_formula(z4, 1, 0, []))) == 4
        assert pp_evaluate(reg_z4, scalar_formula(z4, 1, 0, [[1]])).tolist() == [0]

    def test_sentence_evaluates_to_the_empty_tuple(self, reg_z4):
        # No free variable: M^0 has the one tuple, and y = 0 witnesses 2y = 0.
        phi = PPFormula(free=0, bound=1, equations=((2,),))
        assert pp_evaluate(reg_z4, phi).tolist() == [0]

    def test_two_free_variables(self, z4, reg_z4):
        # x1 = x2 defines the diagonal subgroup of M^2
        phi = scalar_formula(z4, 2, 0, [[1, -1]], name="diag")
        sols = pp_evaluate(reg_z4, phi)
        assert len(sols) == 4
        assert all(s % 4 == s // 4 for s in sols)

    def test_blocked_evaluation_matches_one_shot(self):
        # x1 = 2z, x2 = 6z over Z/64: 64^3 witness tuples span 16 blocks.
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


    @pytest.mark.parametrize("p", [1, 2])
    def test_non_subgroup_rejected(self, reg_z4, p):
        mask = np.zeros(4**p, dtype=bool)
        mask[[0, 1]] = True  # {0, x} with x = (1, 0, ...) of order 4
        with pytest.raises(ConsistencyError, match="not closed under addition"):
            _check_subgroup(reg_z4, mask, p, "test")
        mask[[2, 3]] = True  # Z/4 x 0 is a subgroup
        _check_subgroup(reg_z4, mask, p, "test")
        mask[0] = False
        with pytest.raises(ConsistencyError, match="does not contain zero"):
            _check_subgroup(reg_z4, mask, p, "test")


class TestElimination:
    """Unit-pivot elimination against full enumeration."""

    def assert_matches_oracle(self, module, phi):
        got = _solution_mask(module, phi, DEFAULTS)
        assert np.array_equal(got, enumerated_mask(module, phi)), (module.label, phi)

    def test_library_on_sweep_modules(self):
        for spec in sweep_specs():
            ring = build_ring(spec)
            modules = {m.label: m for m in [regular_module(ring)] + corpus_test_modules(ring)}
            formulas = library_formulas(ring).values()
            for module in modules.values():
                for phi in formulas:
                    self.assert_matches_oracle(module, phi)

    def test_library_on_corpus_modules_and_their_sums(self, corpus):
        for spec in BUILTIN_CORPUS_SPECS:
            ring = corpus[spec]
            mods = corpus_test_modules(ring)
            sums = [direct_sum(a, b) for a in mods for b in mods]
            for module in mods + sums:
                for phi in library_formulas(ring).values():
                    self.assert_matches_oracle(module, phi)

    @pytest.mark.parametrize("spec", ["M(2,GF(2))", "T(2,GF(2))", "GF(2) x M(2,GF(2))"])
    def test_random_formulas_with_ring_coefficients(self, corpus, spec):
        ring = corpus[spec]
        rng = np.random.default_rng(7)
        non_units = np.setdiff1d(np.arange(ring.size), sorted(units(ring)))
        seen = {"no pivot": 0, "free solved": 0, "two free": 0}
        for module in [regular_module(ring)] + corpus_test_modules(ring):
            for trial in range(40):
                free = int(rng.integers(1, 3))
                bound = int(rng.integers(0, 4 - free))
                if module.size ** (free + bound) > 2**16:
                    bound = 0
                pool = non_units if trial % 4 == 0 else np.arange(ring.size)
                rows = rng.choice(pool, size=(int(rng.integers(1, 4)), free + bound))
                phi = PPFormula(free, bound, tuple(map(tuple, rows.tolist())))
                residual = _eliminate(ring, phi)
                seen["no pivot"] += residual.rows.shape == rows.shape
                seen["free solved"] += residual.rows.shape[1] < free
                seen["two free"] += free == 2
                self.assert_matches_oracle(module, phi)
        assert min(seen.values()) > 0, seen

    def test_pivot_free_evaluation_spans_blocks(self):
        # 2x1 = 2z, 2x2 = 6z over Z/64: no unit coefficient, so all 64^3
        # witness tuples are scanned, in 16 blocks.
        ring = build_ring("Z/64")
        module = regular_module(ring)
        phi = scalar_formula(ring, 2, 1, [[2, 0, -2], [0, 2, -6]])
        assert _eliminate(ring, phi).rows.shape == (2, 3)
        expected = enumerated_mask(module, phi)
        assert pp_evaluate(module, phi).tolist() == np.flatnonzero(expected).tolist()

    def test_div2_on_z2048_within_cap(self):
        # The witness space is 2048^2, above the 10^6 cap; the residual is 2048.
        ring = build_ring("Z/2048")
        phi = scalar_formula(ring, 1, 1, [[1, -2]], name="div2")
        assert pp_evaluate(regular_module(ring), phi).tolist() == list(range(0, 2048, 2))

    def test_pivot_free_formula_above_cap_names_residual_space(self):
        ring = build_ring("Z/2048")
        phi = scalar_formula(ring, 1, 1, [[2, -4]])
        with pytest.raises(SizeCapError, match="residual witness space 4194304 above cap 1000000"):
            pp_evaluate(regular_module(ring), phi)

    def test_kept_mask_still_checks_cap(self):
        ring = build_ring("Z/16")
        module = regular_module(ring)
        phi = scalar_formula(ring, 1, 1, [[2, -4]])
        assert pp_evaluate(module, phi).tolist() == list(range(0, 16, 2))
        with pytest.raises(SizeCapError, match="residual witness space 256 above cap 100"):
            pp_evaluate(module, phi, DEFAULTS.with_overrides(max_homs=100))

    def test_masks_kept_per_module_and_read_only(self, z4):
        module = regular_module(z4)
        phi = scalar_formula(z4, 1, 1, [[1, -2]], name="div2")
        same = scalar_formula(z4, 1, 1, [[1, -2]], name="other name")
        mask = _solution_mask(module, phi, DEFAULTS)
        assert _solution_mask(module, same, DEFAULTS) is mask
        assert not mask.flags.writeable
        assert _solution_mask(regular_module(z4), phi, DEFAULTS) is not mask


    def test_one_elimination_per_ring_and_formula_system(self, monkeypatch):
        ring = build_ring("T(2,GF(2))")
        calls = []
        monkeypatch.setattr(pp_module, "_eliminate", lambda ring, phi: calls.append(phi) or _eliminate(ring, phi))
        reg = regular_module(ring)
        modules = [reg, *corpus_test_modules(ring), direct_sum(reg, reg), quotient_module(reg, [0, 1])]
        pairs = library_pairs(ring)
        for module in modules:
            for phi, psi in pairs:
                baur_monk_invariant(module, phi, psi)
        systems = {(phi.free, phi.bound, phi.equations) for pair in pairs for phi in pair}
        assert len(calls) == len(systems) < len({phi.name for pair in pairs for phi in pair})
        assert set(ring._pp_residuals) == systems


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


class TestLibrary:
    def test_instantiation_matches_scalar_multiples(self, corpus):
        for spec in ("Z/4", "Z/6", "GF(4)", "M(2,GF(3))", "GF(2) x M(2,GF(2))"):
            ring = corpus[spec]
            for name, phi in library_formulas(ring).items():
                rows = {"div2": [[1, -2]], "ann6": [[6]], "div3_ann2": [[1, -3], [0, 2]]}.get(name)
                if rows is None:
                    continue
                equations = tuple(tuple(int(scalar_mul(ring, k, ring.one)) for k in row) for row in rows)
                assert phi == PPFormula(phi.free, phi.bound, equations, name)
                assert scalar_formula(ring, phi.free, phi.bound, rows, name) == phi


class TestSerialization:
    def test_round_trip(self):
        phi = PPFormula(free=1, bound=2, equations=((1, 2, 3), (0, 1, 0)), name="x")
        data = formula_to_json(phi)
        back = PPFormula.from_json_dict(data)
        assert back.free == phi.free and back.bound == phi.bound
        assert back.equations == phi.equations

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            PPFormula(free=1, bound=1, equations=((1,),))

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            PPFormula.from_json_dict({"free": 1, "eqs": []})
