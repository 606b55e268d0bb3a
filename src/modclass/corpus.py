"""The built-in ring corpus, generated module families, and the meta-suite.

The meta-suite bundles every cross-cutting consistency property (implication
chain, flat vs projective over a generated family, invariant multiplicativity,
decomposition determinism, axiom re-verification) so the command line and the
acceptance tests run exactly the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS, EngineConfig
from .classify import (
    MetaFinding,
    MetaReport,
    classify_ring,
    lemma31_check,
    recheck_ring_axioms,
    verify_implication_chain,
)
from .decompose import krull_schmidt, primitive_decomposition
from .dsl import build_ring, struct_const_from_dict
from .errors import SizeCapError
from .ideals import jacobson_radical
from .modules import (
    FiniteModule,
    _quotient,
    _submodule_lattice,
    cyclic_submodule,
    direct_sum,
    quotient_module,
    regular_module,
)
from .pp import baur_monk_invariant, library_pairs
from .properties import is_flat_module, is_projective_module
from .rings import FiniteRing

# Frozen corpus; reports and tables are emitted in exactly this order.
BUILTIN_CORPUS_SPECS: tuple[str, ...] = (
    "GF(2)",
    "GF(3)",
    "GF(4)",
    "Z/4",
    "Z/6",
    "Z/8",
    "Z/12",
    "PolyQuot(GF(2),[0,0,1])",
    "T(2,GF(2))",
    "M(2,GF(2))",
    "M(2,GF(3))",
    "GF(2) x M(2,GF(2))",
)


def builtin_corpus(cfg: EngineConfig | None = None) -> list[FiniteRing]:
    cfg = cfg or DEFAULTS
    return [build_ring(spec, cfg) for spec in BUILTIN_CORPUS_SPECS]


# -- module families ---------------------------------------------------------------

_TEST_MODULE_SIZE_LIMIT = 30


def corpus_test_modules(ring: FiniteRing, cfg: EngineConfig | None = None) -> list[FiniteModule]:
    """A frozen, small selection of test modules for the invariant suites.

    Kept below the size limit so that two-variable pp evaluation on pairwise
    direct sums stays inside the enumeration cap.
    """
    cfg = cfg or DEFAULTS
    reg = regular_module(ring, cfg)
    mods: list[FiniteModule] = []
    if reg.size <= _TEST_MODULE_SIZE_LIMIT:
        mods.append(reg)
    else:
        for rep in primitive_decomposition(ring, cfg).representatives:
            if rep.size <= _TEST_MODULE_SIZE_LIMIT:
                mods.append(rep)
    radical = jacobson_radical(ring)
    if 1 < len(radical) < ring.size:
        quotient = quotient_module(reg, list(radical.elements), label=f"{ring.label}/J", cfg=cfg)
        if 2 <= quotient.size <= _TEST_MODULE_SIZE_LIMIT:
            mods.append(quotient)
    for x in range(1, ring.size):
        sub = cyclic_submodule(reg, x)
        if 1 < len(sub) < ring.size:
            quotient = quotient_module(reg, sub, label=f"{ring.label}/(x{x})", cfg=cfg)
            if 2 <= quotient.size <= _TEST_MODULE_SIZE_LIMIT:
                mods.append(quotient)
                break
    seen: set[tuple] = set()
    unique: list[FiniteModule] = []
    for m in mods:
        key = (m.size, m.act_table.tobytes())
        if key not in seen:
            seen.add(key)
            unique.append(m)
    return unique[:3]


def generated_module_family(
    ring: FiniteRing, cfg: EngineConfig | None = None
) -> list[FiniteModule]:
    """All quotients of R^1 and R^2 that fit the module caps."""
    cfg = cfg or DEFAULTS
    family: list[FiniteModule] = []
    for rank in (1, 2):
        if ring.size**rank > cfg.max_module:
            continue
        base = regular_module(ring, cfg)
        if rank == 2:
            base = direct_sum(base, base, cfg)
        for sub, seeds in _submodule_lattice(base):
            # N joins the cyclic parts R·w, so the e_i·w span it: no walk over N.
            spanning = np.unique(base.act_table[ring._gens[:, None], seeds]).astype(np.int64)
            label = f"{ring.label}^{rank}/[{len(sub)}]"
            family.append(_quotient(base, sub, spanning[spanning != 0], label, cfg))
    return family


# -- random valid structure-constant rings ------------------------------------------


def _random_recipe(rng: np.random.Generator, max_size: int, cfg: EngineConfig, depth: int = 0):
    """A random valid ring construction expression of bounded carrier size."""
    choices = ["cyclic", "cyclic", "polyquot", "field"]
    if max_size >= 8:
        choices.append("triangular")
    if max_size >= 16:
        choices.append("matrix")
    if depth < 2 and max_size >= 4:
        choices += ["product", "product"]
    kind = choices[int(rng.integers(0, len(choices)))]
    if kind == "product":
        left_max = int(rng.integers(2, max_size // 2 + 1))
        left = _random_recipe(rng, left_max, cfg, depth + 1)
        right = _random_recipe(rng, max_size // left[1], cfg, depth + 1)
        return f"{left[0]} x {right[0]}", left[1] * right[1]
    if kind == "field":
        options = [q for q in (2, 3, 4, 5, 7, 8, 9, 13, 16) if q <= max_size]
        q = int(options[int(rng.integers(0, len(options)))])
        return f"GF({q})", q
    if kind == "triangular":
        return "T(2,GF(2))", 8
    if kind == "matrix":
        return "M(2,GF(2))", 16
    if kind == "polyquot":
        bases = [("GF(2)", 2), ("GF(3)", 3), ("Z/4", 4)]
        base, base_size = bases[int(rng.integers(0, len(bases)))]
        max_degree = 1
        while base_size ** (max_degree + 1) <= max_size:
            max_degree += 1
        if max_degree < 2:
            n = int(rng.integers(2, max_size + 1))
            return f"Z/{n}", n
        degree = int(rng.integers(2, max_degree + 1))
        coeffs = [int(rng.integers(0, base_size)) for _ in range(degree)] + [1]
        text = ",".join(str(c) for c in coeffs)
        return f"PolyQuot({base},[{text}])", base_size**degree
    n = int(rng.integers(2, max_size + 1))
    return f"Z/{n}", n


def random_recipe_rings(
    count: int,
    seed: int = 0,
    max_size: int = 16,
    cfg: EngineConfig | None = None,
) -> list[FiniteRing]:
    """Random valid rings of bounded size, rebuilt through the
    structure-constant path so the validation machinery is exercised."""
    cfg = cfg or DEFAULTS
    rng = np.random.default_rng(seed)
    out: list[FiniteRing] = []
    while len(out) < count:
        spec, _ = _random_recipe(rng, max_size, cfg)
        ring = build_ring(spec, cfg)
        if ring.size > max_size:
            continue
        data = {
            "orders": list(ring.orders),
            "one": ring.one,
            "table": ring.mul_table.tolist(),
        }
        rebuilt = struct_const_from_dict(data, label=f"SC<{spec}>", cfg=cfg)
        out.append(rebuilt)
    return out


# -- the meta-suite ------------------------------------------------------------------


@dataclass
class SuiteResult:
    reports: list  # ClassificationReport per corpus ring, in corpus order
    meta: list  # MetaReport sections
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.meta)

    def violations(self) -> list[MetaFinding]:
        return [f for m in self.meta for f in m.findings]


def flat_projective_suite(
    rings: list[FiniteRing], cfg: EngineConfig | None = None
) -> MetaReport:
    """Flat <=> projective over every generated family module, per ring."""
    cfg = cfg or DEFAULTS
    findings: list[MetaFinding] = []
    records: list[str] = []
    checked = 0
    nonflat = 0
    for ring in rings:
        family = generated_module_family(ring, cfg)
        for module in family:
            flat = is_flat_module(module, cfg).value
            checked += 1
            if not flat:
                nonflat += 1
            try:
                projective = is_projective_module(module, cfg).value
            except SizeCapError:
                records.append(f"{module.label}: projectivity above caps, flat={flat}")
                continue
            if flat != projective:
                findings.append(
                    MetaFinding(module.label, "flat<=>projective", f"flat={flat} projective={projective}")
                )
    records.append(f"{checked} modules checked, {nonflat} genuinely non-flat")
    meta = MetaReport(name="flat-projective", checked=checked, findings=findings, records=records)
    meta.nonflat_instances = nonflat
    return meta


def multiplicativity_suite(
    rings: list[FiniteRing], cfg: EngineConfig | None = None
) -> MetaReport:
    """Invariant(M (+) N) = Invariant(M) * Invariant(N) over the frozen library."""
    cfg = cfg or DEFAULTS
    findings: list[MetaFinding] = []
    checked = 0
    for ring in rings:
        mods = corpus_test_modules(ring, cfg)
        pairs = library_pairs(ring)
        for a in mods:
            for b in mods:
                summed = direct_sum(a, b, cfg)
                for phi, psi in pairs:
                    left = baur_monk_invariant(summed, phi, psi, cfg).index
                    right = (
                        baur_monk_invariant(a, phi, psi, cfg).index
                        * baur_monk_invariant(b, phi, psi, cfg).index
                    )
                    checked += 1
                    if left != right:
                        findings.append(
                            MetaFinding(
                                f"{a.label} (+) {b.label}",
                                "invariant-multiplicativity",
                                f"{phi.name}/{psi.name}: {left} != {right}",
                            )
                        )
    return MetaReport(name="invariant-multiplicativity", checked=checked, findings=findings)


def decomposition_determinism_suite(
    rings: list[FiniteRing],
    seeds: tuple[int, ...] = (1, 2, 3),
    cfg: EngineConfig | None = None,
) -> MetaReport:
    """Signatures of R and R^2 must not depend on the idempotent search order.

    R^2 must be covered for every corpus ring, so the module and hom caps are
    raised here to the square of the largest corpus carrier.
    """
    cfg = cfg or DEFAULTS
    largest = max((ring.size for ring in rings), default=1)
    cfg = cfg.with_overrides(
        max_module=max(cfg.max_module, largest**2),
        max_homs=max(cfg.max_homs, largest**4),
    )
    findings: list[MetaFinding] = []
    checked = 0
    for ring in rings:
        targets = [regular_module(ring, cfg)]
        if ring.size**2 <= cfg.max_module:
            targets.append(direct_sum(targets[0], targets[0], cfg))
        for module in targets:
            try:
                base = krull_schmidt(module, cfg)
            except SizeCapError:
                continue
            checked += 1
            for seed in seeds:
                seeded = krull_schmidt(module, cfg, rng=np.random.default_rng(seed))
                if seeded != base:
                    findings.append(
                        MetaFinding(
                            module.label,
                            "decomposition-determinism",
                            f"seed {seed}: {seeded.sizes()} != {base.sizes()}",
                        )
                    )
    return MetaReport(name="decomposition-determinism", checked=checked, findings=findings)


def run_meta_suite(
    cfg: EngineConfig | None = None,
    rings: list[FiniteRing] | None = None,
    seeds: tuple[int, ...] = (1, 2, 3),
) -> SuiteResult:
    """Classify the corpus and run every cross-cutting consistency section.

    Axioms are re-verified first; rings failing them are named in the findings
    and excluded from the later sections rather than crashing them.
    """
    cfg = cfg or DEFAULTS
    rings = builtin_corpus(cfg) if rings is None else rings
    axiom_section = recheck_ring_axioms(rings)
    bad = {f.ring_label for f in axiom_section.findings}
    rings = [r for r in rings if r.label not in bad]
    reports = [classify_ring(r, cfg) for r in rings]
    meta = [
        axiom_section,
        verify_implication_chain(reports),
        lemma31_check(reports),
        flat_projective_suite(rings, cfg),
        multiplicativity_suite(rings, cfg),
        decomposition_determinism_suite(rings, seeds, cfg),
    ]
    counts = {
        "rings": len(rings),
        "reports": len(reports),
        "violations": sum(len(m.findings) for m in meta),
    }
    return SuiteResult(reports=reports, meta=meta, counts=counts)
