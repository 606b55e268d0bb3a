"""Freeness, projectivity, and flatness of finite modules.

Projectivity runs two independent routes (decomposition signature vs explicit
splitting of the canonical surjection) and insists they agree.  Flatness scans
the relation submodule: a relation sum(r_i m_i) = 0 factors through a matrix
annihilating r iff the relation lies in the subgroup sum(r_i K) of the free
cover, which decides the factorization condition for every matrix width at
once.  Relations among arbitrary element tuples reduce to relations among the
generators, so the scan is complete whenever every relation's support fits the
configured length bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import ConsistencyError, SizeCapError
from .decompose import krull_schmidt, regular_signature
from .modules import (
    FiniteModule,
    ModuleHom,
    _relation_generators,
    free_module,
    hom_from_images,
    hom_image_mask,
)
from .subgroup import span
from .verdict import Verdict


def is_free_module(module: FiniteModule, cfg: EngineConfig | None = None) -> Verdict:
    """Free iff the signature is a uniform multiple of the regular module's."""
    cfg = cfg or DEFAULTS
    if module.size == 1:
        return Verdict(True, witness=0, note="zero module is free of rank 0")
    sig = krull_schmidt(module, cfg)
    reg = regular_signature(module.ring, cfg)
    reg_map = dict(reg.entries)
    mod_map = dict(sig.entries)
    if set(mod_map) != set(reg_map):
        extra = set(mod_map) - set(reg_map)
        missing = set(reg_map) - set(mod_map)
        detail = []
        if extra:
            detail.append(
                "classes outside the regular module: sizes "
                + str(sorted(sig.registry.class_size(c) for c in extra))
            )
        if missing:
            detail.append(
                "missing regular classes: sizes "
                + str(sorted(sig.registry.class_size(c) for c in missing))
            )
        return Verdict(False, witness=(sig.sizes(), reg.sizes()), note="; ".join(detail))
    first = next(iter(reg_map))
    c, remainder = divmod(mod_map[first], reg_map[first])
    if remainder:
        return Verdict(
            False,
            witness=(sig.registry.class_size(first), mod_map[first], reg_map[first]),
            note=(
                f"multiplicity {mod_map[first]} of the size-"
                f"{sig.registry.class_size(first)} class is not a multiple of {reg_map[first]}"
            ),
        )
    for cls, mult in mod_map.items():
        if mult != c * reg_map[cls]:
            return Verdict(
                False,
                witness=(sig.registry.class_size(cls), mult, c * reg_map[cls]),
                note=(
                    f"class of size {sig.registry.class_size(cls)} has multiplicity "
                    f"{mult}, expected {c * reg_map[cls]}"
                ),
            )
    return Verdict(True, witness=c, note=f"isomorphic to R^{c}")


def is_projective_module(module: FiniteModule, cfg: EngineConfig | None = None) -> Verdict:
    """Projective iff every indecomposable summand is a summand of the regular module.

    Cross-validated, when within the hom cap, by searching for a section of
    the canonical surjection from the free cover; the two routes must agree.
    """
    cfg = cfg or DEFAULTS
    if module.size == 1:
        return Verdict(True, note="zero module is projective")
    sig = krull_schmidt(module, cfg)
    reg = regular_signature(module.ring, cfg)
    reg_classes = {c for c, _ in reg.entries}
    foreign = [c for c, _ in sig.entries if c not in reg_classes]
    by_signature = not foreign

    section: ModuleHom | None = None
    oracle_ran = False
    try:
        cover = free_module(module.ring, module.num_generators, cfg)
        section = split_surjection_search(ModuleHom(cover, module, module.cls), cfg)
        oracle_ran = True
    except SizeCapError:
        pass

    if oracle_ran:
        by_section = section is not None
        if by_section != by_signature:
            raise ConsistencyError(
                f"{module.label}: signature says projective={by_signature} "
                f"but section search says {by_section}"
            )
    if by_signature:
        return Verdict(
            True,
            witness=section if section is not None else sig,
            note="all summands are summands of the regular module"
            + ("; splitting verified" if oracle_ran else ""),
        )
    sizes = sorted(sig.registry.class_size(c) for c in foreign)
    return Verdict(
        False,
        witness=sig.sizes(),
        note=f"summand classes of sizes {sizes} are not summands of the regular module",
    )


def split_surjection_search(
    pi: ModuleHom, cfg: EngineConfig | None = None
) -> ModuleHom | None:
    """A section s with pi∘s = id, or None when no section exists."""
    cfg = cfg or DEFAULTS
    source, target = pi.source, pi.target
    if len(np.unique(pi.table)) != target.size:
        raise ValueError("split_surjection_search: map is not surjective")
    mask = hom_image_mask(target, source, cfg)
    idx = np.arange(len(mask), dtype=np.int64)
    for i in range(target.num_generators):
        yi = (idx // source.size**i) % source.size
        mask &= pi.table[yi] == target.gens[i]
    hits = np.nonzero(mask)[0]
    if len(hits) == 0:
        return None
    w = int(hits[0])
    images = tuple(
        (w // source.size**i) % source.size for i in range(target.num_generators)
    )
    return hom_from_images(target, source, images)


@dataclass
class FlatnessReport:
    """Outcome of the relation-factorization scan.

    ``value`` is definitive whenever ``exact`` is true (every relation support
    fit the bound) or a violation was found; otherwise it means "no violation
    up to the bound".  The projectivity verdict is recorded alongside because
    the two properties coincide for finite modules over finite rings.
    """

    value: bool
    exact: bool
    bound: int
    checked_relations: int
    witness: dict | None = None
    projective: bool | None = None
    agrees_with_projective: bool | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.value


def is_flat_module(
    module: FiniteModule,
    relation_length_bound: int | None = None,
    cfg: EngineConfig | None = None,
    cross_check: bool = True,
) -> FlatnessReport:
    """Scan relations of support up to the bound for factorization failures.

    A relation v (coefficients v_1..v_g on the generators) factors iff
    v lies in v_1 K + ... + v_g K, K the relation submodule.  Left multiples
    of a factoring relation factor with the same witnesses, so verified
    orbits are skipped; distinct relations sharing the same image subgroup
    share one closure computation.
    """
    cfg = cfg or DEFAULTS
    bound = relation_length_bound if relation_length_bound is not None else cfg.flat_relation_bound
    if bound < 1:
        raise ValueError(f"relation length bound must be >= 1, got {bound}")
    ring = module.ring
    relations = module.relations
    g = module.num_generators

    report = FlatnessReport(value=True, exact=True, bound=bound, checked_relations=0)
    if module.size == 1 or len(relations) == 1:
        report.note = "zero module" if module.size == 1 else "free presentation"
        _attach_projectivity(module, report, cfg, cross_check)
        return report

    k_gens = _relation_generators(module)
    verified = np.zeros(module.cover_size, dtype=bool)
    memo: dict[tuple[int, ...], np.ndarray] = {}
    mul = ring.mul_table

    for v in relations:
        v = int(v)
        if v == 0 or verified[v]:
            continue
        digits = module._cover_digits(np.int64(v))
        support = [i for i in range(g) if digits[i]]
        if len(support) > bound:
            report.exact = False
            continue
        image_gens: set[int] = set()
        for i in support:
            acted = module.cover_act(int(digits[i]), k_gens)
            image_gens.update(int(u) for u in np.atleast_1d(acted))
        image_gens.discard(0)
        key = tuple(sorted(image_gens))
        image = memo.get(key)
        if image is None:
            image = span(module.cover_add, module.cover_size, key)
            memo[key] = image
        report.checked_relations += 1
        if not image[v]:
            report.value = False
            report.witness = {
                "coefficients": tuple(int(d) for d in digits),
                "support_coefficients": tuple(int(digits[i]) for i in support),
                "generators": tuple(support),
                "note": "relation among the generator images admits no factorization",
            }
            break
        # Every left multiple s*v factors via the same assignments.
        orbit_digits = mul[:, digits]  # (|R|, g)
        orbit = module._cover_encode(orbit_digits)
        verified[orbit] = True

    _attach_projectivity(module, report, cfg, cross_check)
    return report


def _attach_projectivity(
    module: FiniteModule, report: FlatnessReport, cfg: EngineConfig, cross_check: bool
) -> None:
    if not cross_check:
        return
    try:
        projective = bool(is_projective_module(module, cfg))
    except SizeCapError:
        report.note = (report.note + "; projectivity check exceeded caps").strip("; ")
        return
    report.projective = projective
    report.agrees_with_projective = report.value == projective
    if report.exact and not report.agrees_with_projective:
        raise ConsistencyError(
            f"{module.label}: exact flatness {report.value} disagrees with "
            f"projectivity {projective}"
        )
