"""Primitive idempotent decomposition of rings, computed once per ring and
kept on it, the projective-cover count that reads it, and Krull-Schmidt
decomposition of finite modules, with a per-ring registry of indecomposable
isomorphism classes."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Sequence

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import ConsistencyError, SizeCapError, check_cap
from .ideals import jacobson_radical
from .modules import FiniteModule, _present, find_bijective_hom, hom_candidate_blocks
from .rings import FiniteRing
from .subgroup import _sumset, zero
from .verdict import Verdict


def _corner(ring: FiniteRing, e: int) -> np.ndarray:
    """The corner ring e*R*e as sorted element indices."""
    return np.unique(ring.mul_table[ring.mul_table[e, :], e])


def _corner_idempotent(ring: FiniteRing, e: int) -> int | None:
    """The least idempotent f of eRe with f not in {0, e}, or None if e is primitive."""
    corner = _corner(ring, e)
    candidates = corner[(ring.mul_table[corner, corner] == corner)]
    candidates = candidates[(candidates != 0) & (candidates != e)]
    return int(candidates[0]) if len(candidates) else None


def _isomorphic_left_ideals(ring: FiniteRing, e: int, f: int) -> bool:
    """Re ≅ Rf for primitive e and f iff e = ab for some a in eRf, b in fRe:
    then ba is a nonzero idempotent of fRf, so ba = f."""
    mul = ring.mul_table
    erf = np.unique(mul[mul[e, :], f])
    fre = np.unique(mul[mul[f, :], e])
    return bool((mul[np.ix_(erf, fre)] == e).any())


@dataclass(frozen=True)
class IdempotentDecomposition:
    """A complete orthogonal set of primitive idempotents, grouped by the
    isomorphism class of the left ideals they generate: a plain frozen
    record.  It is kept on the ring and shared by every caller over it; the
    per-class arrays that a projective-cover count reads are a cached
    property, built the first time one is asked for."""

    ring: FiniteRing
    idempotents: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]  # partition of the idempotent list
    multiplicities: tuple[int, ...]  # r_i = size of class i
    representatives: tuple[FiniteModule, ...]  # P_i = R*e for class representative e

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(p.size for p in self.representatives)

    def sum_size(self, multiplicities: Sequence[int]) -> int:
        """|(+) P_i^a_i| for the given multiplicities a_i."""
        return prod(p**a for p, a in zip(self.sizes, multiplicities))

    @cached_property
    def _class_arrays(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per class, with e its first idempotent: the column Re and the corner
        eRe, sorted, and the e·r_k·e over R's additive generators r_k, which
        generate eRe additively.  Ring-only arrays, computed on first use (a
        projective-cover count) and kept with the decomposition."""
        mul, gens = self.ring.mul_table, self.ring._gens
        return tuple(
            (np.unique(mul[:, e]), _corner(self.ring, e), np.unique(mul[mul[e, gens], e]))
            for e, *_ in self.classes
        )

    def check(self) -> None:
        ring = self.ring
        mul = ring.mul_table
        es = self.idempotents
        total = 0
        for e in es:
            if int(mul[e, e]) != e:
                raise ConsistencyError(f"{ring.label}: {e} is not idempotent")
            total = ring.add(total, e)
        if total != ring.one:
            raise ConsistencyError(f"{ring.label}: idempotents do not sum to 1")
        for i, e in enumerate(es):
            for j, f in enumerate(es):
                if i != j and (int(mul[e, f]) != 0 or int(mul[f, e]) != 0):
                    raise ConsistencyError(f"{ring.label}: idempotents {e},{f} not orthogonal")
        product = self.sum_size(self.multiplicities)
        if product != ring.size:
            raise ConsistencyError(
                f"{ring.label}: product of |P_i|^r_i = {product} != |R| = {ring.size}"
            )


def primitive_decomposition(ring: FiniteRing, cfg: EngineConfig | None = None) -> IdempotentDecomposition:
    """Refine {1} into a complete orthogonal set of primitive idempotents.

    Each non-primitive idempotent e splits as {f, e-f} for the least
    idempotent f of the corner eRe other than 0 and e; the count strictly
    increases, so refinement terminates.

    The result depends only on the ring's tables, so it is computed once and
    kept on the ring.  A kept decomposition with a P_i above
    ``cfg.max_module`` is not returned: the first such P_i in build order
    (ascending by its class's first idempotent) raises the cap error that
    building it under ``cfg`` raises.
    """
    cfg = cfg or DEFAULTS
    kept = ring._decomposition
    if kept is None:
        kept = ring._decomposition = _decompose(ring, cfg)
    elif max(kept.sizes, default=0) > cfg.max_module:
        over = {c[0]: p for c, p in zip(kept.classes, kept.representatives) if p.size > cfg.max_module}
        p = over[min(over)]
        message = f"{p.label}: module size {p.size} above cap {cfg.max_module}"
        check_cap("max_module", p.size, cfg.max_module, message)
    return kept


def _decompose(ring: FiniteRing, cfg: EngineConfig) -> IdempotentDecomposition:
    if ring.size == 1:
        return IdempotentDecomposition(ring, (), (), (), ())

    work = [ring.one]
    primitive: list[int] = []
    while work:
        e = work.pop(0)
        if e == 0:
            raise ConsistencyError(f"{ring.label}: zero appeared during refinement")
        f = _corner_idempotent(ring, e)
        if f is None:
            primitive.append(e)
        else:
            work.append(f)
            work.append(ring.sub(e, f))

    primitive.sort()
    groups: list[list[int]] = []
    for e in primitive:
        for group in groups:
            if _isomorphic_left_ideals(ring, group[0], e):
                group.append(e)
                break
        else:
            groups.append([e])

    # P_i = R*e presented on one generator e: the cover map is r -> r*e.
    reps = [
        FiniteModule(ring, 1, ring.mul_table[:, group[0]], f"P{i + 1}({ring.label})", cfg)
        for i, group in enumerate(groups)
    ]
    # By size, then by the action tables entry by entry (the first differing
    # entry decides); a table is read only where two sizes tie.
    ties = Counter(p.size for p in reps)
    order_key = sorted(
        range(len(groups)),
        key=lambda i: (reps[i].size, reps[i].act_table.ravel().tolist() if ties[reps[i].size] > 1 else []),
    )
    groups = [groups[i] for i in order_key]
    reps = [reps[i] for i in order_key]
    decomposition = IdempotentDecomposition(
        ring=ring,
        idempotents=tuple(primitive),
        classes=tuple(tuple(g) for g in groups),
        multiplicities=tuple(len(g) for g in groups),
        representatives=tuple(reps),
    )
    decomposition.check()
    return decomposition


# -- projective-cover counts ------------------------------------------------------


def _cover(module: FiniteModule, cfg: EngineConfig) -> tuple[IdempotentDecomposition, tuple, tuple, np.ndarray]:
    """R's decomposition, its per-class arrays, the a_i of M/JM = (+) S_i^a_i
    and JM's mask.  M's projective cover is (+) P_i^a_i, and M is projective,
    and then isomorphic to it, iff the two have the same size.  The
    decomposition is fetched, under ``cfg``'s caps, and checked on every
    call; the a_i and JM are counted once per module and kept on it.
    """
    ring = module.ring
    decomposition = primitive_decomposition(ring, cfg)
    if decomposition.sum_size(decomposition.multiplicities) != ring.size:
        raise ConsistencyError(f"{ring.label}: primitive classes do not cover the regular module")
    if module._cover_counts is None:
        module._cover_counts = _count(module, decomposition)
    return decomposition, decomposition._class_arrays, *module._cover_counts


def _count(module: FiniteModule, decomposition: IdempotentDecomposition) -> tuple[tuple[int, ...], np.ndarray]:
    """The a_i and JM's mask, by counting alone.

    JM is the sumset of the subgroups J·g over M's generators g.  For e = e_i,
    e(M/JM) = eM / (eM ∩ JM) has |D|^a_i elements, D = eRe/eJe, since
    eS_j = 0 for j != i and |eS_i| = |D|.  An index that is no power of |D|,
    or |M : JM| != prod |S_i|^a_i, raises ConsistencyError rather than give a
    verdict.
    """
    in_radical = jacobson_radical(module.ring)._mask
    act, radical = module.act_table, np.flatnonzero(in_radical)
    jm, jm_mask = np.zeros(1, dtype=np.int64), zero(module.size)
    for g in module.gens:
        part_mask = np.zeros(module.size, dtype=bool)
        part_mask[act[radical, g]] = True  # J·g, the image of J under r -> r·g
        jm, jm_mask = _sumset(module.add, jm, jm_mask, np.flatnonzero(part_mask), part_mask)
    multiplicities, top = [], 1
    for (e, *_), (simple, division) in zip(decomposition.classes, _class_sizes(decomposition, in_radical)):
        em = np.unique(act[e])
        index, a = np.count_nonzero(jm_mask[em]), 0
        while index < len(em) and division > 1:
            index, a = index * division, a + 1
        if index != len(em):
            raise ConsistencyError(f"{module.label}: |eM : eJM| for e = {e} is no power of |D| = {division}")
        multiplicities.append(a)
        top *= simple**a
    size = decomposition.sum_size(multiplicities)
    if top * len(jm) != module.size or size % module.size:
        raise ConsistencyError(f"{module.label}: projective cover of size {size} does not map onto M")
    return tuple(multiplicities), jm_mask


def _class_sizes(decomposition: IdempotentDecomposition, in_radical: np.ndarray) -> list[tuple[int, int]]:
    """Per class, |S_i| = |Re_i : Je_i| and |D_i| = |e_iRe_i : e_iJe_i|, counted on J's mask."""
    return [
        tuple(len(part) // int(np.count_nonzero(in_radical[part])) for part in (column, corner))
        for column, corner, _ in decomposition._class_arrays
    ]


# -- indecomposable registry and signatures --------------------------------------


class IndecomposableRegistry:
    """Per-ring registry of indecomposable isomorphism classes.

    The registry is the engine's only mutable store; callers must serialize
    writes (single-writer).  New modules are matched against existing classes
    of the same size by direct isomorphism search.
    """

    def __init__(self):
        self.representatives: list[FiniteModule] = []

    def classify(
        self, module: FiniteModule, cfg: EngineConfig | None = None, distinct: Sequence[FiniteModule] = ()
    ) -> int:
        """``module``'s class id: a registered module itself is found with no
        search, and no rep among ``distinct`` (known non-isomorphic) is searched."""
        cfg = cfg or DEFAULTS
        for class_id, rep in enumerate(self.representatives):
            if rep is module:
                return class_id
        for class_id, rep in enumerate(self.representatives):
            if rep.size != module.size or any(rep is other for other in distinct):
                continue
            if find_bijective_hom(module, rep, cfg) is not None:
                return class_id
        self.representatives.append(module)
        return len(self.representatives) - 1

    def class_size(self, class_id: int) -> int:
        return self.representatives[class_id].size


def get_registry(ring: FiniteRing) -> IndecomposableRegistry:
    """The ring's registry, created on first use and kept on the ring itself
    (stable class ids for as long as the ring lives)."""
    if ring._registry is None:
        ring._registry = IndecomposableRegistry()
    return ring._registry


@dataclass(frozen=True)
class DecompositionSignature:
    """Multiset of indecomposable classes with multiplicities (sorted by id)."""

    registry: IndecomposableRegistry
    entries: tuple[tuple[int, int], ...]  # (class_id, multiplicity)

    def sizes(self) -> tuple[tuple[int, int], ...]:
        """(indecomposable size, multiplicity) pairs, sorted by size."""
        return tuple(
            sorted((self.registry.class_size(c), m) for c, m in self.entries)
        )

    def combine(self, other: "DecompositionSignature") -> "DecompositionSignature":
        if self.registry is not other.registry:
            raise ValueError("signatures from different registries")
        counts = Counter(dict(self.entries))
        counts.update(dict(other.entries))
        return DecompositionSignature(self.registry, tuple(sorted(counts.items())))


def _find_splitting_idempotent(
    module: FiniteModule,
    cfg: EngineConfig,
    rng: np.random.Generator | None,
) -> tuple[int, ...] | None:
    """Generator images of an idempotent endomorphism other than 0 and id.

    The map pi defined by images (y_i) is idempotent iff every y_j is a fixed
    point, since pi(pi(g_j)) = pi(y_j).  With y_j = sum_i c_ji g_i for the
    cover digits c_j of y_j's representative, pi(y_j) = sum_i c_ji y_i; this
    is evaluated for a whole block of candidate tuples at once.
    """
    for images in hom_candidate_blocks(module, module, cfg, rng):
        images = images[:, (images != 0).any(axis=0) & (images.T != module.gens).any(axis=1)]
        fixed = np.ones(images.shape[1], dtype=bool)
        for y in images:
            fixed &= module.combine(module.coords(y).T, images) == y  # c_ji = coords(y_j)[i]
        hits = np.flatnonzero(fixed)
        if len(hits):
            return tuple(images[:, hits[0]].tolist())
    return None


def _counted_signature(
    module: FiniteModule, cfg: EngineConfig, registry: IndecomposableRegistry
) -> DecompositionSignature | None:
    """{class(P_i): a_i} when M is its projective cover (+) P_i^a_i; None when
    M is not projective or the count is above a cap."""
    try:
        decomposition, _, multiplicities, _ = _cover(module, cfg)
    except SizeCapError:
        return None
    if decomposition.sum_size(multiplicities) != module.size:
        return None
    reps = decomposition.representatives  # pairwise non-isomorphic
    ids = ((registry.classify(p, cfg, reps), a) for p, a in zip(reps, multiplicities) if a)
    return DecompositionSignature(registry, tuple(sorted(ids)))


def krull_schmidt(
    module: FiniteModule,
    cfg: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
    registry: IndecomposableRegistry | None = None,
) -> DecompositionSignature:
    """Decompose into indecomposables by the projective-cover count, else by
    splitting idempotent endomorphisms.

    Unseeded, M and each half of a split is counted first: if its cover
    (+) P_i^a_i has |M| elements, M is isomorphic to it (Anderson & Fuller,
    GTM 13, sections 12 and 27), and its signature is {class(P_i): a_i}, with
    the P_i of R's kept decomposition and no End(M) search.  A count above a
    cap falls through to the search.  An idempotent pi splits
    M = pi(M) (+) (1 - pi)(M); each half is presented once, from the images
    pi(g_j) and the g_j - pi(g_j) of M's generators, and their sizes must
    multiply to |M|.  Requires End(M) searches within the hom cap.  The
    seeded mode searches every module: it is the oracle for the count and
    for the search order, which the output multiset does not depend on.
    """
    cfg = cfg or DEFAULTS
    registry = registry or get_registry(module.ring)
    if module.size == 1:
        return DecompositionSignature(registry, ())
    if rng is None:
        counted = _counted_signature(module, cfg, registry)
        if counted is not None:
            return counted

    images = _find_splitting_idempotent(module, cfg, rng)
    if images is None:
        class_id = registry.classify(module, cfg)
        result = DecompositionSignature(registry, ((class_id, 1),))
    else:
        complement = tuple(module.sub(gen, y) for gen, y in zip(module.gens, images))
        sub1 = _present(module, images, f"{module.label}|im", cfg)
        sub2 = _present(module, complement, f"{module.label}|ker", cfg)
        if sub1.size * sub2.size != module.size:
            raise ConsistencyError(
                f"{module.label}: idempotent split sizes {sub1.size} x {sub2.size} "
                f"!= {module.size}"
            )
        sig1 = krull_schmidt(sub1, cfg, rng, registry)
        sig2 = krull_schmidt(sub2, cfg, rng, registry)
        result = sig1.combine(sig2)
    return result


def is_isomorphic(
    a: FiniteModule, b: FiniteModule, cfg: EngineConfig | None = None
) -> Verdict:
    """Size check, then decomposition signatures, then direct hom search.

    Two projective modules compare by their counted a_i.  A true verdict
    carries an explicit isomorphism when the search space is small,
    otherwise the common signature; a false verdict carries the
    distinguishing signatures (or sizes).
    """
    cfg = cfg or DEFAULTS
    if a.ring is not b.ring:
        raise ValueError("modules over different rings")
    if a.size != b.size:
        return Verdict(False, witness=("size", a.size, b.size), note="sizes differ")
    try:
        sig_a = krull_schmidt(a, cfg)
        sig_b = krull_schmidt(b, cfg)
    except SizeCapError:
        hom = find_bijective_hom(a, b, cfg)
        if hom is not None:
            return Verdict(True, witness=hom, note="isomorphism found by direct search")
        return Verdict(False, note="no bijective homomorphism exists")
    if sig_a == sig_b:
        if b.size ** a.num_generators <= 100_000:  # the space find_bijective_hom(a, b) scans
            hom = find_bijective_hom(a, b, cfg)
            if hom is not None:
                return Verdict(True, witness=hom, note="isomorphism realized explicitly")
        return Verdict(True, witness=sig_a, note="equal decomposition signatures")
    return Verdict(
        False,
        witness=(sig_a.sizes(), sig_b.sizes()),
        note="decomposition signatures differ",
    )
