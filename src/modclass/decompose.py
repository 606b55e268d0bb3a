"""Primitive idempotent decomposition of rings and Krull-Schmidt decomposition
of finite modules, with a per-ring registry of indecomposable isomorphism classes."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Sequence

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import ConsistencyError, SizeCapError
from .modules import FiniteModule, _present, find_bijective_hom, hom_candidate_blocks
from .rings import FiniteRing
from .verdict import Verdict


def _corner(ring: FiniteRing, e: int) -> np.ndarray:
    """The corner ring e*R*e as sorted element indices."""
    return np.unique(ring.mul_table[ring.mul_table[e, :], e])


def _corner_idempotent(ring: FiniteRing, e: int, order: np.ndarray | None = None) -> int | None:
    """An idempotent f of eRe with f not in {0, e}, or None if e is primitive."""
    corner = _corner(ring, e)
    candidates = corner[(ring.mul_table[corner, corner] == corner)]
    candidates = candidates[(candidates != 0) & (candidates != e)]
    if len(candidates) == 0:
        return None
    if order is not None:
        pos = np.argsort(order[candidates], kind="stable")
        return int(candidates[pos[0]])
    return int(candidates[0])


def corner_isomorphism(ring: FiniteRing, e: int, f: int) -> tuple[int, int] | None:
    """Witness (a, b) with a in eRf, b in fRe, ab = e, ba = f, if Re ≅ Rf."""
    mul = ring.mul_table
    erf = np.unique(mul[mul[e, :], f])
    fre = np.unique(mul[mul[f, :], e])
    prod_ab = mul[np.ix_(erf, fre)]
    hits = np.argwhere(prod_ab == e)
    for i, j in hits:
        a, b = int(erf[i]), int(fre[j])
        if int(mul[b, a]) == f:
            return a, b
    return None


@dataclass(frozen=True)
class IdempotentDecomposition:
    """A complete orthogonal set of primitive idempotents, grouped by the
    isomorphism class of the left ideals they generate: a plain frozen
    record.  The unseeded decomposition is kept on the ring and shared by
    every caller over it; the per-class arrays that a projective-cover count
    reads are a cached property, built the first time one is asked for."""

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


def primitive_decomposition(
    ring: FiniteRing,
    cfg: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> IdempotentDecomposition:
    """Refine {1} into a complete orthogonal set of primitive idempotents.

    Each non-primitive idempotent e splits as {f, e-f} for an idempotent f of
    the corner eRe; the count strictly increases, so refinement terminates.
    The search order is ascending by element index unless an rng is supplied
    (the randomized mode exists for the order-invariance property test).

    The unseeded result depends only on the ring's tables, so it is computed
    once and kept on the ring; a seeded call neither reads nor writes it.  A
    kept decomposition with a P_i above ``cfg.max_module`` is not returned:
    the computation runs again and raises the cap error.
    """
    cfg = cfg or DEFAULTS
    if rng is not None:
        return _decompose(ring, cfg, rng)
    kept = ring._decomposition
    if kept is None or max(kept.sizes, default=0) > cfg.max_module:
        kept = ring._decomposition = _decompose(ring, cfg, None)
    return kept


def _decompose(
    ring: FiniteRing, cfg: EngineConfig, rng: np.random.Generator | None
) -> IdempotentDecomposition:
    if ring.size == 1:
        return IdempotentDecomposition(ring, (), (), (), ())

    order = None
    if rng is not None:
        order = rng.permutation(ring.size)
    work = [ring.one]
    primitive: list[int] = []
    while work:
        e = work.pop(0)
        if e == 0:
            raise ConsistencyError(f"{ring.label}: zero appeared during refinement")
        f = _corner_idempotent(ring, e, order)
        if f is None:
            primitive.append(e)
        else:
            work.append(f)
            work.append(ring.sub(e, f))

    primitive.sort()
    groups: list[list[int]] = []
    for e in primitive:
        for group in groups:
            if corner_isomorphism(ring, group[0], e) is not None:
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


# -- indecomposable registry and signatures --------------------------------------


class IndecomposableRegistry:
    """Per-ring registry of indecomposable isomorphism classes.

    The registry is the engine's only mutable store; callers must serialize
    writes (single-writer).  New modules are matched against existing classes
    of the same size by direct isomorphism search.
    """

    def __init__(self):
        self.representatives: list[FiniteModule] = []

    def classify(self, module: FiniteModule, cfg: EngineConfig | None = None) -> int:
        cfg = cfg or DEFAULTS
        for class_id, rep in enumerate(self.representatives):
            if rep.size != module.size:
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


def krull_schmidt(
    module: FiniteModule,
    cfg: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
    registry: IndecomposableRegistry | None = None,
) -> DecompositionSignature:
    """Decompose into indecomposables by splitting idempotent endomorphisms.

    An idempotent pi splits M = pi(M) (+) (1 - pi)(M); each half is presented
    once, from the images pi(g_j) and the g_j - pi(g_j) of M's generators,
    and their sizes must multiply to |M|.  Requires End(M) searches within
    the hom cap.  The output multiset does not depend on the search order;
    the seeded mode exists to test exactly that.
    """
    cfg = cfg or DEFAULTS
    registry = registry or get_registry(module.ring)
    if module.size == 1:
        return DecompositionSignature(registry, ())

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

    A true verdict carries an explicit isomorphism when the search space is
    small, otherwise the common signature; a false verdict carries the
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
