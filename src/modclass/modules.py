"""Finite left modules given by presentations over a finite ring.

A module is the quotient of a free cover R^g by a relation submodule K.  The
carrier relabels cosets 0..m-1 in order of their least free-cover index, so
representatives are deterministic.  Elements of the free cover R^g are single
integers with base-|R| digits as coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import ClosureError, SizeCapError
from .rings import FiniteRing
from .subgroup import generators, grow, span

_MODULE_ADD_TABLE_LIMIT = 2048
# Entries per vectorized block: rows of the action table, hom candidates.
_BLOCK = 1 << 16


class FiniteModule:
    """A finite left module with an explicit coset-representative carrier."""

    def __init__(
        self,
        ring: FiniteRing,
        num_generators: int,
        relations: np.ndarray,
        cls: np.ndarray,
        rep: np.ndarray,
        label: str,
    ):
        ring.require_tables("FiniteModule")
        self.ring = ring
        self.num_generators = int(num_generators)
        self.relations = np.asarray(relations, dtype=np.int64)
        self.cls = np.asarray(cls, dtype=np.int64)
        self.rep = np.asarray(rep, dtype=np.int64)
        self.size = len(self.rep)
        self.label = label
        self.cover_size = ring.size**self.num_generators
        if self.size * len(self.relations) != self.cover_size:
            raise ClosureError(
                f"{label}: carrier size {self.size} x relations {len(self.relations)} "
                f"!= cover {self.cover_size}"
            )
        one = ring.one
        self.gens = tuple(
            int(self.cls[one * ring.size**i]) for i in range(self.num_generators)
        )
        self._act_table: np.ndarray | None = None
        self._add_table: np.ndarray | None = None
        self._neg: np.ndarray | None = None
        self._relation_gens: np.ndarray | None = None  # set by _relation_generators
        self._signature_cache = None  # set by decompose.krull_schmidt

    # -- free-cover arithmetic (indices with base-|R| digits) -------------------

    def _cover_digits(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.int64)
        n = self.ring.size
        powers = n ** np.arange(self.num_generators, dtype=np.int64)
        return (w[..., None] // powers) % n

    def _cover_encode(self, digits) -> np.ndarray:
        n = self.ring.size
        powers = n ** np.arange(self.num_generators, dtype=np.int64)
        return (np.asarray(digits, dtype=np.int64) * powers).sum(axis=-1)

    def cover_add(self, u, v) -> np.ndarray:
        du, dv = self._cover_digits(u), self._cover_digits(v)
        return self._cover_encode(self.ring.add_table[du, dv])

    def cover_neg(self, u) -> np.ndarray:
        return self._cover_encode(self.ring.neg_table[self._cover_digits(u)])

    def cover_act(self, r, u) -> np.ndarray:
        return self._cover_encode(self.ring.mul_table[r, self._cover_digits(u)])

    # -- carrier operations -----------------------------------------------------

    @property
    def act_table(self) -> np.ndarray:
        """(|R|, size) table of the left action on carrier elements.

        Built in blocks of ring elements, at most ``_BLOCK`` cover digits each,
        so no (|R|, size, g) intermediate is ever allocated.
        """
        if self._act_table is None:
            digits = self._cover_digits(self.rep)  # (size, g)
            n, g = self.ring.size, self.num_generators
            powers = n ** np.arange(g, dtype=np.int64)
            mul = self.ring.mul_table
            out = np.empty((n, self.size), dtype=np.int32)
            step = max(1, _BLOCK // (self.size * max(1, g)))
            for start in range(0, n, step):
                stop = min(start + step, n)
                acted = np.zeros((stop - start, self.size), dtype=np.int64)
                for i in range(g):
                    acted += mul[start:stop, digits[:, i]] * powers[i]
                out[start:stop] = self.cls[acted]
            self._act_table = out
        return self._act_table

    @property
    def add_table(self) -> np.ndarray | None:
        if self._add_table is None and self.size <= _MODULE_ADD_TABLE_LIMIT:
            sums = self.cover_add(self.rep[:, None], self.rep[None, :])
            self._add_table = self.cls[sums].astype(np.int32)
        return self._add_table

    def add(self, x, y):
        table = self.add_table
        if table is not None:
            out = table[x, y]
        else:
            out = self.cls[self.cover_add(self.rep[x], self.rep[y])]
        return int(out) if np.ndim(out) == 0 else out

    def neg(self, x):
        if self._neg is None:
            self._neg = self.cls[self.cover_neg(self.rep)]
        out = self._neg[x]
        return int(out) if np.ndim(out) == 0 else out

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def act(self, r, x):
        out = self.act_table[r, x]
        return int(out) if np.ndim(out) == 0 else out

    @property
    def zero(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.size)

    def coords(self, x) -> np.ndarray:
        """Generator coordinates of the least representative of x."""
        return self._cover_digits(self.rep[x])

    def eval_coords(self, digits) -> np.ndarray:
        """Image in the module of free-cover coordinate vectors."""
        return self.cls[self._cover_encode(digits)]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"FiniteModule({self.label!r}, size={self.size}, over={self.ring.label!r})"


def module_from_relations(
    ring: FiniteRing,
    num_generators: int,
    relations: Iterable[int],
    label: str,
    cfg: EngineConfig | None = None,
) -> FiniteModule:
    """Carrier for R^g / K with cosets labeled by ascending least representative."""
    cfg = cfg or DEFAULTS
    cover = ring.size**num_generators
    if cover > max(cfg.max_module, cfg.max_homs):
        raise SizeCapError(f"{label}: free cover {cover} above cap")
    k = np.unique(np.asarray(list(relations), dtype=np.int64))
    if len(k) == 0 or k[0] != 0:
        raise ClosureError(f"{label}: relation set must contain 0")
    if len(k) == cover:
        cls = np.zeros(cover, dtype=np.int64)
        rep = np.zeros(1, dtype=np.int64)
        return FiniteModule(ring, num_generators, k, cls, rep, label)
    cls = np.full(cover, -1, dtype=np.int64)
    reps: list[int] = []
    powers = ring.size ** np.arange(num_generators, dtype=np.int64)
    kd = (k[:, None] // powers) % ring.size  # relation digits, fixed
    next_id = 0
    for w in range(cover):
        if cls[w] >= 0:
            continue
        wd = (w // powers) % ring.size
        coset = ((ring.add_table[wd, kd]) * powers).sum(axis=1)
        if (cls[coset] >= 0).any():
            raise ClosureError(f"{label}: relation set is not an additive subgroup")
        cls[coset] = next_id
        reps.append(w)
        next_id += 1
    module = FiniteModule(ring, num_generators, k, cls, np.array(reps), label)
    if module.size > cfg.max_module:
        raise SizeCapError(f"{label}: module size {module.size} above cap {cfg.max_module}")
    return module


def free_module(ring: FiniteRing, rank: int, cfg: EngineConfig | None = None) -> FiniteModule:
    """The free module R^rank with coordinatewise action."""
    cfg = cfg or DEFAULTS
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    size = ring.size**rank
    if size > cfg.max_module:
        raise SizeCapError(
            f"free module {ring.label}^{rank}: size {size} above cap {cfg.max_module}"
        )
    label = f"{ring.label}^{rank}"
    if rank == 0:
        return module_from_relations(ring, 0, [0], label, cfg)
    idx = np.arange(size, dtype=np.int64)
    return FiniteModule(ring, rank, np.array([0]), idx, idx.copy(), label)


def regular_module(ring: FiniteRing, cfg: EngineConfig | None = None) -> FiniteModule:
    return free_module(ring, 1, cfg)


def verify_module_axioms(module: FiniteModule, cfg: EngineConfig | None = None) -> bool:
    """Check the module laws, exhaustively for small carriers, sampled above."""
    cfg = cfg or DEFAULTS
    ring = module.ring
    n, m = ring.size, module.size
    if n * n * m <= 2_000_000:
        r = np.arange(n)[:, None, None]
        s = np.arange(n)[None, :, None]
        x = np.arange(m)[None, None, :]
        r_b = np.broadcast_to(r, (n, n, m))
        s_b = np.broadcast_to(s, (n, n, m))
        x_b = np.broadcast_to(x, (n, n, m))
        if not np.array_equal(
            module.act_table[ring.add_table[r_b, s_b], x_b],
            module.add(module.act_table[r_b, x_b], module.act_table[s_b, x_b]),
        ):
            return False
        if not np.array_equal(
            module.act_table[ring.mul_table[r_b, s_b], x_b],
            module.act_table[r_b, module.act_table[s_b, x_b]],
        ):
            return False
    else:
        rng = np.random.default_rng(0)
        r = rng.integers(0, n, 100_000)
        s = rng.integers(0, n, 100_000)
        x = rng.integers(0, m, 100_000)
        if not np.array_equal(
            module.act_table[ring.add(r, s), x],
            module.add(module.act_table[r, x], module.act_table[s, x]),
        ):
            return False
        if not np.array_equal(
            module.act_table[ring.mul(r, s), x],
            module.act_table[r, module.act_table[s, x]],
        ):
            return False
    if n * m * m <= 2_000_000:
        r = np.arange(n)[:, None, None]
        x = np.arange(m)[None, :, None]
        y = np.arange(m)[None, None, :]
        r_b = np.broadcast_to(r, (n, m, m))
        x_b = np.broadcast_to(x, (n, m, m))
        y_b = np.broadcast_to(y, (n, m, m))
        if not np.array_equal(
            module.act_table[r_b, module.add(x_b, y_b)],
            module.add(module.act_table[r_b, x_b], module.act_table[r_b, y_b]),
        ):
            return False
    else:
        rng = np.random.default_rng(1)
        r = rng.integers(0, n, 100_000)
        x = rng.integers(0, m, 100_000)
        y = rng.integers(0, m, 100_000)
        if not np.array_equal(
            module.act_table[r, module.add(x, y)],
            module.add(module.act_table[r, x], module.act_table[r, y]),
        ):
            return False
    return bool(np.array_equal(module.act_table[ring.one], np.arange(m)))


# -- submodules ------------------------------------------------------------------


def cyclic_submodule(module: FiniteModule, x: int) -> np.ndarray:
    """R*x as sorted element indices (already closed under + and the action)."""
    return np.unique(module.act_table[:, x]).astype(np.int64)


def submodule_generated(module: FiniteModule, seeds: Sequence[int]) -> np.ndarray:
    """Least submodule containing the seeds: the additive span of their cyclic submodules."""
    gens = [g for s in seeds for g in cyclic_submodule(module, int(s))]
    return np.flatnonzero(span(module.add, module.size, gens))


def is_submodule(module: FiniteModule, elements: np.ndarray) -> bool:
    elements = np.asarray(elements, dtype=np.int64)
    if len(elements) == 0 or 0 not in elements:
        return False
    mask = np.zeros(module.size, dtype=bool)
    mask[elements] = True
    if not mask[module.add(elements[:, None], elements[None, :])].all():
        return False
    return bool(mask[module.act_table[:, elements]].all())


def all_submodules(
    module: FiniteModule, cfg: EngineConfig | None = None, limit: int = 20_000
) -> list[np.ndarray]:
    """Every submodule, sorted by size then elements, as sorted element indices.

    Every submodule is a sum of cyclic ones, so the lattice is the closure of
    the cyclic submodules under joins with a cyclic one.  A join A + R*x grows
    A's mask by an additive generating set of R*x.  More than ``limit``
    submodules raises SizeCapError.
    """
    cyclics: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}
    for x in range(module.size):
        sub = cyclic_submodule(module, x)
        key = sub.tobytes()
        if key not in cyclics:
            cyclics[key] = (sub, generators(module.add, module.size, sub))
    found: dict[bytes, np.ndarray] = {key: sub for key, (sub, _) in cyclics.items()}
    queue = list(found.keys())
    while queue:
        base = np.zeros(module.size, dtype=bool)
        base[found[queue.pop()]] = True
        for csub, cgens in cyclics.values():
            if base[csub].all():
                continue
            mask = base.copy()
            for g in cgens:
                grow(module.add, mask, g)
            joined = np.flatnonzero(mask)
            jkey = joined.tobytes()
            if jkey not in found:
                if len(found) >= limit:
                    raise SizeCapError(f"{module.label}: submodule lattice above {limit}")
                found[jkey] = joined
                queue.append(jkey)
    return sorted(found.values(), key=lambda a: (len(a), a.tolist()))


def submodule_as_module(
    module: FiniteModule,
    elements: np.ndarray,
    label: str | None = None,
    generators: Sequence[int] | None = None,
    cfg: EngineConfig | None = None,
) -> FiniteModule:
    """Present a submodule as a standalone module with its own carrier.

    Generators default to a greedy minimal set (ascending element index); a
    caller that already knows a generating set can pass it to skip the search.
    """
    cfg = cfg or DEFAULTS
    elements = np.asarray(elements, dtype=np.int64)
    if generators is None:
        gens: list[int] = []
        span = np.array([0], dtype=np.int64)
        for x in elements:
            if int(x) not in set(int(v) for v in span):
                gens.append(int(x))
                span = submodule_generated(module, gens)
        if len(span) != len(elements):
            raise ClosureError(f"{module.label}: elements do not form a submodule")
    else:
        gens = [x for x in dict.fromkeys(int(v) for v in generators) if x != 0]
        if not gens and len(elements) > 1:
            raise ClosureError("trivial generators for a nontrivial submodule")
    g = len(gens)
    ring = module.ring
    label = label or f"sub[{len(elements)}]({module.label})"
    if g == 0:
        return module_from_relations(ring, 0, [0], label, cfg)
    cover = ring.size**g
    if cover > max(cfg.max_module, cfg.max_homs):
        raise SizeCapError(f"{label}: relation scan space {cover} above cap")
    w = np.arange(cover, dtype=np.int64)
    powers = ring.size ** np.arange(g, dtype=np.int64)
    digits = (w[:, None] // powers) % ring.size
    values = np.zeros(cover, dtype=np.int64)
    for i, gen in enumerate(gens):
        values = module.add(values, module.act_table[digits[:, i], gen])
    relations = w[values == 0]
    sub = module_from_relations(ring, g, relations, label, cfg)
    if sub.size != len(elements):
        raise ClosureError(f"{label}: presentation size {sub.size} != submodule {len(elements)}")
    return sub


def quotient_module(
    module: FiniteModule,
    submodule: np.ndarray | Sequence[int],
    label: str | None = None,
    cfg: EngineConfig | None = None,
) -> FiniteModule:
    """M / N for a submodule N given by its carrier element indices."""
    cfg = cfg or DEFAULTS
    sub = np.unique(np.asarray(submodule, dtype=np.int64))
    if not is_submodule(module, sub):
        raise ClosureError(f"{module.label}: quotient by a non-submodule")
    if len(sub) == 1:
        return module
    in_sub = np.zeros(module.size, dtype=bool)
    in_sub[sub] = True
    relations = np.nonzero(in_sub[module.cls])[0]
    label = label or f"({module.label})/[{len(sub)}]"
    return module_from_relations(module.ring, module.num_generators, relations, label, cfg)


def direct_sum(
    a: FiniteModule, b: FiniteModule, cfg: EngineConfig | None = None
) -> FiniteModule:
    """Componentwise direct sum; generator lists concatenate."""
    cfg = cfg or DEFAULTS
    if a.ring is not b.ring:
        raise ValueError(f"direct sum across rings {a.ring.label} vs {b.ring.label}")
    size = a.size * b.size
    if size > cfg.max_module:
        raise SizeCapError(f"direct sum size {size} above cap {cfg.max_module}")
    ring = a.ring
    ga, gb = a.num_generators, b.num_generators
    shift = ring.size**ga
    ka = a.relations
    kb = b.relations
    relations = (ka[None, :] + kb[:, None] * shift).ravel()
    cover = ring.size ** (ga + gb)
    w = np.arange(cover, dtype=np.int64)
    cls = a.cls[w % shift] + b.cls[w // shift] * a.size
    ids = np.arange(size)
    rep = a.rep[ids % a.size] + b.rep[ids // a.size] * shift
    label = f"{a.label} (+) {b.label}"
    return FiniteModule(ring, ga + gb, np.unique(relations), cls, rep, label)


def zero_module(ring: FiniteRing, cfg: EngineConfig | None = None) -> FiniteModule:
    return free_module(ring, 0, cfg)


# -- homomorphisms ----------------------------------------------------------------


@dataclass(frozen=True)
class ModuleHom:
    """A module map stored as a full table on the source carrier."""

    source: FiniteModule
    target: FiniteModule
    table: np.ndarray

    def __call__(self, x):
        out = self.table[x]
        return int(out) if np.ndim(out) == 0 else out

    @property
    def is_bijective(self) -> bool:
        return self.source.size == self.target.size and len(np.unique(self.table)) == self.source.size

    def is_valid(self) -> bool:
        """Additivity plus commuting with the whole ring action."""
        src, tgt = self.source, self.target
        x = np.arange(src.size)
        sums = src.add(x[:, None], x[None, :])
        if not np.array_equal(self.table[sums], tgt.add(self.table[x][:, None], self.table[x][None, :])):
            return False
        acted = src.act_table[:, x]
        return bool(np.array_equal(self.table[acted], tgt.act_table[:, self.table]))

    def compose(self, inner: "ModuleHom") -> "ModuleHom":
        if inner.target is not self.source:
            raise ValueError("composition mismatch")
        return ModuleHom(inner.source, self.target, self.table[inner.table])


def identity_hom(module: FiniteModule) -> ModuleHom:
    return ModuleHom(module, module, np.arange(module.size, dtype=np.int64))


def _relation_generators(module: FiniteModule) -> np.ndarray:
    """Additive generators of the relation submodule inside the free cover
    (computed once per module)."""
    if module._relation_gens is None:
        gens = np.array(generators(module.cover_add, module.cover_size, module.relations), dtype=np.int64)
        gens.flags.writeable = False
        module._relation_gens = gens
    return module._relation_gens


def hom_candidate_space(source: FiniteModule, target: FiniteModule) -> int:
    return target.size**source.num_generators


def _hom_validator(
    source: FiniteModule, target: FiniteModule, cfg: EngineConfig | None
) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    """Size of the candidate space and a validity test on candidate indices.

    A candidate is a generator-image tuple (y_1..y_g) in base-|target| digits.
    It defines a module map iff every relation of the source annihilates it;
    checking the additive generators of the relation submodule suffices
    because the constraint is additive in the relation.
    """
    cfg = cfg or DEFAULTS
    space = hom_candidate_space(source, target)
    if space > cfg.max_homs:
        raise SizeCapError(
            f"hom search {source.label} -> {target.label}: "
            f"candidate space {space} above cap {cfg.max_homs}"
        )
    powers = target.size ** np.arange(source.num_generators, dtype=np.int64)
    rel_digits = source._cover_digits(_relation_generators(source))  # (#gens, g) ring coefficients

    def valid(candidates: np.ndarray) -> np.ndarray:
        images = [(candidates // power) % target.size for power in powers]
        ok = np.ones(len(candidates), dtype=bool)
        for row in rel_digits:
            acc = np.zeros(len(candidates), dtype=np.int64)
            for coeff, yi in zip(row, images):
                acc = target.add(acc, target.act_table[int(coeff), yi])
            ok &= acc == 0
        return ok

    return space, valid


def hom_image_mask(
    source: FiniteModule, target: FiniteModule, cfg: EngineConfig | None = None
) -> np.ndarray:
    """Validity mask over all generator-image tuples (base-|target| digits)."""
    space, valid = _hom_validator(source, target, cfg)
    return valid(np.arange(space, dtype=np.int64))


def hom_from_images(source: FiniteModule, target: FiniteModule, images: Sequence[int]) -> ModuleHom:
    """Extend generator images to the whole carrier by linearity."""
    digits = source._cover_digits(source.rep)  # (size, g)
    table = np.zeros(source.size, dtype=np.int64)
    for i, y in enumerate(images):
        table = target.add(table, target.act_table[digits[:, i], int(y)])
    return ModuleHom(source, target, table)


def _images_of(space_index: int, g: int, base: int) -> tuple[int, ...]:
    return tuple((space_index // base**i) % base for i in range(g))


def hom_enumerate(
    source: FiniteModule, target: FiniteModule, cfg: EngineConfig | None = None
) -> list[ModuleHom]:
    """All module maps source -> target, ordered by generator-image tuples."""
    cfg = cfg or DEFAULTS
    mask = hom_image_mask(source, target, cfg)
    homs = []
    for w in np.nonzero(mask)[0]:
        images = _images_of(int(w), source.num_generators, target.size)
        homs.append(hom_from_images(source, target, images))
    return homs


def hom_candidate_blocks(
    source: FiniteModule,
    target: FiniteModule,
    cfg: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> Iterator[np.ndarray]:
    """Valid generator-image tuples as arrays of candidate indices
    (base-|target| digits), one array per ``_BLOCK`` candidates scanned;
    blocks without a valid candidate are skipped.

    Without an rng the candidates come in ascending order.  With one they
    follow the seeded affine permutation w -> (a*w + b) mod space, gcd(a,
    space) = 1, so either way every valid candidate comes exactly once.
    """
    space, valid = _hom_validator(source, target, cfg)
    a, b = 1, 0
    if rng is not None and space > 1:
        a = int(rng.integers(1, space))
        while gcd(a, space) != 1:
            a = int(rng.integers(1, space))
        b = int(rng.integers(0, space))
    for start in range(0, space, _BLOCK):
        block = (a * np.arange(start, min(start + _BLOCK, space), dtype=np.int64) + b) % space
        ok = valid(block)
        if ok.any():
            yield block[ok]


def find_bijective_hom(
    a: FiniteModule, b: FiniteModule, cfg: EngineConfig | None = None
) -> ModuleHom | None:
    """Direct search for an isomorphism, None if none exists."""
    cfg = cfg or DEFAULTS
    if a.size != b.size:
        return None
    for block in hom_candidate_blocks(a, b, cfg):
        for w in block:
            hom = hom_from_images(a, b, _images_of(int(w), a.num_generators, b.size))
            if hom.is_bijective:
                return hom
    return None
