"""Finite left modules given by presentations over a finite ring.

A module is the quotient of a free cover R^g by a relation submodule K.
Elements of the free cover R^g are single integers with base-|R| digits as
coordinates, so a cover index is mixed radix over R's additive orders
repeated g times.  When every order is a power of two, cover addition is the
lane sum of ``rings._lane_sum`` on the indices themselves; otherwise it
decodes both indices, adds the digits with ``FiniteRing.add`` and encodes the
result.  Every module is built by one constructor, ``FiniteModule``, from an
additive map phi on the free cover whose kernel is K: the classes of phi are
labeled 0..m-1 in order of their least cover index, so representatives are
deterministic, and the carrier cap is checked there.  Free modules, direct
sums, submodules, quotients and the P_i = Re all pass their cover map.  The
action table is gathered off the free cover, r x = phi(r rep(x)); the regular
module shares the ring's multiplication table and adds with ``FiniteRing.add``.
:func:`verify_module_axioms` checks it against the doubling fill of the
action of R's additive generators, the one that also builds ring tables, and
is exact at every size: additivity reduces the module laws to checks on
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator, Sequence

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import ClosureError, check_cap
from .rings import (
    FiniteRing, _add_op, _add_rows, _lane_sum, base_digits, base_index, central_primitive_idempotents, rows_additive
)
from .subgroup import generators, lattice, walk, zero

_MODULE_ADD_TABLE_LIMIT = 2048
_LATTICE_LIMIT = 20_000  # submodules in one lattice
# Entries per block of rows of the addition and action tables.
_BLOCK = 1 << 16
# Tuples evaluated per block by ``solution_blocks``: the int64 temporaries of a
# block (128 KB each) are reused from the heap instead of being mapped and
# faulted afresh.
_SOLUTION_BLOCK = 1 << 14


class FiniteModule:
    """The finite left module R^g / ker(phi) for an additive map phi on the
    free cover R^g, given as an array of |R|^g values.

    This is the one constructor: the classes of phi are ranked by their least
    cover index, which gives ``cls`` (cover index -> label), ``rep`` (label ->
    least cover index), ``size`` and the relation submodule ``relations``
    (the cover indices of class 0).  A carrier above ``cfg.max_module``
    raises SizeCapError.  When g = 1 and K = 0 the ranking makes ``cls`` the
    identity on R: this regular module shares R's multiplication table as
    its action table and adds with R's addition.
    """

    def __init__(
        self, ring: FiniteRing, num_generators: int, phi, label: str, cfg: EngineConfig | None = None
    ):
        cfg = cfg or DEFAULTS
        phi = np.asarray(phi, dtype=np.int64)
        cover = np.arange(len(phi))
        first = np.full(int(phi.max()) + 1, len(phi))  # first[v]: the least w with phi(w) = v
        np.minimum.at(first, phi, cover)
        self.rep = np.flatnonzero(first[phi] == cover)
        self.size = len(self.rep)
        message = f"{label}: module size {self.size} above cap {cfg.max_module}"
        check_cap("max_module", self.size, cfg.max_module, message)
        rank = np.empty_like(first)
        rank[phi[self.rep]] = np.arange(self.size)
        self.cls = rank[phi]
        self.ring = ring
        self.num_generators = int(num_generators)
        self.label = label
        self.cover_size = ring.size**self.num_generators
        # A cover index is mixed radix over R's orders repeated g times.
        self._cover_lane = _lane_sum(ring.orders * self.num_generators)
        self.relations = np.flatnonzero(self.cls == 0)
        basis = ring.one * np.eye(self.num_generators, dtype=np.int64)
        self.gens = tuple(self.cls[self._cover_encode(basis)].tolist())
        self._regular = self.num_generators == 1 and self.size == ring.size
        self._act_table = ring.mul_table if self._regular else None
        self._add_table: np.ndarray | None = None
        self._relation_gens: np.ndarray | None = None  # set by _relation_generators
        self._pp_masks: dict = {}  # filled by pp._solution_mask
        self._cover_counts: tuple | None = None  # set by properties._cover: the a_i and JM's mask

    # -- free-cover arithmetic (indices with base-|R| digits) -------------------

    def _cover_digits(self, w) -> np.ndarray:
        return base_digits(w, self.ring.size, self.num_generators)

    def _cover_encode(self, digits) -> np.ndarray:
        """The free-cover indices of digit vectors along the last axis."""
        return base_index(digits, self.ring.size)

    def cover_add(self, u, v) -> np.ndarray:
        if self._cover_lane is not None:
            return self._cover_lane(u, v)
        du, dv = self._cover_digits(u), self._cover_digits(v)
        return self._cover_encode(self.ring.add(du, dv))

    def cover_act(self, r, u) -> np.ndarray:
        return self._cover_encode(self.ring.mul_table[r, self._cover_digits(u)])

    # -- carrier operations -----------------------------------------------------

    @property
    def act_table(self) -> np.ndarray:
        """(|R|, size) int32 table of the left action on carrier elements.

        Entry (r, x) is the class of r·rep[x] in the free cover, one gather
        per row block of at most ``_BLOCK`` entries; no addition table is
        needed.  The regular module's is the ring's multiplication table.
        """
        if self._act_table is None:
            ring = self.ring
            table = np.empty((ring.size, self.size), dtype=np.int32)
            step = max(1, _BLOCK // self.size)
            for start in range(0, ring.size, step):
                rows = np.arange(start, min(start + step, ring.size))
                table[start : start + step] = self.cls[self.cover_act(rows[:, None, None], self.rep)]
            self._act_table = table
        return self._act_table

    @property
    def add_table(self) -> np.ndarray | None:
        """(size, size) addition table up to ``_MODULE_ADD_TABLE_LIMIT``
        elements, built in row blocks of at most ``_BLOCK`` entries.  The
        regular module never reads it: it adds with the ring's addition."""
        if self._add_table is None and self.size <= _MODULE_ADD_TABLE_LIMIT:
            table = np.empty((self.size, self.size), dtype=np.int32)
            step = max(1, _BLOCK // self.size)
            for start in range(0, self.size, step):
                rows = self.rep[start : start + step, None]
                table[start : start + step] = self.cls[self.cover_add(rows, self.rep)]
            self._add_table = table
        return self._add_table

    def _add_op(self):
        """Addition as an op rows + s of ``rings._fill``: the ring's own for
        the regular module, else a bare gather when the table exists.  Other
        modules' labels are ranked, not bit fields, so they add by no lanes."""
        if self._regular:
            return _add_op(self.ring)
        table = self.add_table
        return self.add if table is None else _add_rows(table)

    def add(self, x, y):
        if self._regular:
            return self.ring.add(x, y)
        table = self.add_table
        if table is not None:
            out = table[x, y]
        else:
            out = self.cls[self.cover_add(self.rep[x], self.rep[y])]
        return int(out) if np.ndim(out) == 0 else out

    def neg(self, x):
        """-x, as the action of -1."""
        out = self.act_table[self.ring.neg(self.ring.one), x]
        return int(out) if np.ndim(out) == 0 else out

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def act(self, r, x):
        out = self.act_table[r, x]
        return int(out) if np.ndim(out) == 0 else out

    def combine(self, coeffs, elements):
        """sum_i coeffs[i]·elements[i]: the one evaluator of R-linear combinations.

        Each coefficient is a ring element or an array of them, each element a
        carrier element or an array of them; arrays broadcast.  A scalar
        coefficient gathers one row of the action table.  No terms give zeros
        of the shape of one coefficient, ``np.shape(coeffs)[1:]``.
        """
        act = self.act_table
        total = None
        for c, y in zip(coeffs, elements):
            term = act[c, y] if isinstance(c, np.ndarray) else act[int(c)][y]
            total = term if total is None else self.add(total, term)
        return np.zeros(np.shape(coeffs)[1:], dtype=np.int64) if total is None else total

    @property
    def zero(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.size)

    def coords(self, x) -> np.ndarray:
        """Generator coordinates of the least representative of x."""
        return self._cover_digits(self.rep[x])

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"FiniteModule({self.label!r}, size={self.size}, over={self.ring.label!r})"


# -- the free cover R^g: indices with base-|R| digits as coordinates -------------


def _check_cover(ring: FiniteRing, g: int, label: str, cfg: EngineConfig) -> int:
    """|R|^g, refused above max(max_module, max_homs): a presentation holds
    arrays over its whole free cover."""
    cover, limit = ring.size**g, max(cfg.max_module, cfg.max_homs)
    check_cap("free_cover", cover, limit, f"{label}: free cover {cover} above cap")
    return cover


def free_module(ring: FiniteRing, rank: int, cfg: EngineConfig | None = None) -> FiniteModule:
    """The free module R^rank with coordinatewise action."""
    cfg = cfg or DEFAULTS
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    size = ring.size**rank
    message = f"free module {ring.label}^{rank}: size {size} above cap {cfg.max_module}"
    check_cap("max_module", size, cfg.max_module, message)
    return FiniteModule(ring, rank, np.arange(size), f"{ring.label}^{rank}", cfg)


def regular_module(ring: FiniteRing, cfg: EngineConfig | None = None) -> FiniteModule:
    return free_module(ring, 1, cfg)


def verify_module_axioms(module: FiniteModule) -> bool:
    """Check the module laws exactly, at every size.

    With e_i the additive generators of R, of orders n_i, and F the images of
    the free cover's generators, which generate M additively:

    - (-e_i) x = -(e_i x), i.e. n_i (e_i x) = 0, and each row r x is the sum
      of r_i (e_i x) (``rings.rows_additive``, in row blocks of the table):
      together (r + s) x = r x + s x;
    - e_i (x + f) = e_i x + e_i f for every x and every f in F: since every
      row is a sum of generator rows, r (x + y) = r x + r y;
    - (e_i e_j) f = e_i (e_j f) and 1 f = f for f in F, which suffices since
      both sides of each law are then additive in every argument.
    """
    ring = module.ring
    table = module.act_table
    m = module.size
    if table.min() < 0 or table.max() >= m:
        return False
    gens = ring._gens
    rows = table[gens]  # e_i x
    if (module.add(table[ring.neg(gens)], rows) != 0).any():
        return False
    if not rows_additive(ring, table, module._add_op()):
        return False
    cover_gens = module._cover_encode(gens[:, None, None] * np.eye(module.num_generators, dtype=np.int64))
    f = module.cls[cover_gens.ravel()]
    sums = module.add(np.arange(m)[:, None], f[None, :])
    if not np.array_equal(rows[:, sums], module.add(rows[:, :, None], rows[:, None, f])):
        return False
    products = table[ring.gen_products[:, :, None], f]
    if not np.array_equal(products, table[gens[:, None, None], table[gens][None, :, f]]):
        return False
    return bool(np.array_equal(table[ring.one, f], f))


# -- submodules ------------------------------------------------------------------


def cyclic_submodule(module: FiniteModule, x: int) -> np.ndarray:
    """R*x as sorted element indices (already closed under + and the action)."""
    return np.unique(module.act_table[:, x]).astype(np.int64)


def _submodule_generators(module: FiniteModule, elements: np.ndarray) -> tuple[int, ...] | None:
    """The greedy additive generators of ``subgroup.walk`` when the elements
    form a submodule, else None: one walk decides both.

    The elements form an additive subgroup iff their span marks exactly them,
    and an additive subgroup closed under the action of each e_i is closed
    under R.
    """
    if len(elements) == 0 or 0 not in elements:
        return None
    mask = np.zeros(module.size, dtype=bool)
    mask[elements] = True
    spanned = zero(module.size)
    picked = walk(module.add, spanned, elements)
    if not np.array_equal(spanned, mask):
        return None
    if not mask[module.act_table[np.ix_(module.ring._gens, elements)]].all():
        return None
    return picked


def _submodule_lattice(module: FiniteModule, limit: int = _LATTICE_LIMIT) -> list[tuple]:
    """``all_submodules``, each N with the seeds w of the parts R·w it joins."""
    act = module.act_table
    blocks = (
        (cyclic_submodule(module, x) for x in np.unique(act[c]))
        for c in central_primitive_idempotents(module.ring)
    )
    return lattice(module.add, module.size, blocks, limit, f"{module.label}: submodule lattice")


def all_submodules(module: FiniteModule, limit: int = _LATTICE_LIMIT) -> list[np.ndarray]:
    """Every submodule, sorted by size then elements, as sorted element indices:
    ``subgroup.lattice`` over the cyclic submodules R·x, x in c_b·M, one block
    per central primitive idempotent c_b.  More than ``limit`` submodules
    raises SizeCapError.
    """
    return [sub for sub, _ in _submodule_lattice(module, limit)]


def _present(module: FiniteModule, generators: Sequence[int], label: str, cfg: EngineConfig) -> FiniteModule:
    """The submodule generated by ``generators`` as a module of its own: the
    map R^g -> M onto it, g its distinct nonzero generators in order."""
    gens = [x for x in dict.fromkeys(int(v) for v in generators) if x != 0]
    ring = module.ring
    digits = base_digits(np.arange(_check_cover(ring, len(gens), label, cfg)), ring.size, len(gens))
    return FiniteModule(ring, len(gens), module.combine(digits.T, gens), label, cfg)


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
        reached = zero(module.size)
        generators = walk(module.add, reached, elements, lambda x: module.act_table[module.ring._gens, x])
        if np.count_nonzero(reached) != len(elements):
            raise ClosureError(f"{module.label}: elements do not form a submodule")
    elif len(elements) > 1 and not any(generators):
        raise ClosureError("trivial generators for a nontrivial submodule")
    label = label or f"sub[{len(elements)}]({module.label})"
    sub = _present(module, generators, label, cfg)
    if sub.size != len(elements):
        raise ClosureError(f"{label}: presentation size {sub.size} != submodule {len(elements)}")
    return sub


def quotient_module(
    module: FiniteModule,
    submodule: np.ndarray | Sequence[int],
    label: str | None = None,
    cfg: EngineConfig | None = None,
) -> FiniteModule:
    """M / N for a submodule N given by its carrier element indices.  Over a
    free base R^g the relation submodule K is N: its generators are kept."""
    sub = np.unique(np.asarray(submodule, dtype=np.int64))
    sub_gens = _submodule_generators(module, sub)
    if sub_gens is None:
        raise ClosureError(f"{module.label}: quotient by a non-submodule")
    return _quotient(module, sub, np.array(sub_gens, dtype=np.int64), label, cfg)


def _quotient(module: FiniteModule, sub: np.ndarray, sub_gens: np.ndarray, label, cfg) -> FiniteModule:
    """``quotient_module`` for a submodule N (sorted) spanned additively by ``sub_gens``: no walk over N."""
    cfg = cfg or DEFAULTS
    if len(sub) == 1:
        return module
    label = label or f"({module.label})/[{len(sub)}]"
    _check_cover(module.ring, module.num_generators, label, cfg)
    # best[x] becomes the least label in x + N: doubling along each additive
    # generator h of N, whose order divides R's additive exponent.
    carrier = np.arange(module.size)
    best = carrier
    rounds = (lcm(*module.ring.orders) - 1).bit_length()
    for h in sub_gens.tolist():
        for _ in range(rounds):
            best = np.minimum(best, best[module.add(carrier, h)])
            h = module.add(h, h)
    quotient = FiniteModule(module.ring, module.num_generators, best[module.cls], label, cfg)
    if module.size == module.cover_size:  # free: K = N in cover indices
        sub_gens.flags.writeable = False
        quotient._relation_gens = sub_gens
    return quotient


def direct_sum(
    a: FiniteModule, b: FiniteModule, cfg: EngineConfig | None = None
) -> FiniteModule:
    """Componentwise direct sum; generator lists concatenate."""
    cfg = cfg or DEFAULTS
    if a.ring is not b.ring:
        raise ValueError(f"direct sum across rings {a.ring.label} vs {b.ring.label}")
    g = a.num_generators + b.num_generators
    label = f"{a.label} (+) {b.label}"
    w = np.arange(_check_cover(a.ring, g, label, cfg), dtype=np.int64)
    # The class of (x, y) has least cover index rep_a[x] + |cover a|·rep_b[y],
    # so it is labelled x + |a|·y.
    return FiniteModule(a.ring, g, a.cls[w % a.cover_size] + a.size * b.cls[w // a.cover_size], label, cfg)


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


def identity_hom(module: FiniteModule) -> ModuleHom:
    return ModuleHom(module, module, np.arange(module.size, dtype=np.int64))


def _relation_generators(module: FiniteModule) -> np.ndarray:
    """Additive generators of the relation submodule inside the free cover,
    computed once per module, or kept by a quotient R^g / N, whose K is N."""
    if module._relation_gens is None:
        gens = np.array(generators(module.cover_add, module.cover_size, module.relations), dtype=np.int64)
        gens.flags.writeable = False
        module._relation_gens = gens
    return module._relation_gens


def solution_blocks(
    module: FiniteModule,
    rows: np.ndarray,
    cfg: EngineConfig,
    what: str,
    rng: np.random.Generator | None = None,
) -> Iterator[np.ndarray]:
    """The tuples (y_1..y_n) of M^n with sum_j c_j·y_j = 0 for every row c of
    the (k, n) ring-element array ``rows``, one (n, s) array of carrier
    elements per ``_SOLUTION_BLOCK`` tuples scanned, column j holding the
    j-th solution of the block; blocks without a solution are skipped.

    Without an rng the tuples come in ascending order.  With one they follow
    the seeded affine permutation w -> (a*w + b) mod |M|^n, gcd(a, |M|^n) = 1,
    so either way every solution comes exactly once.  The cap check and the
    draws happen on the call, before any block: a space above
    ``cfg.max_homs`` raises SizeCapError("<what> <space> above cap ...").
    Tuple indices are decoded here alone; callers read the coordinates.
    """
    m, width = module.size, rows.shape[1]
    space = m**width
    check_cap("max_homs", space, cfg.max_homs, f"{what} {space} above cap {cfg.max_homs}")
    a, b = 1, 0
    if rng is not None and space > 1:
        a = int(rng.integers(1, space))
        while gcd(a, space) != 1:
            a = int(rng.integers(1, space))
        b = int(rng.integers(0, space))
    coefficient_rows = rows.tolist()

    def scan() -> Iterator[np.ndarray]:
        for start in range(0, space, _SOLUTION_BLOCK):
            block = np.arange(start, min(start + _SOLUTION_BLOCK, space), dtype=np.int64)
            if rng is not None:
                block = (a * block + b) % space
            ys = base_digits(block, m, width).T
            ok = np.ones(len(block), dtype=bool)
            for row in coefficient_rows:
                ok &= module.combine(row, ys) == 0
            if ok.any():
                yield ys[:, ok]

    return scan()


def hom_candidate_blocks(
    source: FiniteModule,
    target: FiniteModule,
    cfg: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> Iterator[np.ndarray]:
    """Generator-image tuples (y_1..y_g) that define module maps, as the
    (g, s) blocks of ``solution_blocks`` over the target: a tuple defines a
    map iff every relation of the source annihilates it, and checking the
    additive generators of the relation submodule suffices because the
    constraint is additive in the relation.
    """
    rows = source._cover_digits(_relation_generators(source))  # (#gens, g) ring coefficients
    what = f"hom search {source.label} -> {target.label}: candidate space"
    return solution_blocks(target, rows, cfg or DEFAULTS, what, rng)


def _homs(source: FiniteModule, target: FiniteModule, cfg: EngineConfig | None) -> Iterator[ModuleHom]:
    """Every module map source -> target, in the order of its generator-image
    tuple in ``hom_candidate_blocks``; each table is sum_i c_i·y_i over the
    source's carrier coordinates c, decoded once per search."""
    coords = source.coords(np.arange(source.size)).T  # (g, size)
    for block in hom_candidate_blocks(source, target, cfg):
        for images in block.T:
            yield ModuleHom(source, target, target.combine(coords, images))


def hom_enumerate(
    source: FiniteModule, target: FiniteModule, cfg: EngineConfig | None = None
) -> list[ModuleHom]:
    """All module maps source -> target, ordered by generator-image tuples."""
    return list(_homs(source, target, cfg))


def find_bijective_hom(
    a: FiniteModule, b: FiniteModule, cfg: EngineConfig | None = None
) -> ModuleHom | None:
    """Direct search for an isomorphism, None if none exists: the first
    bijective map of :func:`hom_enumerate`."""
    if a.size != b.size:
        return None
    return next((hom for hom in _homs(a, b, cfg) if hom.is_bijective), None)
