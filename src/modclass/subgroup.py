"""Additive subgroups of a finite abelian group, kept as boolean masks.

The group is a carrier {0, ..., size-1} with 0 as its identity and a
vectorized ``add``: ``add(xs, y)`` adds the element y to every entry of the
index array xs, and ``add(x, y)`` on two elements returns their sum.  Ring
addition, module addition and free-cover addition all have this form, so
every additive closure in the package (ideals, submodules, relation
submodules, the flatness images) runs through this module, and so do both
lattices, of one-sided ideals and of submodules (``lattice``).

A generated ideal or submodule is itself an additive span.  With e_i the
additive generators of a unital ring R, multiplication is biadditive, so
r·g·s = Σ r_i s_j (e_i g e_j): the two-sided ideal generated by S is the span
of the e_i g e_j for g in S, the left one the span of the e_i g, and the
submodule generated by S the span of the e_i s.

Lattices are built block by block.  With c_b the central primitive
idempotents of R, R = ∏ R·c_b, every module is M = (+) c_b·M and every
submodule is N = (+) c_b·N, so Sub(M) = ∏ Sub(c_b·M), and the same holds for
one-sided ideals.  ``lattice`` closes each block's cyclic parts under joins on
their own and returns every direct sum of one member per block: 335 = 5 x 67
submodules of R² over GF(2) x M(2,GF(2)) cost two small closures, not one
closure over 1024 elements.

A block is closed from its join-irreducible parts alone: every element of a
finite lattice is the join of the join-irreducibles below it, and a part is
join-irreducible iff the parts strictly inside it join to less than it.  The
67 submodules of R² over M(2,GF(2)) are the closure of {0} under joins with
its 15 simple submodules, not with all 51 cyclic ones.  Each member is
built once, from its canonical parent (``_join_closure``), and carries the
seeds w of the parts R·w it was joined from: its additive generators e_i·w
need no walk over it.  A join A + P is one sumset: the larger of the two
when one contains the other, else the cosets A + y, y in P, gathered in
blocks of at most 2^16 pairs, so that nested members cost no gather.

``grow`` adds one generator g to a marked subgroup H by doubling.  After i
rounds the mask holds H + {0, ..., 2^i - 1}·g.  The next round shifts
everything marked by x = 2^i·g, which gives H + {0, ..., 2^(i+1) - 1}·g, and
then sets x <- x + x.  Once x is already marked, 2^i·g = h + j·g with
j < 2^i, so d·g lies in H for some 1 <= d <= 2^i; the multiples 0..2^i - 1
then meet every coset of H in H + <g>, and the mask equals H + <g>.  Adding g
costs one ``add`` call per round, about log2 of the order of g modulo H.

``walk`` is the one greedy walk, and the only caller of ``grow``: it scans
elements in order, picks each one not yet marked and grows the mask by what
the pick generates, the pick itself for ``span`` and ``generators``, its
products e_i·x with R's additive generators for a generating set of a
submodule or of a projective cover, x·e_j for a right ideal.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import SizeCapError


def grow(add: Callable, mask: np.ndarray, g: int) -> np.ndarray:
    """Enlarge the subgroup H marked in ``mask`` to H + <g>, in place.

    ``mask`` must mark a subgroup.  Returns the newly marked elements, which
    is empty when g already lies in H.
    """
    x = int(g)
    if mask[x]:
        return np.zeros(0, dtype=np.int64)
    members = np.flatnonzero(mask)
    before = len(members)
    while not mask[x]:
        shifted = add(members, x)
        fresh = shifted[~mask[shifted]]
        mask[fresh] = True
        members = np.concatenate([members, fresh])
        x = int(add(x, x))
    return members[before:]


def zero(size: int) -> np.ndarray:
    """The mask of the subgroup {0} of a carrier of ``size`` elements."""
    mask = np.zeros(size, dtype=bool)
    mask[0] = True
    return mask


def walk(
    add: Callable, mask: np.ndarray, elements: Iterable[int], parts: Callable | None = None
) -> tuple[int, ...]:
    """Grow the subgroup marked in ``mask``, in place, by each of ``elements``
    not yet marked, in order, and return those picks.  A pick x grows the
    mask by every element of ``parts(x)``, by default by x alone."""
    picked = []
    for x in elements:
        if not mask[x]:
            for y in (x,) if parts is None else parts(x):
                grow(add, mask, y)
            picked.append(int(x))
    return tuple(picked)


def span(add: Callable, size: int, gens: Iterable[int]) -> np.ndarray:
    """Mask over the carrier of the subgroup generated by ``gens``."""
    mask = zero(size)
    walk(add, mask, gens)
    return mask


def generators(add: Callable, size: int, elements: Iterable[int]) -> tuple[int, ...]:
    """Greedy additive generating set of the subgroup spanned by ``elements``:
    the elements, in order, not yet spanned by those kept before them."""
    return walk(add, zero(size), elements)


# Pairs gathered per block of a sumset: the int64 operands of a block stay
# near 512 KB however large the two subgroups are.
_PAIRS = 1 << 16


def _sumset(
    add: Callable, a: np.ndarray, a_mask: np.ndarray, b: np.ndarray, b_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A + B as sorted element indices and as a mask, for two subgroups each
    given as sorted element indices and as a mask.

    When one contains the other the larger is returned as it is.  Otherwise
    A + B is the union of the cosets A + y, y in B, for the larger A, gathered
    through ``add`` on 1-D arrays in blocks of at most ``_PAIRS`` pairs; a y
    already marked lies in a coset gathered before and is skipped.
    """
    if a_mask[b].all():
        return a, a_mask
    if b_mask[a].all():
        return b, b_mask
    if len(a) < len(b):
        a, a_mask, b = b, b_mask, a
    mask = a_mask.copy()
    step = max(1, _PAIRS // len(a))
    for start in range(0, len(b), step):
        ys = b[start : start + step]
        ys = ys[~mask[ys]]
        if len(ys):
            mask[add(np.tile(a, len(ys)), np.repeat(ys, len(a)))] = True
    return np.flatnonzero(mask), mask


def _join_irreducible(
    add: Callable, size: int, parts: Iterable[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray, list[int]]:
    """The distinct ``parts`` that are not the join of the parts strictly
    inside them, smallest first, their masks as rows, and for each its seed:
    its least element outside the join of the irreducible parts inside it.

    Every sum of parts is a sum of these: a part that is the join of the
    parts inside it is, by induction on size, a sum of the irreducible ones
    inside it.  So only they are needed, and a part is irreducible iff the
    irreducible parts strictly inside it join to less than it.  {0}, the
    empty join, is never irreducible.  When the parts are the cyclic R·x of
    every x in their block, a seed w generates its part P (R·w is a part in
    P, and not in that join), so a sum of parts holds P iff it holds w.
    """
    distinct = {part.tobytes(): part for part in (np.asarray(p, dtype=np.int64) for p in parts)}
    irreducible: list[np.ndarray] = []
    seeds: list[int] = []
    masks = np.zeros((len(distinct), size), dtype=bool)
    for part in sorted(distinct.values(), key=len):
        k = len(irreducible)
        masks[k, part] = True
        inside = np.flatnonzero(~masks[:k, ~masks[k]].any(axis=1))
        joined, joined_mask = np.zeros(1, dtype=np.int64), zero(size)
        for i in inside[::-1]:  # largest first: nested parts then cost nothing
            if len(joined) == len(part):
                break
            joined, joined_mask = _sumset(add, joined, joined_mask, irreducible[i], masks[i])
        if len(joined) < len(part):
            irreducible.append(part)
            seeds.append(int(part[~joined_mask[part]][0]))
        else:
            masks[k] = False
    return irreducible, masks[: len(irreducible)], seeds


def _join_closure(
    add: Callable, size: int, parts: Iterable[np.ndarray], limit: int | None, name: str
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Every sum of the cyclic ``parts``, {0} included, built once, with the
    seeds of the irreducible parts P_0, P_1, ... it was joined from, less those
    inside a later one.  A + P_i, A last joined with P_l, is kept iff i > l and
    no seed of a P_j, j < i, outside A lies in it (Ganter's NextClosure test).
    With I(C) the j with P_j in C and cl(S) the join of the P_j, j in S, C != {0}
    is kept from one pair only, i least with cl(I(C) ∩ [0, i]) = C and A =
    cl(I(C) ∩ [0, i)): a kept C = A + P_i has I(C) ∩ [0, i) = I(A) ∩ [0, i), forcing both.
    As P_i ⊆ A + P_i, a seed outside A that lies in P_i itself rejects the join
    before its sumset is built."""
    irreducible, masks, seeds = _join_irreducible(add, size, parts)
    seeds_in = masks[:, seeds]  # seeds_in[i, j]: the seed of P_j lies in P_i
    bottom = np.zeros(1, dtype=np.int64)
    members = [(bottom, ())]
    stack = [(bottom, zero(size), np.zeros(len(irreducible), dtype=bool), 0, ())]
    while stack:
        base, base_mask, base_in, first, joined_from = stack.pop()
        for i in first + np.flatnonzero(~base_in[first:]):
            if (seeds_in[i, :i] & ~base_in[:i]).any():
                continue
            joined, joined_mask = _sumset(add, base, base_mask, irreducible[i], masks[i])
            joined_in = joined_mask[seeds]  # which P_j lie in it
            if (joined_in[:i] != base_in[:i]).any():
                continue
            if limit is not None and len(members) >= limit:
                raise SizeCapError(f"{name} above {limit}", cap="lattice", requested=limit + 1, limit=limit)
            members.append((joined, tuple(w for w in joined_from if not masks[i][w]) + (seeds[i],)))
            stack.append((joined, joined_mask, joined_in, i + 1, members[-1][1]))
    return members


def lattice(
    add: Callable, size: int, blocks: Iterable[Iterable], limit: int | None = None, name: str = "lattice"
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Every sum of the closed ``parts`` (ideals or submodules, each as sorted
    element indices), grouped into ``blocks``, as sorted element-index arrays
    sorted by (size, elements), each paired with the seeds of irreducible
    parts that join to it (``_join_closure``).

    The ideals or submodules of a ring or module are exactly the sums of its
    cyclic ones, so passing those, R·x for every x, yields the whole lattice.
    Over the central primitive idempotents c_b of R, M = (+) c_b M and every
    submodule N = (+) c_b N, so Sub(M) = prod Sub(c_b M): each block is the
    R·x, x in c_b M, each block's lattice is closed on its own, and the
    result is every direct sum N_1 + ... + N_k, one N_b per block.
    A block's lattice with more than ``limit`` members, or a product of block
    counts above it, raises SizeCapError("<name> above <limit>") before any
    direct sum is built.
    """
    lattices = []
    count = 1
    for parts in blocks:
        lattices.append(_join_closure(add, size, parts, limit, name))
        count *= len(lattices[-1])
        if limit is not None and count > limit:
            raise SizeCapError(f"{name} above {limit}", cap="lattice", requested=count, limit=limit)
    sums = lattices[0] if lattices else [(np.zeros(1, dtype=np.int64), ())]
    for members in lattices[1:]:
        sums = [
            (np.sort(add(a[:, None], b[None, :]), axis=None).astype(np.int64, copy=False), a_from + b_from)
            for a, a_from in sums
            for b, b_from in members
        ]
    return sorted(sums, key=lambda s: (len(s[0]), s[0].tolist()))
