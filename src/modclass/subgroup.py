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

``grow`` adds one generator g to a marked subgroup H by doubling.  After i
rounds the mask holds H + {0, ..., 2^i - 1}·g.  The next round shifts
everything marked by x = 2^i·g, which gives H + {0, ..., 2^(i+1) - 1}·g, and
then sets x <- x + x.  Once x is already marked, 2^i·g = h + j·g with
j < 2^i, so d·g lies in H for some 1 <= d <= 2^i; the multiples 0..2^i - 1
then meet every coset of H in H + <g>, and the mask equals H + <g>.  Adding g
costs one ``add`` call per round, about log2 of the order of g modulo H.
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


def span(add: Callable, size: int, gens: Iterable[int]) -> np.ndarray:
    """Mask over the carrier of the subgroup generated by ``gens``."""
    mask = np.zeros(size, dtype=bool)
    mask[0] = True
    for g in gens:
        if not mask[g]:
            grow(add, mask, g)
    return mask


def generators(add: Callable, size: int, elements: Iterable[int]) -> tuple[int, ...]:
    """Greedy additive generating set of the subgroup spanned by ``elements``.

    Walks the elements in order and keeps each one not yet spanned by those
    kept before it.
    """
    mask = np.zeros(size, dtype=bool)
    mask[0] = True
    picked = []
    for x in elements:
        if not mask[x]:
            grow(add, mask, x)
            picked.append(int(x))
    return tuple(picked)


def _join_closure(
    add: Callable, size: int, parts: Iterable[np.ndarray], limit: int | None, name: str
) -> list[np.ndarray]:
    """Every sum of the closed ``parts``: their closure under joins with one
    part.  A join A + P grows A's mask by an additive generating set of P."""
    closed: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}
    for part in parts:
        part = np.asarray(part, dtype=np.int64)
        key = part.tobytes()
        if key not in closed:
            closed[key] = (part, generators(add, size, part))
    found: dict[bytes, np.ndarray] = {key: part for key, (part, _) in closed.items()}
    queue = list(found)
    while queue:
        base = np.zeros(size, dtype=bool)
        base[found[queue.pop()]] = True
        for part, gens in closed.values():
            if base[part].all():
                continue
            mask = base.copy()
            for g in gens:
                grow(add, mask, g)
            joined = np.flatnonzero(mask)
            key = joined.tobytes()
            if key not in found:
                if limit is not None and len(found) >= limit:
                    raise SizeCapError(f"{name} above {limit}")
                found[key] = joined
                queue.append(key)
    return list(found.values())


def lattice(
    add: Callable,
    size: int,
    blocks: Iterable[Iterable[np.ndarray]],
    limit: int | None = None,
    name: str = "lattice",
) -> list[np.ndarray]:
    """Every sum of the closed ``parts`` (ideals or submodules, each as sorted
    element indices), grouped into ``blocks``, as sorted element-index arrays
    sorted by (size, elements).

    The ideals or submodules of a ring or module are exactly the sums of its
    cyclic ones, so passing those as parts yields the whole lattice.  Over
    the central primitive idempotents c_b of R, M = (+) c_b M and every
    submodule N = (+) c_b N, so Sub(M) = prod Sub(c_b M): each block is the
    cyclic parts inside one c_b M, each block's lattice is closed on its own,
    and the result is every direct sum N_1 + ... + N_k, one N_b per block.
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
            raise SizeCapError(f"{name} above {limit}")
    sums = [np.zeros(1, dtype=np.int64)]
    for members in lattices:
        sums = [
            np.sort(add(a[:, None], b[None, :]), axis=None).astype(np.int64, copy=False)
            for a in sums
            for b in members
        ]
    return sorted(sums, key=lambda a: (len(a), a.tolist()))
