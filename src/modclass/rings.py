"""Finite unital rings with exact integer-indexed arithmetic.

Elements of a ring of size N are the integers 0..N-1.  The additive group is
a product of cyclic groups of orders (n_1, ..., n_t); element i decodes to its
mixed-radix digit vector over those orders, and addition is the componentwise
group law.  The additive generators e_1, ..., e_t are the unit digit vectors.

Every constructor emits only the t x t matrix of generator products e_i * e_j,
and :class:`FiniteRing` turns it into the full N x N multiplication table with
:func:`materialize`, so every ring carries it and ``EngineConfig.max_ring``
alone bounds its size.  :func:`verify_ring_axioms` is exact at every size:
biadditivity reduces the ring axioms to checks on the generators.  It decides
the distributive laws in one pass over the table's own rows and builds the
doubling fills only to find the witnesses of a law that fails.  Validation,
the units and the radical pass over a table in row blocks of at most
``_FILL_BLOCK`` entries (:func:`row_blocks`), so a table that passes is
checked without an N x N temporary.

Ring elements are added in one place, :meth:`FiniteRing.add` and the fill op
:func:`_add_op`, by one choice made from the additive orders alone.  When every
n_i is a power of two, the digits of an index are bit fields and all of them
are added at once by a lane sum on the indices, and the ring never builds an
addition table; every other ring gathers from its addition table, which is
built the first time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import RingValidationError, check_cap


def _as_int32(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int32)


# -- the one positional encoding: indices whose base-b digits are coordinates ----


def base_digits(w, base: int, n: int) -> np.ndarray:
    """The n base-``base`` digits of each index in w, least significant first,
    along a new last axis.  Free-cover indices (base |R|), tuples in M^n (base
    |M|) and coefficient vectors (base q or p) all decode here."""
    w = np.asarray(w, dtype=np.int64)
    return (w[..., None] // np.array([base**i for i in range(n)], dtype=np.int64)) % base


def base_index(digits, base: int) -> np.ndarray:
    """Inverse of :func:`base_digits`: the index of each digit vector along the last axis."""
    digits = np.asarray(digits, dtype=np.int64)
    return digits @ np.array([base**i for i in range(digits.shape[-1])], dtype=np.int64)


class FiniteRing:
    """A finite unital ring on the carrier {0, ..., size-1}.

    Instances are immutable after construction; every operation is read-only.
    Given only ``gen_products``, the constructor builds the tables itself.  A
    given ``mul_table`` must have shape N x N and entries in 0..N-1, and the
    identity must lie in the carrier, else RingValidationError; the axioms
    are trusted — use :func:`ring_from_tables` or the ring-spec DSL for
    untrusted input, both of which validate them.
    """

    def __init__(
        self,
        orders: Sequence[int],
        one: int,
        label: str,
        mul_table: np.ndarray | None = None,
        gen_products: np.ndarray | None = None,
    ):
        orders = tuple(int(n) for n in orders)
        if not orders or any(n < 1 for n in orders):
            raise ValueError(f"invalid additive orders {orders}")
        self.orders = orders
        self.size = reduce(lambda a, b: a * b, orders, 1)
        self.one = int(one)
        self.label = label
        if not 0 <= self.one < self.size:
            raise RingValidationError(f"{label}: identity index {one} out of range for size {self.size}")

        self._orders_arr = np.array(orders, dtype=np.int64)
        self._weights = np.concatenate(([1], np.cumprod(self._orders_arr)[:-1]))
        # Decode table: row i is the mixed-radix digit vector of element i.
        self._digits = self.decode(np.arange(self.size))
        # The additive generators e_i as element indices (0 where n_i = 1).
        self._gens = self.encode(np.eye(len(orders), dtype=np.int64))
        # The lane sum when the additive group is a 2-group, else None.
        self._lane = _lane_sum(orders)

        self._add_table: np.ndarray | None = None
        self._neg_table: np.ndarray | None = None
        self._units: frozenset[int] | None = None
        self._registry = None  # set by decompose.get_registry
        self._decomposition = None  # set by decompose.primitive_decomposition
        self._radical = None  # set by ideals.jacobson_radical
        self._pp_residuals: dict = {}  # set by pp._solution_mask, arrays only
        self._gen_products = None if gen_products is None else _as_int32(gen_products)
        if mul_table is None:
            if gen_products is None:
                raise ValueError("need mul_table or gen_products")
            mul_table = materialize(self)
        else:  # checked before the cast, which wraps entries from 2^31 on
            mul_table = np.asarray(mul_table)
            if mul_table.shape != (self.size, self.size):
                raise RingValidationError(
                    f"{label}: table shape {mul_table.shape} does not match carrier size {self.size}"
                )
            if mul_table.min() < 0 or mul_table.max() >= self.size:
                raise RingValidationError(
                    f"{label}: 'table' must be a list of lists of integers in 0..{self.size - 1}"
                )
        self.mul_table = _as_int32(mul_table)

    # -- encoding ----------------------------------------------------------

    def decode(self, a) -> np.ndarray:
        """Mixed-radix digit vector(s) of element index(es) a."""
        a = np.asarray(a, dtype=np.int64)
        return (a[..., None] // self._weights) % self._orders_arr

    def encode(self, digits) -> np.ndarray | int:
        """Inverse of :meth:`decode`; digits are reduced mod the orders."""
        digits = np.asarray(digits, dtype=np.int64) % self._orders_arr
        out = (digits * self._weights).sum(axis=-1)
        return int(out) if out.ndim == 0 else out

    # -- additive structure --------------------------------------------------

    @property
    def add_table(self) -> np.ndarray:
        """The N x N addition table, built the first time it is read."""
        if self._add_table is None:
            self._add_table = _addition_table(self)
        return self._add_table

    @property
    def neg_table(self) -> np.ndarray:
        if self._neg_table is None:
            self._neg_table = _as_int32(self.encode(-self.decode(np.arange(self.size))))
        return self._neg_table

    def add(self, a, b):
        """a + b for ints or broadcasting arrays: lane by lane when the additive
        group is a 2-group, else one gather from the addition table."""
        out = self.add_table[a, b] if self._lane is None else self._lane(a, b)
        return int(out) if np.ndim(out) == 0 else out

    def neg(self, a):
        out = self.neg_table[a]
        return int(out) if np.ndim(out) == 0 else out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    # -- multiplicative structure ---------------------------------------------

    @property
    def gen_products(self) -> np.ndarray:
        """Products of the additive generators e_i * e_j, as element indices."""
        if self._gen_products is None:
            self._gen_products = self.mul_table[np.ix_(self._gens, self._gens)]
        return self._gen_products

    def mul(self, a, b):
        out = self.mul_table[a, b]
        return int(out) if np.ndim(out) == 0 else out

    # -- misc ----------------------------------------------------------------

    @property
    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mul_table, self.mul_table.T))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, size={self.size})"


# -- tables from generator rows ---------------------------------------------------

_FILL_BLOCK = 1 << 18  # table entries per row block


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Slices covering range(rows), each of at most ``_FILL_BLOCK`` entries
    when a row has ``width`` of them, and of at least one row."""
    step = max(1, _FILL_BLOCK // max(1, width))
    return (slice(lo, min(rows, lo + step)) for lo in range(0, rows, step))


def _fill(ring: FiniteRing, row0: np.ndarray, gen_rows: np.ndarray, op) -> np.ndarray:
    """The (N, len(row0)) table whose row a is row0 'plus' a_i times gen_rows[i].

    ``op(rows, step)`` adds the row ``step`` to each of ``rows``: the ring's
    addition from :func:`_add_op`, or composition with a translation for the
    addition table.  Rows are filled in index order: once the rows with every
    digit from i on zero are done, the rows whose i-th digit lies in [m, 2m)
    are op(rows with digit i in [0, m), m * gen_rows[i]), so generator i
    takes log2(n_i) doubling steps.  Each step runs in row blocks of at most
    ``_FILL_BLOCK`` entries.
    """
    out = np.empty((ring.size, len(row0)), dtype=np.int32)
    out[0] = row0
    for step, order, w in zip(gen_rows, ring.orders, ring._weights.tolist()):
        m = 1
        while m < order:
            for rows in row_blocks(min(m, order - m) * w, len(row0)):
                out[m * w + rows.start : m * w + rows.stop] = op(out[rows], step)
            m *= 2
            if m < order:
                step = op(step, step)
    return out


def _addition_table(ring: FiniteRing) -> np.ndarray:
    """Row a + e_i is row a composed with the translation b -> b + e_i."""
    row0 = np.arange(ring.size, dtype=np.int32)
    units = np.eye(len(ring.orders), dtype=np.int64)
    shifts = _as_int32([ring.encode(ring._digits + d) for d in units])
    return _fill(ring, row0, shifts, lambda rows, s: s[rows])


def _lane_sum(orders: Sequence[int]):
    """The op rows + s of :func:`_fill` on element indices when every n_i is
    a power of two, else None.

    Digit i of an index is then the bit field [log2 w_i, log2 w_i n_i), and
    ((x & L) + (y & L)) ^ ((x ^ y) & H) adds every field mod n_i at once,
    with H the top bit of each field and L its other bits: the low bits carry
    into the top bit, and a carry out of it is dropped.  With every n_i = 2,
    L = 0 and the sum is x ^ y.
    """
    if any(n & (n - 1) for n in orders):
        return None
    high = low = 0
    w = 1  # the weight of digit i, its field's lowest bit
    for n in orders:
        if n > 1:
            high |= w * n // 2
            low |= w * n // 2 - w
        w *= n

    def op(rows, s):
        out = (rows & low) + (s & low)
        top = rows ^ s
        top &= high
        out ^= top
        return out

    return op


def _add_rows(add: np.ndarray):
    """The op rows + s of :func:`_fill` for an addition table: one gather from
    the flattened table, about twice as fast as ``add[rows, s]``."""
    flat, n = add.ravel(), np.intp(add.shape[1])

    def op(rows, s):
        idx = np.multiply(rows, n, dtype=np.intp)
        idx += s
        return flat.take(idx)

    return op


def _add_op(ring: FiniteRing):
    """The ring's addition as an op rows + s of :func:`_fill`: the lane sum
    of :meth:`FiniteRing.add` when every n_i is a power of two, else one
    gather from the addition table."""
    return ring._lane or _add_rows(ring.add_table)


def materialize(ring: FiniteRing) -> np.ndarray:
    """The multiplication table of a ring from its generator products.

    Column b of the generator rows e_i * b is the sum of b_j (e_i e_j), a
    fill over the generator products; every other row follows by
    row(a + k e_i) = row(a) + k (e_i * b).  Both fills add with
    :func:`_add_op`: lane by lane when the additive group is a 2-group, and
    then no addition table is built, else by a gather from the addition
    table, built here.
    """
    add = _add_op(ring)
    t = len(ring.orders)
    gen_rows = _fill(ring, np.zeros(t, dtype=np.int32), ring.gen_products.T, add).T
    return _fill(ring, np.zeros(ring.size, dtype=np.int32), gen_rows, add)


# -- axiom verification --------------------------------------------------------


@dataclass
class RingAxiomReport:
    """Pass/fail record per ring axiom, with witnesses for failures.

    The check is exact and works on the t additive generators e_i of orders
    n_i.  A law fails with witnesses of these kinds:

    - ``("right_distributivity", a, b)``: a * b is not the sum over i of
      a_i (e_i * b); ``("right_order", e_i, b)``: n_i (e_i * b) is not 0;
    - ``("left_distributivity", a, b)`` and ``("left_order", a, e_j)``: the
      same for the right argument;
    - ``("associativity", e_i, e_j, e_k)``: a generator triple;
    - ``("identity", e_i)``: 1 * e_i or e_i * 1 is not e_i.

    ``checked_triples`` counts the t^3 generator triples.
    """

    size: int
    has_identity: bool
    associative: bool
    left_distributive: bool
    right_distributive: bool
    checked_triples: int
    failures: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.has_identity
            and self.associative
            and self.left_distributive
            and self.right_distributive
        )

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (
            f"axioms {status} (exact, {self.checked_triples} generator triples): "
            f"identity={self.has_identity} assoc={self.associative} "
            f"ldist={self.left_distributive} rdist={self.right_distributive}"
        )


_MAX_WITNESSES = 8


def _witnesses(kind: str, bad: np.ndarray, *labels: np.ndarray) -> list[tuple]:
    """Up to _MAX_WITNESSES failures: positions in ``bad``, mapped through ``labels``."""
    rows = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))[:_MAX_WITNESSES]
    pos = np.argwhere(bad[rows])[:_MAX_WITNESSES]
    pos[:, 0] = rows[pos[:, 0]]
    return [(kind, *(int(label[i]) for label, i in zip(labels, p))) for p in pos]


def _vanishes(ring: FiniteRing, x: np.ndarray) -> np.ndarray:
    """n_i * x[i, b] == 0 for each generator i and each b: the additive order
    of x[i, b], the lcm over its digits d_j of n_j / gcd(d_j, n_j), divides n_i."""
    orders = ring._orders_arr
    element_orders = np.lcm.reduce(orders // np.gcd(ring._digits, orders), axis=-1)
    return orders[:, None] % element_orders[x] == 0


def rows_additive(ring: FiniteRing, table: np.ndarray, add) -> bool:
    """Whether each row a of an (N, width) table is the sum of a_i times
    row(e_i), i.e. the doubling fill of its generator rows: row 0 is 0 and
    row(a) = row(a - e_i) + row(e_i) for every a != 0, with i the highest
    nonzero digit of a.

    By induction on a each row is then that sum, and conversely.  The rows a
    with highest digit i are the block [w_i, w_i n_i), so both terms are read
    in row blocks of the table itself; ``add`` is an op rows + s of
    :func:`_fill`.
    """
    if table[0].any():
        return False
    for w, order in zip(ring._weights.tolist(), ring.orders):
        for block in row_blocks(w * (order - 1), table.shape[1]):
            if not np.array_equal(table[w + block.start : w + block.stop], add(table[block], table[w])):
                return False
    return True


def _distributive(ring: FiniteRing) -> bool:
    """Both order laws and both distributive laws, decided exactly without a fill.

    Right distributivity is :func:`rows_additive` on the table.  Given it,
    every row is a sum of generator rows, so left distributivity holds iff
    each generator row b -> e_i * b is additive: e_i * 0 = 0 and
    e_i * (b + e_j) = e_i * b + e_i * e_j for all b and j.
    """
    table, gens = ring.mul_table, ring._gens
    add = _add_op(ring)
    rows = table[gens]  # e_i * b
    if not (_vanishes(ring, rows).all() and _vanishes(ring, table[:, gens].T).all()):
        return False
    if rows[:, 0].any():
        return False
    # Row j of shifted is b + e_j for every b.
    shifted = add(np.repeat(np.arange(ring.size, dtype=np.int32)[None], len(gens), axis=0), gens[:, None])
    for b_plus_g, g in zip(shifted, gens):
        if not np.array_equal(rows[:, b_plus_g], add(rows, rows[:, g, None])):
            return False
    return rows_additive(ring, table, add)


def _distributivity_failures(ring: FiniteRing) -> list[tuple]:
    """Witnesses of the order and distributive laws.  The table is compared
    with the doubling fill of its own generator rows, and its transpose with
    that of its generator columns."""
    gens = ring._gens
    idx = np.arange(ring.size, dtype=np.int64)
    table = ring.mul_table
    rows = table[gens]  # e_i * b
    cols = table[:, gens].T  # b * e_j, one row per j
    zeros = np.zeros(ring.size, dtype=np.int32)
    add = _add_op(ring)
    failures = _witnesses("right_order", ~_vanishes(ring, rows), gens, idx)
    failures += _witnesses("left_order", ~_vanishes(ring, cols).T, idx, gens)
    failures += _witnesses("right_distributivity", table != _fill(ring, zeros, rows, add), idx, idx)
    failures += _witnesses("left_distributivity", (table.T != _fill(ring, zeros, cols, add)).T, idx, idx)
    return failures


def verify_ring_axioms(ring: FiniteRing) -> RingAxiomReport:
    """Check identity, associativity, and both distributive laws, exactly.

    Right distributivity is additivity in the left argument: a * b is the sum
    of a_i (e_i * b), where the digits a_i run over [0, n_i) and so need
    n_i (e_i * b) = 0; left distributivity is the same in the right argument.
    One pass over the table's own rows decides both laws (:func:`_distributive`);
    only when it fails are the two doubling fills built, to find the
    witnesses.  Given both laws, associativity and the identity need checking
    on the generators only (Light's associativity test carried over to
    biadditive maps).  Each check sets only its own flag.  Failures are
    reported, never raised.
    """
    gens = ring._gens
    failures = [] if _distributive(ring) else _distributivity_failures(ring)
    kinds = {f[0] for f in failures}

    gp = ring.gen_products
    bad = ring.mul(gp[:, :, None], gens[None, None, :]) != ring.mul(gens[:, None, None], gp[None, :, :])
    failures += _witnesses("associativity", bad, gens, gens, gens)
    assoc_ok = not bad.any()

    bad = (ring.mul(ring.one, gens) != gens) | (ring.mul(gens, ring.one) != gens)
    failures += _witnesses("identity", bad, gens)

    return RingAxiomReport(
        size=ring.size,
        has_identity=not bad.any(),
        associative=assoc_ok,
        left_distributive=not kinds & {"left_order", "left_distributivity"},
        right_distributive=not kinds & {"right_order", "right_distributivity"},
        checked_triples=len(gens) ** 3,
        failures=failures,
    )


def units(ring: FiniteRing) -> frozenset[int]:
    """Two-sided invertible elements, checking invertibility on both sides."""
    if ring._units is None:
        right = np.zeros(ring.size, dtype=bool)  # a with a * b = 1 for some b
        left = np.zeros(ring.size, dtype=bool)  # b with a * b = 1 for some a
        for block in row_blocks(ring.size, ring.size):
            hits = ring.mul_table[block] == ring.one
            right[block] = hits.any(axis=1)
            left |= hits.any(axis=0)
        ring._units = frozenset(int(a) for a in np.flatnonzero(right & left))
    return ring._units


def unit_mask(ring: FiniteRing) -> np.ndarray:
    mask = np.zeros(ring.size, dtype=bool)
    mask[sorted(units(ring))] = True
    return mask


def idempotents(ring: FiniteRing) -> tuple[int, ...]:
    """All e with e*e = e, by full enumeration."""
    idx = np.arange(ring.size)
    return tuple(int(v) for v in idx[ring.mul_table[idx, idx] == idx])


def central_primitive_idempotents(ring: FiniteRing) -> tuple[int, ...]:
    """The central primitive idempotents c_b, ascending: R = ∏ R·c_b.

    z is central iff it commutes with R's additive generators, by
    biadditivity.  The central idempotents form a Boolean algebra under
    e ≤ f ⇔ e·f = e, and the c_b are its atoms: the nonzero ones with no
    central idempotent other than 0 and c_b below them.
    """
    mul = ring.mul_table
    gens = ring._gens
    central = (mul[:, gens] == mul[gens, :].T).all(axis=1)
    es = np.array([e for e in idempotents(ring) if central[e]], dtype=np.int64)
    below = mul[es[:, None], es[None, :]] == es[None, :]  # below[i, j]: e_j ≤ e_i
    return tuple(int(e) for e, n in zip(es, below.sum(axis=1)) if e != 0 and n == 2)


# -- constructions ---------------------------------------------------------------


def _check_size(size: int, label: str, cfg: EngineConfig) -> None:
    check_cap("max_ring", size, cfg.max_ring, f"{label}: carrier size {size} exceeds ring cap {cfg.max_ring}")


def cyclic_ring(n: int, label: str | None = None, cfg: EngineConfig | None = None) -> FiniteRing:
    """The ring of integers mod n."""
    cfg = cfg or DEFAULTS
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    label = label or f"Z/{n}"
    _check_size(n, label, cfg)
    return FiniteRing((n,), one=1 % n, label=label, gen_products=[[1 % n]])


# Polynomial helpers over the prime field F_p; coefficient tuples, index = degree.


def _poly_mod(a, m, p: int) -> tuple[int, ...]:
    """a mod m for a monic m, without trailing zero coefficients."""
    a = list(a)
    while a:
        if a[-1] == 0:
            a.pop()
        elif len(a) >= len(m):
            q, shift = a[-1], len(a) - len(m)
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - q * mi) % p
        else:
            break
    return tuple(a)


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree up to deg(f)/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for coeffs in base_digits(np.arange(p**d), p, d).tolist():
            if not _poly_mod(f, tuple(coeffs) + (1,), p):
                return False
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
    raise ValueError(f"{q} is not a prime power")


def least_irreducible_poly(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over F_p, least in base-p coefficient order.

    Candidates x^k + c_{k-1}x^{k-1} + ... + c_0 are scanned with the constant
    term as the least significant base-p digit, so the choice is deterministic
    and independent of any published polynomial tables.
    """
    for coeffs in base_digits(np.arange(p**k), p, k).tolist():
        f = tuple(coeffs) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


def galois_field(q: int, label: str | None = None, cfg: EngineConfig | None = None) -> FiniteRing:
    """GF(q) for a prime power q: F_p[x] modulo the least irreducible polynomial."""
    cfg = cfg or DEFAULTS
    if q > 256:
        raise ValueError(f"GF({q}): field size above 256 not supported")
    p, k = _factor_prime_power(q)
    label = label or f"GF({q})"
    _check_size(q, label, cfg)
    if k == 1:
        return cyclic_ring(p, label=label, cfg=cfg)
    gp = _poly_gen_products(cyclic_ring(p, cfg=cfg), least_irreducible_poly(p, k))
    return FiniteRing((p,) * k, one=1, label=label, gen_products=gp)


def _square_positions(n: int, upper_only: bool) -> list[tuple[int, int]]:
    if upper_only:
        return [(i, j) for i in range(n) for j in range(n) if i <= j]
    return [(i, j) for i in range(n) for j in range(n)]


def _matrix_like_ring(
    n: int,
    scalars: FiniteRing,
    upper_only: bool,
    label: str,
    cfg: EngineConfig,
) -> FiniteRing:
    if n < 1:
        raise ValueError(f"{label}: matrix dimension must be >= 1")
    positions = _square_positions(n, upper_only)
    s = scalars.size
    size = s ** len(positions)
    _check_size(size, label, cfg)
    pos_index = {pos: a for a, pos in enumerate(positions)}
    one = sum(scalars.one * s**a for a, (i, j) in enumerate(positions) if i == j)

    # A generator is a scalar generator g placed at one position; the
    # product (g E_rc)(g' E_cc') is (g g') E_rc', zero unless the inner
    # indices meet (and, for triangular rings, rc' is upper).
    gens = [(pos, int(g)) for pos in positions for g in scalars._gens]
    gp = np.zeros((len(gens), len(gens)), dtype=np.int64)
    for m1, ((r, c), g1) in enumerate(gens):
        for m2, ((r2, c2), g2) in enumerate(gens):
            if c == r2 and (r, c2) in pos_index:
                gp[m1, m2] = scalars.mul(g1, g2) * s ** pos_index[(r, c2)]
    return FiniteRing(scalars.orders * len(positions), one=one, label=label, gen_products=gp)


def matrix_ring(n: int, scalars: FiniteRing, cfg: EngineConfig | None = None) -> FiniteRing:
    """Full n x n matrix ring over a finite scalar ring."""
    cfg = cfg or DEFAULTS
    label = f"M({n},{scalars.label})"
    return _matrix_like_ring(n, scalars, upper_only=False, label=label, cfg=cfg)


def triangular_ring(n: int, scalars: FiniteRing, cfg: EngineConfig | None = None) -> FiniteRing:
    """Upper-triangular n x n matrices over a finite scalar ring."""
    cfg = cfg or DEFAULTS
    label = f"T({n},{scalars.label})"
    return _matrix_like_ring(n, scalars, upper_only=True, label=label, cfg=cfg)


def matrix_units(n: int, scalars: FiniteRing, upper_only: bool = False) -> dict[tuple[int, int], int]:
    """Element indices of the matrix units E_ij inside M(n,S) or T(n,S)."""
    positions = _square_positions(n, upper_only)
    s = scalars.size
    return {
        pos: int(scalars.one * s**a)
        for a, pos in enumerate(positions)
    }


def product_ring(a: FiniteRing, b: FiniteRing, cfg: EngineConfig | None = None) -> FiniteRing:
    """Direct product with componentwise operations; index = a + |A| * b."""
    cfg = cfg or DEFAULTS
    label = f"{a.label} x {b.label}"
    size = a.size * b.size
    _check_size(size, label, cfg)
    # Cross products of generators from different factors vanish.
    ta, tb = len(a.orders), len(b.orders)
    gp = np.zeros((ta + tb, ta + tb), dtype=np.int64)
    gp[:ta, :ta] = a.gen_products
    gp[ta:, ta:] = np.asarray(b.gen_products, dtype=np.int64) * a.size
    return FiniteRing(a.orders + b.orders, one=a.one + a.size * b.one, label=label, gen_products=gp)


def _poly_gen_products(scalars: FiniteRing, coeffs: list[int]) -> np.ndarray:
    """Generator products of S[x]/(f), f monic with scalar-index coefficients."""
    d = len(coeffs) - 1
    s = scalars.size
    # x^m mod f for m < 2d-1, as length-d vectors of scalar indices.
    rem = np.zeros((2 * d - 1, d), dtype=np.int64)
    for m in range(d):
        rem[m, m] = scalars.one
    for m in range(d, 2 * d - 1):
        # x^m = x * x^(m-1); then reduce the overflow coefficient via
        # x^d = -(c_0 + ... + c_{d-1} x^{d-1}).
        lead = int(rem[m - 1, d - 1])
        rem[m, 1:] = rem[m - 1, : d - 1]
        if lead:
            for t in range(d):
                rem[m, t] = scalars.sub(int(rem[m, t]), scalars.mul(lead, coeffs[t]))

    # Generator (g x^i) times (g' x^j) is (g g') x^(i+j), with x^(i+j)
    # reduced through the rem table.
    gens = [(i, int(g)) for i in range(d) for g in scalars._gens]
    gp = np.zeros((len(gens), len(gens)), dtype=np.int64)
    for m1, (i, g1) in enumerate(gens):
        for m2, (j, g2) in enumerate(gens):
            prod = scalars.mul(g1, g2)
            gp[m1, m2] = base_index(scalars.mul(prod, rem[i + j]), s)
    return gp


def poly_quotient_ring(
    scalars: FiniteRing,
    coeffs: Sequence[int],
    cfg: EngineConfig | None = None,
) -> FiniteRing:
    """Quotient of S[x] (x central) by the monic polynomial with given coefficients.

    ``coeffs`` lists scalar-ring element indices from the constant term up;
    the leading coefficient must be the identity of S, which makes the result
    finite of size |S|^deg.
    """
    cfg = cfg or DEFAULTS
    coeffs = [int(c) for c in coeffs]
    label = f"PolyQuot({scalars.label},[{','.join(map(str, coeffs))}])"
    if len(coeffs) < 2:
        raise ValueError(f"{label}: polynomial must have degree >= 1")
    if any(not 0 <= c < scalars.size for c in coeffs):
        raise ValueError(f"{label}: coefficient out of range")
    if coeffs[-1] != scalars.one:
        raise ValueError(f"{label}: polynomial must be monic")
    d = len(coeffs) - 1
    _check_size(scalars.size**d, label, cfg)
    gp = _poly_gen_products(scalars, coeffs)
    return FiniteRing(scalars.orders * d, one=scalars.one, label=label, gen_products=gp)


def ring_from_tables(
    orders: Iterable[int],
    one: int,
    table: Sequence[Sequence[int]] | np.ndarray,
    label: str = "StructConst",
    cfg: EngineConfig | None = None,
) -> FiniteRing:
    """Build a ring from explicit structure constants and validate its axioms."""
    cfg = cfg or DEFAULTS
    orders = tuple(int(n) for n in orders)
    _check_size(reduce(lambda a, b: a * b, orders, 1), label, cfg)
    ring = FiniteRing(orders, one=int(one), label=label, mul_table=table)
    report = verify_ring_axioms(ring)
    if not report.ok:
        raise RingValidationError(f"{label}: {report.summary()}", report=report)
    return ring
