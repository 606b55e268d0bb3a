"""Finite unital rings with exact integer-indexed arithmetic.

Elements of a ring of size N are the integers 0..N-1.  The additive group is
a product of cyclic groups of orders (n_1, ..., n_t); element i decodes to its
mixed-radix digit vector over those orders, and addition is the componentwise
group law.  The additive generators e_1, ..., e_t are the unit digit vectors.

Every constructor emits only the t x t matrix of generator products e_i * e_j.
Up to the table cap, :func:`materialize` turns it into full N x N addition
and multiplication tables; above it, products are evaluated bilinearly from
the generator products.  :func:`verify_ring_axioms` is exact at every size:
biadditivity reduces the ring axioms to checks on the generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import RingValidationError, SizeCapError

# Ring elements are canonical integer indices into the carrier.
RingElement = int


def _as_int32(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int32)


class FiniteRing:
    """A finite unital ring on the carrier {0, ..., size-1}.

    Instances are immutable after construction; every operation is read-only.
    The constructor trusts its tables — use :func:`ring_from_tables` or the
    ring-spec DSL for untrusted input, both of which validate the axioms.
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
            raise ValueError(f"identity index {one} out of range for size {self.size}")

        self._orders_arr = np.array(orders, dtype=np.int64)
        self._weights = np.concatenate(([1], np.cumprod(self._orders_arr)[:-1]))
        # Decode table: row i is the mixed-radix digit vector of element i.
        idx = np.arange(self.size, dtype=np.int64)
        self._digits = (idx[:, None] // self._weights[None, :]) % self._orders_arr[None, :]
        # The additive generators e_i as element indices (0 where n_i = 1).
        self._gens = self.encode(np.eye(len(orders), dtype=np.int64))

        if mul_table is None and gen_products is None:
            raise ValueError("need mul_table or gen_products")
        self.mul_table = None if mul_table is None else _as_int32(mul_table)
        if self.mul_table is not None and self.mul_table.shape != (self.size, self.size):
            raise ValueError("mul_table has wrong shape")
        self._gen_products = None if gen_products is None else _as_int32(gen_products)
        self._table_cap: int | None = None  # set on rings built above the table cap
        self._add_table: np.ndarray | None = None
        self._neg_table: np.ndarray | None = None
        self._units: frozenset[int] | None = None
        self._registry = None  # set by decompose.get_registry

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
    def has_tables(self) -> bool:
        return self.mul_table is not None

    def require_tables(self, op: str) -> None:
        if self.mul_table is None:
            raise SizeCapError(
                f"{op} needs full tables, but ring {self.label} has {self.size} elements, "
                f"above the table cap {self._table_cap} (EngineConfig.mul_table_cap) "
                f"it was built with"
            )

    @property
    def add_table(self) -> np.ndarray:
        if self._add_table is None:
            self.require_tables("add_table")
            self._add_table = _addition_table(self)
        return self._add_table

    @property
    def neg_table(self) -> np.ndarray:
        if self._neg_table is None:
            self._neg_table = _as_int32(self.encode(-self.decode(np.arange(self.size))))
        return self._neg_table

    def add(self, a, b):
        if self.mul_table is not None:
            out = self.add_table[a, b]
        else:
            out = self.encode(self.decode(a) + self.decode(b))
        return int(out) if np.ndim(out) == 0 else out

    def neg(self, a):
        out = self.neg_table[a]
        return int(out) if np.ndim(out) == 0 else out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scalar_mul(self, k: int, a):
        """k-fold additive multiple of a (k any integer)."""
        out = self.encode(int(k) * self.decode(a))
        return int(out) if np.ndim(out) == 0 else out

    # -- multiplicative structure ---------------------------------------------

    @property
    def gen_products(self) -> np.ndarray:
        """Products of the additive generators e_i * e_j, as element indices."""
        if self._gen_products is None:
            self._gen_products = self.mul_table[np.ix_(self._gens, self._gens)]
        return self._gen_products

    def mul(self, a, b):
        if self.mul_table is not None:
            out = self.mul_table[a, b]
            return int(out) if np.ndim(out) == 0 else out
        return self._mul_bilinear(a, b)

    def _mul_bilinear(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        t = len(self.orders)
        da, db = np.broadcast_arrays(self.decode(a), self.decode(b))
        shape = da.shape[:-1]
        da = da.reshape(-1, t)
        db = db.reshape(-1, t)
        # digit d of a*b = sum over (i,j) of a_i b_j (e_i e_j)_d, a flat matmul
        coef = (da[:, :, None] * db[:, None, :]).reshape(-1, t * t)
        gp_digits = self.decode(self.gen_products).reshape(t * t, t)
        digits = coef @ gp_digits
        out = self.encode(digits.reshape(shape + (t,)))
        return int(out) if np.ndim(out) == 0 else out

    # -- misc ----------------------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.size)

    @property
    def is_commutative(self) -> bool:
        if self.mul_table is not None:
            return bool(np.array_equal(self.mul_table, self.mul_table.T))
        gp = self.gen_products
        return bool(np.array_equal(gp, gp.T))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, size={self.size})"


# -- tables from generator rows ---------------------------------------------------

_FILL_BLOCK = 1 << 18  # table entries per gather


def _fill(ring: FiniteRing, row0: np.ndarray, gen_rows: np.ndarray, op) -> np.ndarray:
    """The N x N table whose row a is row0 'plus' a_i times gen_rows[i], over all i.

    ``op(rows, step)`` adds the row ``step`` to each of ``rows``.  Rows are
    filled in index order: once the rows with every digit from i on zero are
    done, the rows whose i-th digit lies in [m, 2m) are op(rows with digit
    i in [0, m), m * gen_rows[i]), so generator i takes log2(n_i) doubling
    steps.  Each step runs in row blocks of at most ``_FILL_BLOCK`` entries.
    """
    n = ring.size
    out = np.empty((n, n), dtype=np.int32)
    out[0] = row0
    chunk = max(1, _FILL_BLOCK // n)
    for step, order, w in zip(gen_rows, ring.orders, ring._weights.tolist()):
        m = 1
        while m < order:
            rows = min(m, order - m) * w
            for r in range(0, rows, chunk):
                s = min(rows, r + chunk)
                out[m * w + r : m * w + s] = op(out[r:s], step)
            step = op(step, step)
            m *= 2
    return out


def _addition_table(ring: FiniteRing) -> np.ndarray:
    # Row a + e_i is row a composed with the translation b -> b + e_i.
    units = np.eye(len(ring.orders), dtype=np.int64)
    shifts = _as_int32([ring.encode(ring._digits + d) for d in units])
    return _fill(ring, np.arange(ring.size, dtype=np.int32), shifts, lambda rows, s: s[rows])


def _add_rows(add: np.ndarray):
    return lambda rows, s: add[rows, s]


def materialize(ring: FiniteRing) -> np.ndarray:
    """The multiplication table of a ring from its generator products.

    The generator rows e_i * b come from the bilinear evaluation; every other
    row follows by row(a + k e_i) = row(a) + k (e_i * b).  Also builds the
    addition table, which the fill needs.
    """
    add = ring._add_table = _addition_table(ring)
    idx = np.arange(ring.size, dtype=np.int64)
    gen_rows = _as_int32([ring._mul_bilinear(int(g), idx) for g in ring._gens])
    return _fill(ring, np.zeros(ring.size, dtype=np.int32), gen_rows, _add_rows(add))


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


def verify_ring_axioms(ring: FiniteRing) -> RingAxiomReport:
    """Check identity, associativity, and both distributive laws, exactly.

    Right distributivity is additivity in the left argument: a * b is the sum
    of a_i (e_i * b), where the digits a_i run over [0, n_i) and so need
    n_i (e_i * b) = 0.  A table is checked against the doubling fill of its
    own generator rows, and its transpose against that of its generator
    columns; a ring without tables is biadditive by construction, so only
    the orders are checked.  Given both laws, associativity and the identity
    need checking on the generators only (Light's associativity test carried
    over to biadditive maps).  Each check sets only its own flag.  Failures
    are reported, never raised.
    """
    n = ring.size
    gens = ring._gens
    idx = np.arange(n, dtype=np.int64)
    failures: list[tuple] = []

    def vanishes(x):  # n_i * x[i, b] == 0 for each generator i
        return (ring.decode(x) * ring._orders_arr[:, None, None] % ring._orders_arr == 0).all(axis=-1)

    rows = np.stack([ring.mul(g, idx) for g in gens])  # e_i * b
    cols = np.stack([ring.mul(idx, g) for g in gens])  # b * e_j, one row per j
    bad = ~vanishes(rows)
    failures += _witnesses("right_order", bad, gens, idx)
    right_ok = not bad.any()
    bad = ~vanishes(cols)
    failures += _witnesses("left_order", bad.T, idx, gens)
    left_ok = not bad.any()
    if ring.mul_table is not None:
        table = ring.mul_table
        zeros = np.zeros(n, dtype=np.int32)
        bad = table != _fill(ring, zeros, rows, _add_rows(ring.add_table))
        failures += _witnesses("right_distributivity", bad, idx, idx)
        right_ok = right_ok and not bad.any()
        bad = table.T != _fill(ring, zeros, cols, _add_rows(ring.add_table))
        failures += _witnesses("left_distributivity", bad.T, idx, idx)
        left_ok = left_ok and not bad.any()

    gp = ring.gen_products
    bad = ring.mul(gp[:, :, None], gens[None, None, :]) != ring.mul(gens[:, None, None], gp[None, :, :])
    failures += _witnesses("associativity", bad, gens, gens, gens)
    assoc_ok = not bad.any()

    bad = (ring.mul(ring.one, gens) != gens) | (ring.mul(gens, ring.one) != gens)
    failures += _witnesses("identity", bad, gens)

    return RingAxiomReport(
        size=n,
        has_identity=not bad.any(),
        associative=assoc_ok,
        left_distributive=left_ok,
        right_distributive=right_ok,
        checked_triples=len(gens) ** 3,
        failures=failures,
    )


def units(ring: FiniteRing) -> frozenset[int]:
    """Two-sided invertible elements, checking invertibility on both sides."""
    if ring._units is not None:
        return ring._units
    if ring.mul_table is not None:
        hits = ring.mul_table == ring.one
        two_sided = hits.any(axis=1) & hits.any(axis=0)
        result = frozenset(int(a) for a in np.nonzero(two_sided)[0])
    else:
        idx = np.arange(ring.size)
        result = frozenset(
            a
            for a in range(ring.size)
            if (ring.mul(np.full(ring.size, a), idx) == ring.one).any()
            and (ring.mul(idx, np.full(ring.size, a)) == ring.one).any()
        )
    ring._units = result
    return result


def unit_mask(ring: FiniteRing) -> np.ndarray:
    mask = np.zeros(ring.size, dtype=bool)
    mask[sorted(units(ring))] = True
    return mask


# -- constructions ---------------------------------------------------------------


def _check_size(size: int, label: str, cfg: EngineConfig) -> None:
    if size > cfg.max_ring:
        raise SizeCapError(f"{label}: carrier size {size} exceeds ring cap {cfg.max_ring}")


def _from_gen_products(orders, one: int, label: str, gp, cfg: EngineConfig) -> FiniteRing:
    """The one exit of every constructor: full tables exactly up to the table cap."""
    ring = FiniteRing(orders, one=one, label=label, gen_products=gp)
    if ring.size <= cfg.mul_table_cap:
        ring.mul_table = materialize(ring)
    else:
        ring._table_cap = cfg.mul_table_cap
    return ring


def cyclic_ring(n: int, label: str | None = None, cfg: EngineConfig | None = None) -> FiniteRing:
    """The ring of integers mod n."""
    cfg = cfg or DEFAULTS
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    label = label or f"Z/{n}"
    _check_size(n, label, cfg)
    return _from_gen_products((n,), 1 % n, label, [[1 % n]], cfg)


# Polynomial helpers over the prime field F_p; coefficient tuples, index = degree.


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mod(a, m, p: int) -> tuple[int, ...]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        a = _poly_trim(tuple(a))
        a = list(a)
        if len(a) - 1 < dm:
            break
        q = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - q * mi) % p
        a = list(_poly_trim(tuple(a)))
        if not a:
            break
    return _poly_trim(tuple(a))


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree up to deg(f)/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for m in range(p**d):
            coeffs = []
            mm = m
            for _ in range(d):
                coeffs.append(mm % p)
                mm //= p
            g = tuple(coeffs) + (1,)
            if not _poly_mod(f, g, p):
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
    for m in range(p**k):
        coeffs = []
        mm = m
        for _ in range(k):
            coeffs.append(mm % p)
            mm //= p
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
    return _from_gen_products((p,) * k, 1, label, gp, cfg)


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
    if scalars.mul_table is None:
        raise SizeCapError(f"{label}: scalar ring too large for matrix construction")
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
    return _from_gen_products(scalars.orders * len(positions), one, label, gp, cfg)


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
    return _from_gen_products(a.orders + b.orders, a.one + a.size * b.one, label, gp, cfg)


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
            gp[m1, m2] = sum(scalars.mul(prod, int(c)) * s**t for t, c in enumerate(rem[i + j]))
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
    if scalars.mul_table is None:
        raise SizeCapError(f"{label}: scalar ring too large")
    d = len(coeffs) - 1
    _check_size(scalars.size**d, label, cfg)
    gp = _poly_gen_products(scalars, coeffs)
    return _from_gen_products(scalars.orders * d, scalars.one, label, gp, cfg)


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
    size = reduce(lambda a, b: a * b, orders, 1)
    _check_size(size, label, cfg)
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (size, size):
        raise RingValidationError(
            f"{label}: table shape {table.shape} does not match carrier size {size}"
        )
    if table.min(initial=0) < 0 or table.max(initial=0) >= size:
        raise RingValidationError(f"{label}: table entries out of range")
    if not 0 <= int(one) < size:
        raise RingValidationError(f"{label}: identity index {one} out of range")
    ring = FiniteRing(orders, one=int(one), label=label, mul_table=table)
    report = verify_ring_axioms(ring)
    if not report.ok:
        raise RingValidationError(f"{label}: {report.summary()}", report=report)
    return ring
