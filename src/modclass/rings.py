"""Finite unital rings with exact integer-indexed arithmetic.

Elements of a ring of size N are the integers 0..N-1.  The additive group is
a product of cyclic groups of orders (n_1, ..., n_t); element i decodes to its
mixed-radix digit vector over those orders, and addition is the componentwise
group law.  Multiplication is kept as a full N x N table for small carriers
and evaluated bilinearly from additive-generator products above the table cap.
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

        if mul_table is None and gen_products is None:
            raise ValueError("need mul_table or gen_products")
        self.mul_table = None if mul_table is None else _as_int32(mul_table)
        if self.mul_table is not None and self.mul_table.shape != (self.size, self.size):
            raise ValueError("mul_table has wrong shape")
        self._gen_products = None if gen_products is None else _as_int32(gen_products)
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
                f"{op}: ring {self.label} (size {self.size}) has no full tables; "
                f"raise the table cap to enable this operation"
            )

    @property
    def add_table(self) -> np.ndarray:
        if self._add_table is None:
            self.require_tables("add_table")
            idx = np.arange(self.size, dtype=np.int64)
            self._add_table = _as_int32(
                self.encode(self.decode(idx)[:, None, :] + self.decode(idx)[None, :, :])
            )
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
            gens = _as_int32(self._weights)  # e_i has digit vector delta_i, index w_i
            self._gen_products = self.mul_table[np.ix_(gens, gens)]
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


# -- axiom verification --------------------------------------------------------


@dataclass
class RingAxiomReport:
    """Pass/fail record per ring axiom, with witnesses for failures."""

    size: int
    mode: str  # "exhaustive" or "sampled"
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
            f"axioms {status} ({self.mode}, {self.checked_triples} triples): "
            f"identity={self.has_identity} assoc={self.associative} "
            f"ldist={self.left_distributive} rdist={self.right_distributive}"
        )


_MAX_WITNESSES = 8


def verify_ring_axioms(ring: FiniteRing, cfg: EngineConfig | None = None) -> RingAxiomReport:
    """Check identity, associativity, and both distributive laws.

    Exhaustive over all triples when the carrier is within the configured cap,
    randomized sampling (fixed seed, reproducible) above it.  Failures are
    reported, never raised.
    """
    cfg = cfg or DEFAULTS
    n = ring.size
    one = ring.one
    idx = np.arange(n, dtype=np.int64)

    has_identity = bool(
        np.array_equal(ring.mul(np.full(n, one), idx), idx)
        and np.array_equal(ring.mul(idx, np.full(n, one)), idx)
    )

    failures: list[tuple] = []
    assoc_ok = True
    ldist_ok = True
    rdist_ok = True

    if n <= cfg.axiom_exhaustive_cap:
        mode = "exhaustive"
        checked = n * n * n
        for a in range(n):
            ab = ring.mul(np.full(n, a), idx)  # row: a*b over b
            lhs = ring.mul(ab[:, None], idx[None, :])  # (a*b)*c
            rhs = ring.mul(np.full((n, n), a), ring.mul(idx[:, None], idx[None, :]))
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                assoc_ok = False
                for b, c in bad[:_MAX_WITNESSES]:
                    failures.append(("associativity", a, int(b), int(c)))
            bc = ring.add(idx[:, None], idx[None, :])  # b+c
            lhs = ring.mul(np.full((n, n), a), bc)  # a*(b+c)
            rhs = ring.add(ab[:, None], ab[None, :])  # a*b + a*c
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                ldist_ok = False
                for b, c in bad[:_MAX_WITNESSES]:
                    failures.append(("left_distributivity", a, int(b), int(c)))
            ba = ring.mul(idx, np.full(n, a))  # b*a over b
            lhs = ring.mul(bc, np.full((n, n), a))  # (b+c)*a
            rhs = ring.add(ba[:, None], ba[None, :])  # b*a + c*a
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                rdist_ok = False
                for b, c in bad[:_MAX_WITNESSES]:
                    failures.append(("right_distributivity", int(b), int(c), a))
    else:
        mode = "sampled"
        checked = cfg.axiom_samples
        rng = np.random.default_rng(0)
        a = rng.integers(0, n, size=checked)
        b = rng.integers(0, n, size=checked)
        c = rng.integers(0, n, size=checked)
        bad = np.nonzero(ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)))[0]
        if bad.size:
            assoc_ok = False
            for i in bad[:_MAX_WITNESSES]:
                failures.append(("associativity", int(a[i]), int(b[i]), int(c[i])))
        bad = np.nonzero(
            ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c))
        )[0]
        if bad.size:
            ldist_ok = False
            for i in bad[:_MAX_WITNESSES]:
                failures.append(("left_distributivity", int(a[i]), int(b[i]), int(c[i])))
        bad = np.nonzero(
            ring.mul(ring.add(b, c), a) != ring.add(ring.mul(b, a), ring.mul(c, a))
        )[0]
        if bad.size:
            rdist_ok = False
            for i in bad[:_MAX_WITNESSES]:
                failures.append(("right_distributivity", int(b[i]), int(c[i]), int(a[i])))

    return RingAxiomReport(
        size=n,
        mode=mode,
        has_identity=has_identity,
        associative=assoc_ok,
        left_distributive=ldist_ok,
        right_distributive=rdist_ok,
        checked_triples=checked,
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


def _maybe_table(size: int, cfg: EngineConfig) -> bool:
    return size <= cfg.mul_table_cap


def cyclic_ring(n: int, label: str | None = None, cfg: EngineConfig | None = None) -> FiniteRing:
    """The ring of integers mod n."""
    cfg = cfg or DEFAULTS
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    label = label or f"Z/{n}"
    _check_size(n, label, cfg)
    if _maybe_table(n, cfg):
        idx = np.arange(n, dtype=np.int64)
        table = (idx[:, None] * idx[None, :]) % n
        return FiniteRing((n,), one=1 % n, label=label, mul_table=table)
    return FiniteRing((n,), one=1 % n, label=label, gen_products=_as_int32([[1 % n]]))


# Polynomial helpers over the prime field F_p; coefficient tuples, index = degree.


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mul(a, b, p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


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
    """GF(q) for a prime power q, on the least irreducible polynomial."""
    cfg = cfg or DEFAULTS
    if q > 256:
        raise ValueError(f"GF({q}): field size above 256 not supported")
    p, k = _factor_prime_power(q)
    label = label or f"GF({q})"
    _check_size(q, label, cfg)
    if k == 1:
        ring = cyclic_ring(p, label=label, cfg=cfg)
        return ring

    f = least_irreducible_poly(p, k)
    # Element i has base-p digits = polynomial coefficients, degree < k.
    digits = (np.arange(q)[:, None] // (p ** np.arange(k))[None, :]) % p  # (q, k)
    conv = np.einsum("ai,bj->abij", digits, digits)  # (q, q, k, k)
    full = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            full[:, :, i + j] += conv[:, :, i, j]
    # Reduction table: x^m mod f as a length-k coefficient vector.
    rem = np.zeros((2 * k - 1, k), dtype=np.int64)
    for m in range(2 * k - 1):
        r = _poly_mod((0,) * m + (1,), f, p)
        for d, c in enumerate(r):
            rem[m, d] = c
    reduced = np.einsum("abm,md->abd", full, rem) % p
    table = (reduced * (p ** np.arange(k))[None, None, :]).sum(axis=2)
    return FiniteRing((p,) * k, one=1, label=label, mul_table=table)


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
    npos = len(positions)
    size = scalars.size**npos
    _check_size(size, label, cfg)
    s = scalars.size
    pos_index = {pos: a for a, pos in enumerate(positions)}

    idx = np.arange(size, dtype=np.int64)
    entry = (idx[:, None] // (s ** np.arange(npos))[None, :]) % s  # (size, npos)

    def entry_col(ij):
        """Column of scalar indices at matrix position ij, zero if absent."""
        a = pos_index.get(ij)
        return entry[:, a] if a is not None else np.zeros(size, dtype=np.int64)

    one_digits = [scalars.one if i == j else 0 for (i, j) in positions]
    one = int(sum(d * s**a for a, d in enumerate(one_digits)))

    if not _maybe_table(size, cfg):
        # Structure-constant mode: products of additive generators only.  A
        # generator is a single scalar generator w placed at one position.
        ts = len(scalars.orders)
        t = npos * ts
        sgen = scalars._weights  # scalar-ring additive generators, as indices
        gp = np.zeros((t, t), dtype=np.int64)
        sdigits = scalars.decode(np.arange(scalars.size))
        for m1 in range(t):
            (r, c), s1 = positions[m1 // ts], int(sgen[m1 % ts])
            for m2 in range(t):
                (r2, c2), s2 = positions[m2 // ts], int(sgen[m2 % ts])
                if c != r2:
                    continue
                if upper_only and (r, c2) not in pos_index:
                    continue
                v = scalars.mul(s1, s2)
                block = pos_index[(r, c2)]
                dv = sdigits[v]
                gp[m1, m2] = int(
                    sum(int(dv[ss]) * scalars.size ** block * int(scalars._weights[ss]) for ss in range(ts))
                )
        return FiniteRing(scalars.orders * npos, one=one, label=label, gen_products=gp)

    table = np.zeros((size, size), dtype=np.int64)
    sadd = scalars.add_table
    smul = scalars.mul_table
    weight = 1
    for (i, j) in positions:
        acc = np.zeros((size, size), dtype=np.int64)
        for k in range(n):
            lhs = entry_col((i, k))
            rhs = entry_col((k, j))
            term = smul[lhs[:, None], rhs[None, :]]
            acc = sadd[acc, term]
        table += acc.astype(np.int64) * weight
        weight *= s
    return FiniteRing(scalars.orders * npos, one=one, label=label, mul_table=table)


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
    one = a.one + a.size * b.one
    _check_size(size, label, cfg)
    if not _maybe_table(size, cfg) or a.mul_table is None or b.mul_table is None:
        # Cross products of generators from different factors vanish.
        ta, tb = len(a.orders), len(b.orders)
        gp = np.zeros((ta + tb, ta + tb), dtype=np.int64)
        gp[:ta, :ta] = a.gen_products
        gp[ta:, ta:] = np.asarray(b.gen_products, dtype=np.int64) * a.size
        return FiniteRing(a.orders + b.orders, one=one, label=label, gen_products=gp)
    idx = np.arange(size, dtype=np.int64)
    ai, bi = idx % a.size, idx // a.size
    table = (
        a.mul_table[ai[:, None], ai[None, :]].astype(np.int64)
        + b.mul_table[bi[:, None], bi[None, :]].astype(np.int64) * a.size
    )
    return FiniteRing(a.orders + b.orders, one=one, label=label, mul_table=table)


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
    size = scalars.size**d
    _check_size(size, label, cfg)

    s = scalars.size
    # x^m mod f for m < 2d-1, as length-d vectors of scalar indices.
    rem = np.zeros((2 * d - 1, d), dtype=np.int64)
    for m in range(d):
        rem[m, m] = scalars.one
    for m in range(d, 2 * d - 1):
        # x^m = x * x^(m-1); then reduce the overflow coefficient via
        # x^d = -(c_0 + ... + c_{d-1} x^{d-1}).
        prev = rem[m - 1]
        shifted = np.zeros(d + 1, dtype=np.int64)
        shifted[1:] = prev
        lead = int(shifted[d])
        row = shifted[:d].copy()
        if lead:
            for t in range(d):
                row[t] = scalars.add(
                    int(row[t]), scalars.neg(scalars.mul(lead, coeffs[t]))
                )
        rem[m] = row

    if not _maybe_table(size, cfg):
        # Structure-constant mode: generator (x^i, w) x (x^j, w') lands at
        # x^(i+j) reduced by the rem table, with scalar part (w w') rem_t.
        ts = len(scalars.orders)
        t = d * ts
        sgen = scalars._weights
        sdigits = scalars.decode(np.arange(scalars.size))
        gp = np.zeros((t, t), dtype=np.int64)
        for m1 in range(t):
            i, w1 = m1 // ts, int(sgen[m1 % ts])
            for m2 in range(t):
                j, w2 = m2 // ts, int(sgen[m2 % ts])
                prod = scalars.mul(w1, w2)
                index = 0
                for tt in range(d):
                    c = int(rem[i + j, tt])
                    if c == 0:
                        continue
                    v = scalars.mul(prod, c)
                    dv = sdigits[v]
                    index += int(
                        sum(int(dv[ss]) * s**tt * int(scalars._weights[ss]) for ss in range(ts))
                    )
                gp[m1, m2] = index
        return FiniteRing(scalars.orders * d, one=int(scalars.one), label=label, gen_products=gp)

    idx = np.arange(size, dtype=np.int64)
    digit = (idx[:, None] // (s ** np.arange(d))[None, :]) % s  # (size, d)
    sadd = scalars.add_table
    smul = scalars.mul_table
    acc = np.zeros((size, size, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            prod = smul[digit[:, i][:, None], digit[:, j][None, :]]  # (size, size)
            for t in range(d):
                c = int(rem[i + j, t])
                if c == 0:
                    continue
                term = smul[prod, c]
                acc[:, :, t] = sadd[acc[:, :, t], term]
    table = (acc * (s ** np.arange(d))[None, None, :]).sum(axis=2)
    one = int(scalars.one)  # the constant polynomial 1
    return FiniteRing(scalars.orders * d, one=one, label=label, mul_table=table)


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
    report = verify_ring_axioms(ring, cfg)
    if not report.ok:
        raise RingValidationError(f"{label}: {report.summary()}", report=report)
    return ring
