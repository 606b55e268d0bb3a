"""Checks and conversions that only the tests use, kept out of the package."""

import numpy as np

from modclass import ClassificationReport, ModuleHom, ring_from_tables
from modclass.modules import _submodule_generators
from modclass.subgroup import span


def hom_is_valid(hom) -> bool:
    """Additivity plus commuting with the whole ring action."""
    src, tgt = hom.source, hom.target
    x = np.arange(src.size)
    sums = src.add(x[:, None], x[None, :])
    if not np.array_equal(hom.table[sums], tgt.add(hom.table[x][:, None], hom.table[x][None, :])):
        return False
    acted = src.act_table[:, x]
    return bool(np.array_equal(hom.table[acted], tgt.act_table[:, hom.table]))


def compose(outer, inner):
    """outer ∘ inner, for maps with inner's target outer's source."""
    if inner.target is not outer.source:
        raise ValueError("composition mismatch")
    return ModuleHom(inner.source, outer.target, outer.table[inner.table])


def scalar_mul(ring, k: int, a):
    """k-fold additive multiple of a (k any integer)."""
    out = ring.encode(int(k) * ring.decode(a))
    return int(out) if np.ndim(out) == 0 else out


def all_hold(report) -> bool:
    """Every chain condition of a ChainConditionsReport holds."""
    return report.right_artinian and report.left_perfect and report.right_coherent


def formula_to_json(phi) -> dict:
    """A PPFormula as the JSON object that PPFormula.from_json_dict reads."""
    return {"free": phi.free, "bound": phi.bound, "eqs": [list(r) for r in phi.equations]}


def submodule_generated(module, seeds) -> np.ndarray:
    """Least submodule containing the seeds: the additive span of the e_i s,
    for R's additive generators e_i and the seeds s."""
    products = module.act_table[np.ix_(module.ring._gens, np.asarray(seeds, dtype=np.int64))]
    return np.flatnonzero(span(module.add, module.size, products.ravel()))


def is_submodule(module, elements) -> bool:
    """An additive subgroup closed under the action of each e_i is closed under R."""
    return _submodule_generators(module, np.asarray(elements, dtype=np.int64)) is not None


def report_from_dict(data: dict) -> ClassificationReport:
    """The ClassificationReport that ``to_dict`` wrote; a missing field raises."""
    known = set(ClassificationReport.__dataclass_fields__)
    missing = known - data.keys()
    if missing:
        raise ValueError(f"report missing fields {sorted(missing)}")
    return ClassificationReport(**{k: data[k] for k in known})


def relabeled(ring, rng):
    """The table of ring on a carrier permuted by a random pi fixing 0, with
    the additive orders left as they are: pi(a) * pi(b) = pi(a * b)."""
    pi = np.concatenate(([0], 1 + rng.permutation(ring.size - 1)))
    inv = np.argsort(pi)
    return pi[ring.mul_table[np.ix_(inv, inv)]], int(pi[ring.one])


def automorphic_copy(ring, rng):
    """An isomorphic copy of a ring whose additive group is elementary abelian,
    its carrier relabeled by x -> xA for a random invertible digit matrix A
    over GF(p), and pi, the relabeling (copy element pi[x] is ring element x)."""
    p, t = ring.orders[0], len(ring.orders)
    if set(ring.orders) != {p}:
        raise ValueError(f"{ring.label}: additive group is not elementary abelian")
    digits = ring.decode(np.arange(ring.size))
    while True:
        pi = ring.encode(digits @ rng.integers(p, size=(t, t)) % p)
        if len(np.unique(pi)) == ring.size:  # A is invertible
            break
    inv = np.argsort(pi)
    table = pi[ring.mul_table[np.ix_(inv, inv)]]
    return ring_from_tables(ring.orders, int(pi[ring.one]), table, f"{ring.label}^A"), pi


def corner_pair_search(ring, e, f):
    """Witness (a, b) with a in eRf, b in fRe, ab = e and ba = f, if Re ≅ Rf:
    the search over every pair that a product test for primitive e, f replaces."""
    mul = ring.mul_table
    erf = np.unique(mul[mul[e, :], f])
    fre = np.unique(mul[mul[f, :], e])
    for i, j in np.argwhere(mul[np.ix_(erf, fre)] == e):
        a, b = int(erf[i]), int(fre[j])
        if int(mul[b, a]) == f:
            return a, b
    return None
