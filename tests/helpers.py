"""Checks and conversions that only the tests use, kept out of the package."""

import numpy as np

from modclass import ModuleHom
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
