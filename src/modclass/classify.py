"""Ring classification: elementary classes, categoricity, and certificates.

Each ring is classified by combining the radical, chain-condition, and
idempotent structure into the classical criteria, stated once in
``_verdicts`` for finite rings and symbolic entries alike: the flat class is
elementary iff the ring is right coherent (Chase), the projective class iff
it is also left perfect (Chase; Sabbagh-Eklof), the free class iff the ring
is artinian and either local or finite with simple semisimple quotient
(Sabbagh-Eklof), and the theory of infinitely generated free modules is
categorical in higher powers iff on top of perfect+coherent there is a unique
indecomposable projective.

The ring verdicts are read off the radical J and the primitive decomposition,
R/J = M_r1(D1) x ... x M_rk(Dk): R/J is simple iff k = 1, and R is local iff
r = (1,).  ``is_local`` and ``is_simple_ring`` run only to find the witness
of a negative verdict, and must agree with (k, r).

The M(n, F) certificate states its claims once, in ``_CLAIMS``; the finite
and the symbolic certificate each supply one (holds, witness) pair per claim.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from .config import DEFAULTS, EngineConfig
from .decompose import primitive_decomposition
from .errors import ConsistencyError
from .ideals import (
    chain_conditions,
    is_local,
    is_simple_ring,
    jacobson_radical,
    quotient_ring,
    radical_nilpotency_degree,
)
from .modules import regular_module
from .properties import is_free_module, is_projective_module
from .rings import FiniteRing, base_digits, galois_field, matrix_ring, verify_ring_axioms
from .verdict import Verdict

TRUE = "true"
FALSE = "false"
IMPLIED_TRUE = "implied_true"
UNKNOWN = "unknown"


def verdict_holds(value: str) -> bool:
    return value in (TRUE, IMPLIED_TRUE)


@dataclass
class ClassificationReport:
    """Per-ring verdict record; every field is JSON-native for round-tripping."""

    ring_label: str
    carrier_size: int | None
    finite: bool
    radical_size: int | None
    is_local: bool
    r_mod_j_simple: bool
    right_artinian: bool
    left_perfect: bool
    right_coherent: bool
    indecomposables: list  # [ [size or None, multiplicity], ... ]
    k: int
    flats_elementary: bool
    projectives_elementary: bool
    frees_elementary: bool
    property_I: str
    property_II: str
    property_III: str
    property_IV: str
    categorical: bool
    projective_equals_free: bool
    notes: list
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


_ORIENTATION_NOTE = (
    "chain conditions are used in the left-perfect with right-coherent orientation; "
    "a mirrored formulation (left-coherent with right-perfect) circulates in one "
    "statement of the categoricity criterion and is recorded here rather than adopted"
)


def _verdicts(
    multiplicities: tuple[int, ...],
    *,
    finite: bool,
    is_local: bool,
    r_mod_j_simple: bool,
    right_artinian: bool,
    left_perfect: bool,
    right_coherent: bool,
) -> dict:
    """Every verdict field of a ClassificationReport, by the criteria in the
    module docstring, from the r_i of R/J = M_r1(D1) x ... x M_rk(Dk) and the
    report's structure fields: the one rule for finite rings and symbolic
    entries.  II is categoricity and implies I; III and IV hold iff the free
    class is elementary."""
    projectives_elementary = left_perfect and right_coherent
    frees_elementary = right_artinian and (is_local or (finite and r_mod_j_simple))
    categorical = projectives_elementary and len(multiplicities) == 1
    free_class = TRUE if frees_elementary else FALSE
    return {
        "flats_elementary": right_coherent,
        "projectives_elementary": projectives_elementary,
        "frees_elementary": frees_elementary,
        "property_I": IMPLIED_TRUE if categorical else UNKNOWN,
        "property_II": TRUE if categorical else FALSE,
        "property_III": free_class,
        "property_IV": free_class,
        "categorical": categorical,
        "projective_equals_free": multiplicities == (1,),
    }


def classify_ring(ring: FiniteRing, cfg: EngineConfig | None = None) -> ClassificationReport:
    """Run the full structural pipeline on a finite ring."""
    cfg = cfg or DEFAULTS
    radical = jacobson_radical(ring)
    decomposition = primitive_decomposition(ring, cfg)
    k = decomposition.k
    multiplicities = decomposition.multiplicities
    sizes = decomposition.sizes
    if multiplicities == (1,):  # R/J is a division ring, and J is the set of non-units
        local = Verdict(True, witness=radical, note="non-units form the unique maximal left ideal")
    else:
        local = is_local(ring)
    if k == 1:
        simple = Verdict(True, note="every nonzero element generates the whole ring")
    elif k == 0:
        simple = Verdict(False, note="zero quotient")
    else:
        simple = is_simple_ring(quotient_ring(ring, radical, label=f"({ring.label})/J"))
    if bool(local) != (multiplicities == (1,)) or bool(simple) != (k == 1):
        raise ConsistencyError(f"{ring.label}: local/simple predicates contradict r = {multiplicities}")
    chains = chain_conditions(ring)
    structure = {
        "finite": True,
        "is_local": bool(local),
        "r_mod_j_simple": bool(simple),
        "right_artinian": chains.right_artinian,
        "left_perfect": chains.left_perfect,
        "right_coherent": chains.right_coherent,
    }

    notes = [
        "flats elementary <=> right coherent (Chase)",
        "projectives elementary <=> left perfect and right coherent (Chase; Sabbagh-Eklof)",
        "frees elementary <=> right artinian and (local, or finite with simple "
        "radical quotient) (Sabbagh-Eklof)",
        "higher-power categoricity <=> left perfect, right coherent, and a unique "
        "indecomposable projective",
        "all-models-free coincides with the free class being elementary",
        "no converse criterion for direct products being free alone: reported unknown "
        "when categoricity fails",
        _ORIENTATION_NOTE,
    ]
    if k == 1:
        r1 = multiplicities[0]
        notes.append(
            f"unique indecomposable projective has multiplicity r={r1}"
            + (" (P is the regular module)" if r1 == 1 else " (P is a proper summand)")
        )

    witnesses: dict = {
        "radical_nilpotency_degree": radical_nilpotency_degree(ring, radical),
        "local": _verdict_witness(local),
        "r_mod_j_simple": _verdict_witness(simple),
    }
    if chains.right_ideal_count is not None:
        witnesses["right_ideal_count"] = chains.right_ideal_count
        witnesses["right_ideal_longest_chain"] = chains.longest_chain

    return ClassificationReport(
        ring_label=ring.label,
        carrier_size=ring.size,
        radical_size=len(radical),
        indecomposables=[[int(s), int(m)] for s, m in zip(sizes, multiplicities)],
        k=k,
        **structure,
        **_verdicts(multiplicities, **structure),
        notes=notes,
        witnesses=witnesses,
    )


def _verdict_witness(v: Verdict):
    if v.witness is None:
        return {"value": bool(v), "note": v.note}
    witness = v.witness
    if hasattr(witness, "elements"):
        witness = list(int(x) for x in witness.elements)
    elif isinstance(witness, tuple):
        witness = [int(x) if isinstance(x, (int, np.integer)) else str(x) for x in witness]
    else:
        witness = str(witness)
    return {"value": bool(v), "note": v.note, "witness": witness}


# -- the matrix-ring family and its certificate ------------------------------------


@dataclass
class CertificateClaim:
    name: str
    statement: str
    holds: bool
    status: str  # "verified" (enumerative) or "certificate" (field-generic)
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CounterexampleCertificate:
    """Claims about M(n, F): the unique column module P, its powers, freeness."""

    n: int
    field_kind: str  # "GF(q)" or "infinite"
    claims: list

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "field": self.field_kind,
            "claims": [c.to_dict() for c in self.claims],
        }

    def claim(self, name: str) -> CertificateClaim:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)


# The claims about M(n, F), in certificate order, as (name, statement).  Only
# the models that categoricity makes isomorphic are worded per field.
_CLAIMS = (
    ("unique_indecomposable", "every indecomposable projective is isomorphic to the column module P"),
    ("regular_is_p_power", "P^({n}) is isomorphic to the regular module"),
    ("p_not_free", "the column module P is not a free module"),
    ("uncountably_categorical", "all {models} are isomorphic (every module is a direct sum of copies of P)"),
    ("frees_not_elementary", "the class of free modules is not axiomatizable"),
)
_P_IS_R = "n=1 makes P = R, which is free"
_BRIDGE_FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9)


def _certificate(
    n: int, field_kind: str, models: str, status: str, evidence: list
) -> CounterexampleCertificate:
    """The claims of ``_CLAIMS`` with one (holds, witness) pair each."""
    claims = [
        CertificateClaim(name, statement.format(n=n, models=models), holds, status, witness)
        for (name, statement), (holds, witness) in zip(_CLAIMS, evidence, strict=True)
    ]
    return CounterexampleCertificate(n=n, field_kind=field_kind, claims=claims)


def _matrix_unit_identities(n: int, q: int) -> dict:
    """Enumeratively verify the field-generic idempotent identities in M(n, GF(q)).

    Matrices are (..., n, n) arrays of GF(q) element indices, multiplied
    through the field's addition and multiplication, so no matrix ring is
    built; the corner check runs over all q^(n^2) matrices.
    """
    scalars = galois_field(q)
    add, mul = scalars.add, scalars.mul_table

    def matmul(a, b):
        terms = mul[a[..., :, :, None], b[..., None, :, :]]  # a_ij b_jk at [..., i, j, k]
        return reduce(add, np.moveaxis(terms, -2, 0))

    eu = np.eye(n * n, dtype=np.int64).reshape(n, n, n, n) * scalars.one  # eu[i, j] = E_ij
    diag = [eu[i, i] for i in range(n)]
    zero = np.zeros((n, n), dtype=np.int64)
    ok_sum = np.array_equal(reduce(add, diag), np.eye(n, dtype=np.int64) * scalars.one)
    ok_orth = all(
        np.array_equal(matmul(diag[i], diag[j]), diag[i] if i == j else zero)
        for i in range(n)
        for j in range(n)
    )
    # Corners are conjugate; one check suffices per size.  Sorted rows put the
    # zero matrix before E_11, so the corner's idempotents must be exactly those.
    e = diag[0]
    every = base_digits(np.arange(q ** (n * n)), q, n * n).reshape(-1, n, n)
    corner = np.unique(matmul(matmul(e, every), e).reshape(-1, n * n), axis=0).reshape(-1, n, n)
    corner_idem = corner[(matmul(corner, corner) == corner).all(axis=(1, 2))]
    ok_primitive = np.array_equal(corner_idem, np.stack([zero, e]))
    ok_iso = all(
        np.array_equal(matmul(eu[i, j], eu[j, i]), diag[i])
        and np.array_equal(matmul(eu[j, i], eu[i, j]), diag[j])
        for i in range(n)
        for j in range(n)
        if i != j
    )
    return {
        "q": q,
        "sum_is_one": bool(ok_sum),
        "orthogonal": bool(ok_orth),
        "primitive": bool(ok_primitive),
        "column_modules_pairwise_isomorphic": bool(ok_iso),
        "ok": bool(ok_sum and ok_orth and ok_primitive and ok_iso),
    }


def _symbolic_report(n: int) -> ClassificationReport:
    """M(n, F) over an infinite field: simple artinian with R/J = M_n(F).  The
    rule then gives categoricity, and for n >= 2 a free class that is not
    elementary: R is neither local nor finite."""
    notes = [
        "symbolic entry: no enumeration over the infinite carrier; verdicts follow "
        "field-generic identities among the matrix units",
        "matrix ring over a field is simple artinian, hence perfect, coherent, and "
        "semisimple with zero radical",
        f"regular module is the {n}-th power of the column module",
        _ORIENTATION_NOTE,
    ]
    structure = {
        "finite": False,
        "is_local": n == 1,
        "r_mod_j_simple": True,
        "right_artinian": True,
        "left_perfect": True,
        "right_coherent": True,
    }
    return ClassificationReport(
        ring_label=f"M({n},F_infinite)",
        carrier_size=None,
        radical_size=None,
        indecomposables=[[None, n]],
        k=1,
        **structure,
        **_verdicts((n,), **structure),
        notes=notes,
        witnesses={"radical_size": "zero (semisimple)"},
    )


def classify_matrix_family(
    n: int, field: int | str, cfg: EngineConfig | None = None
) -> tuple[ClassificationReport, CounterexampleCertificate]:
    """Classify M(n, F) for finite GF(q) or a symbolic infinite field.

    Finite fields run the full enumerative pipeline plus a verification of the
    field-generic certificate; the symbolic case emits the certificate alone,
    with every identity re-verified over the finite fields up to size 9 as a
    sanity bridge.
    """
    cfg = cfg or DEFAULTS
    if not 1 <= n <= 4:
        raise ValueError(f"matrix dimension n={n} outside 1..4")
    if isinstance(field, str) and field in ("infinite", "symbolic"):
        report = _symbolic_report(n)
        return report, _symbolic_certificate(n, report)
    q = int(field)
    if q > 9:
        raise ValueError(f"finite field size q={q} above 9")
    ring = matrix_ring(n, galois_field(q, cfg=cfg), cfg=cfg)
    report = classify_ring(ring, cfg)
    return report, _finite_certificate(n, q, ring, report, cfg)


def _finite_certificate(
    n: int, q: int, ring: FiniteRing, report: ClassificationReport, cfg: EngineConfig
) -> CounterexampleCertificate:
    decomposition = primitive_decomposition(ring, cfg)
    p_module = decomposition.representatives[0]
    # The regular module's carrier is R's and its action table R's
    # multiplication table, so it costs nothing beyond the ring and is not
    # capped a second time.  Its projective-cover section is a checked
    # bijection P^(r) -> R, with r = (n,) here.
    regular = regular_module(ring, cfg.with_overrides(max_module=max(cfg.max_module, ring.size)))
    power_matches = bool(is_projective_module(regular, cfg))
    free_verdict = is_free_module(p_module, cfg)
    r = decomposition.multiplicities
    power = {"multiplicity": list(r), "p_size": p_module.size, "explicit_isomorphism_found": power_matches}
    free_check = {"free_check": free_verdict.note} | ({} if n >= 2 else {"degenerate": _P_IS_R})
    frees = {
        "frees_elementary": report.frees_elementary,
        "note": "finite matrix rings keep the free class elementary",
    }
    evidence = [
        (decomposition.k == 1, {"k": decomposition.k, "identities": _matrix_unit_identities(n, q)}),
        (power_matches and r == (n,), power),
        (n >= 2 and not free_verdict.value, free_check),
        (report.categorical, {"property_II": report.property_II}),
        (not report.frees_elementary, frees),
    ]
    return _certificate(n, f"GF({q})", "modules of a given infinite size", "verified", evidence)


def _symbolic_certificate(n: int, report: ClassificationReport) -> CounterexampleCertificate:
    bridge = [_matrix_unit_identities(n, q) for q in _BRIDGE_FIELD_SIZES if q ** (n * n) <= 10_000]
    matrix_units = {
        "idempotents": [f"E_{i}{i}" for i in range(1, n + 1)],
        "relations": "E_ii E_jj = 0 for i != j; E_11 + ... + E_nn = 1; "
        "E_ij E_ji = E_ii realizes the column-module isomorphisms",
        "finite_field_bridge": bridge,
        "bridge_ok": all(b["ok"] for b in bridge),
    }
    summands = "R = R E_11 + ... + R E_nn with the column-module isomorphisms given by the matrix units"
    if n >= 2:
        dimensions = (
            f"over the base field, P has dimension {n} while a free module "
            f"has dimension a multiple of {n * n}; no positive multiple matches"
        )
        frees = (
            "P is a direct summand limit of frees yet not free, so freeness "
            "is not preserved under elementary equivalence"
        )
    else:
        dimensions, frees = _P_IS_R, "n=1 is a division ring: frees are elementary"
    evidence = [
        (report.k == 1, matrix_units),
        (True, {"decomposition": summands}),
        (n >= 2, {"dimension_argument": dimensions}),
        (report.categorical, {"reason": "semisimple with a unique simple module"}),
        (not report.frees_elementary, {"reason": frees}),
    ]
    return _certificate(n, "infinite", "algebras of a given uncountable size", "certificate", evidence)


# -- meta-checks over report collections --------------------------------------------


@dataclass
class MetaFinding:
    ring_label: str
    check: str
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetaReport:
    name: str
    checked: int
    findings: list
    records: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "records": list(self.records),
        }


def verify_implication_chain(reports: list[ClassificationReport]) -> MetaReport:
    """Assert the verdict implications and equivalences across reports.

    Checks IV => III => II => I, the equivalence III <=> IV, and, for finite
    rings, the coincidence II <=> IV.
    """
    findings: list[MetaFinding] = []
    for rep in reports:
        vi = verdict_holds(rep.property_I)
        vii = verdict_holds(rep.property_II)
        viii = verdict_holds(rep.property_III)
        viv = verdict_holds(rep.property_IV)
        if viv and not viii:
            findings.append(MetaFinding(rep.ring_label, "IV=>III", "IV holds but III fails"))
        if viii and not vii:
            findings.append(MetaFinding(rep.ring_label, "III=>II", "III holds but II fails"))
        if vii and not vi:
            findings.append(MetaFinding(rep.ring_label, "II=>I", "II holds but I fails"))
        if viii != viv:
            findings.append(
                MetaFinding(rep.ring_label, "III<=>IV", f"III={rep.property_III} IV={rep.property_IV}")
            )
        if rep.finite and vii != viv:
            findings.append(
                MetaFinding(
                    rep.ring_label,
                    "finite:II<=>IV",
                    f"II={rep.property_II} IV={rep.property_IV} on a finite ring",
                )
            )
        if rep.categorical != vii:
            findings.append(
                MetaFinding(rep.ring_label, "categorical=II", "categorical flag out of sync")
            )
    return MetaReport(name="implication-chain", checked=len(reports), findings=findings)


def lemma31_check(reports: list[ClassificationReport]) -> MetaReport:
    """Frees elementary vs (projectives elementary and projective = free).

    The right-to-left direction must hold everywhere; left-to-right is
    asserted only for infinite (symbolic) entries.  Finite entries realizing
    frees-elementary without projective=free are recorded, not flagged.
    """
    findings: list[MetaFinding] = []
    records: list[str] = []
    for rep in reports:
        lhs = rep.frees_elementary
        rhs = rep.projectives_elementary and rep.projective_equals_free
        if rhs and not lhs:
            findings.append(
                MetaFinding(rep.ring_label, "proj-elem+proj=free => frees-elem", "fails")
            )
        if not rep.finite and lhs and not rhs:
            findings.append(
                MetaFinding(rep.ring_label, "infinite: frees-elem => proj-elem+proj=free", "fails")
            )
        if rep.finite and lhs and not rhs:
            records.append(
                f"{rep.ring_label}: free class elementary although projective != free "
                "(finite counterexample to the naive converse)"
            )
    return MetaReport(
        name="frees-vs-projectives", checked=len(reports), findings=findings, records=records
    )


def recheck_ring_axioms(rings: list[FiniteRing]) -> MetaReport:
    """Re-verify the ring axioms of every corpus member (negative-control hook)."""
    findings = []
    for ring in rings:
        report = verify_ring_axioms(ring)
        if not report.ok:
            findings.append(MetaFinding(ring.label, "ring-axioms", report.summary()))
    return MetaReport(name="ring-axioms", checked=len(rings), findings=findings)
