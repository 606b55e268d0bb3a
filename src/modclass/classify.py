"""Ring classification: elementary classes, categoricity, and certificates.

Each ring is classified by combining the radical, chain-condition, and
idempotent structure into the classical criteria: the flat class is
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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from .config import DEFAULTS, EngineConfig
from .decompose import IdempotentDecomposition, corner_isomorphism, primitive_decomposition
from .errors import ConsistencyError
from .ideals import (
    chain_conditions,
    is_local,
    is_simple_ring,
    jacobson_radical,
    quotient_ring,
    radical_nilpotency_degree,
)
from .properties import is_free_module
from .rings import FiniteRing, galois_field, matrix_ring, verify_ring_axioms
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

    @classmethod
    def from_dict(cls, data: dict) -> "ClassificationReport":
        known = {f for f in cls.__dataclass_fields__}
        missing = known - data.keys()
        if missing:
            raise ValueError(f"report missing fields {sorted(missing)}")
        return cls(**{k: data[k] for k in known})


_ORIENTATION_NOTE = (
    "chain conditions are used in the left-perfect with right-coherent orientation; "
    "a mirrored formulation (left-coherent with right-perfect) circulates in one "
    "statement of the categoricity criterion and is recorded here rather than adopted"
)


def classify_ring(ring: FiniteRing, cfg: EngineConfig | None = None) -> ClassificationReport:
    """Run the full structural pipeline on a finite ring."""
    cfg = cfg or DEFAULTS
    radical = jacobson_radical(ring, cfg)
    decomposition = primitive_decomposition(ring, cfg)
    k = decomposition.k
    multiplicities = decomposition.multiplicities
    sizes = decomposition.sizes
    if multiplicities == (1,):  # R/J is a division ring, and J is the set of non-units
        local = Verdict(True, witness=radical, note="non-units form the unique maximal left ideal")
    else:
        local = is_local(ring, cfg)
    if k == 1:
        simple = Verdict(True, note="every nonzero element generates the whole ring")
    elif k == 0:
        simple = Verdict(False, note="zero quotient")
    else:
        simple = is_simple_ring(quotient_ring(ring, radical, label=f"({ring.label})/J", cfg=cfg), cfg)
    if bool(local) != (multiplicities == (1,)) or bool(simple) != (k == 1):
        raise ConsistencyError(f"{ring.label}: local/simple predicates contradict r = {multiplicities}")
    chains = chain_conditions(ring, cfg)

    flats_elementary = chains.right_coherent
    projectives_elementary = chains.left_perfect and chains.right_coherent
    frees_elementary = chains.right_artinian and (bool(local) or bool(simple))
    property_ii = projectives_elementary and k == 1
    property_iv = frees_elementary
    property_iii = property_iv
    property_i = IMPLIED_TRUE if property_ii else UNKNOWN
    projective_equals_free = k == 1 and multiplicities == (1,)

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
        finite=True,
        radical_size=len(radical),
        is_local=bool(local),
        r_mod_j_simple=bool(simple),
        right_artinian=chains.right_artinian,
        left_perfect=chains.left_perfect,
        right_coherent=chains.right_coherent,
        indecomposables=[[int(s), int(m)] for s, m in zip(sizes, multiplicities)],
        k=k,
        flats_elementary=flats_elementary,
        projectives_elementary=projectives_elementary,
        frees_elementary=frees_elementary,
        property_I=property_i,
        property_II=TRUE if property_ii else FALSE,
        property_III=TRUE if property_iii else FALSE,
        property_IV=TRUE if property_iv else FALSE,
        categorical=property_ii,
        projective_equals_free=projective_equals_free,
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


_BRIDGE_FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9)


def _matrix_unit_identities(n: int, q: int) -> dict:
    """Enumeratively verify the field-generic idempotent identities in M(n, GF(q)).

    Matrices are (..., n, n) arrays of GF(q) element indices, multiplied
    through the field's addition and multiplication tables, so no matrix
    ring is built; the corner check runs over all q^(n^2) matrices.
    """
    scalars = galois_field(q)
    add, mul = scalars.add_table, scalars.mul_table

    def matmul(a, b):
        terms = mul[a[..., :, :, None], b[..., None, :, :]]  # a_ij b_jk at [..., i, j, k]
        return reduce(lambda x, y: add[x, y], np.moveaxis(terms, -2, 0))

    eu = np.eye(n * n, dtype=np.int64).reshape(n, n, n, n) * scalars.one  # eu[i, j] = E_ij
    diag = [eu[i, i] for i in range(n)]
    zero = np.zeros((n, n), dtype=np.int64)
    ok_sum = np.array_equal(reduce(lambda x, y: add[x, y], diag), np.eye(n, dtype=np.int64) * scalars.one)
    ok_orth = all(
        np.array_equal(matmul(diag[i], diag[j]), diag[i] if i == j else zero)
        for i in range(n)
        for j in range(n)
    )
    # Corners are conjugate; one check suffices per size.  Sorted rows put the
    # zero matrix before E_11, so the corner's idempotents must be exactly those.
    e = diag[0]
    every = ((np.arange(q ** (n * n))[:, None] // q ** np.arange(n * n)) % q).reshape(-1, n, n)
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
    notes = [
        "symbolic entry: no enumeration over the infinite carrier; verdicts follow "
        "field-generic identities among the matrix units",
        "matrix ring over a field is simple artinian, hence perfect, coherent, and "
        "semisimple with zero radical",
        f"regular module is the {n}-th power of the column module",
        _ORIENTATION_NOTE,
    ]
    frees_elementary = n == 1
    return ClassificationReport(
        ring_label=f"M({n},F_infinite)",
        carrier_size=None,
        finite=False,
        radical_size=None,
        is_local=n == 1,
        r_mod_j_simple=True,
        right_artinian=True,
        left_perfect=True,
        right_coherent=True,
        indecomposables=[[None, n]],
        k=1,
        flats_elementary=True,
        projectives_elementary=True,
        frees_elementary=frees_elementary,
        property_I=IMPLIED_TRUE,
        property_II=TRUE,
        property_III=TRUE if frees_elementary else FALSE,
        property_IV=TRUE if frees_elementary else FALSE,
        categorical=True,
        projective_equals_free=n == 1,
        notes=notes,
        witnesses={"radical_size": "zero (semisimple)"},
    )


def classify_matrix_family(
    n: int,
    field: int | str,
    cfg: EngineConfig | None = None,
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
    symbolic = isinstance(field, str) and field in ("infinite", "symbolic")
    if not symbolic:
        q = int(field)
        if q > 9:
            raise ValueError(f"finite field size q={q} above 9")

    if symbolic:
        report = _symbolic_report(n)
        claims = _symbolic_claims(n)
        certificate = CounterexampleCertificate(n=n, field_kind="infinite", claims=claims)
        return report, certificate

    scalars = galois_field(q, cfg=cfg)
    ring = matrix_ring(n, scalars, cfg=cfg)
    report = classify_ring(ring, cfg)
    certificate = _finite_certificate(n, q, ring, scalars, report, cfg)
    return report, certificate


def _regular_is_p_power(ring: FiniteRing, decomposition: IdempotentDecomposition) -> bool:
    """Whether (x_f) -> sum_f x_f a_f is a bijection (Re)^r -> R, for e the
    first idempotent of the first class and f over that class's r members.

    ``corner_isomorphism`` gives a in eRf and b in fRe with ab = e, ba = f,
    so x -> x a maps Re to Rf with x a b = x; the map commutes with the left
    action, so a bijection is an explicit isomorphism P^r = R.
    """
    mul = ring.mul_table
    e = decomposition.classes[0][0]
    column = np.unique(mul[:, e])  # Re
    sums = np.zeros(1, dtype=np.int64)
    for f in decomposition.classes[0]:
        a, b = corner_isomorphism(ring, e, f)
        image = mul[column, a]
        if not np.array_equal(mul[image, b], column):
            return False
        sums = ring.add(sums[:, None], image[None, :]).ravel()
    return len(sums) == ring.size and len(np.unique(sums)) == ring.size


def _finite_certificate(
    n: int,
    q: int,
    ring: FiniteRing,
    scalars: FiniteRing,
    report: ClassificationReport,
    cfg: EngineConfig,
) -> CounterexampleCertificate:
    identities = _matrix_unit_identities(n, q)
    decomposition = primitive_decomposition(ring, cfg)
    p_module = decomposition.representatives[0]
    power_matches = _regular_is_p_power(ring, decomposition)
    free_verdict = is_free_module(p_module, cfg)
    claims = [
        CertificateClaim(
            name="unique_indecomposable",
            statement="every indecomposable projective is isomorphic to the column module P",
            holds=decomposition.k == 1,
            status="verified",
            witness={"k": decomposition.k, "identities": identities},
        ),
        CertificateClaim(
            name="regular_is_p_power",
            statement=f"P^({n}) is isomorphic to the regular module",
            holds=bool(power_matches) and decomposition.multiplicities == (n,),
            status="verified",
            witness={
                "multiplicity": list(decomposition.multiplicities),
                "p_size": p_module.size,
                "explicit_isomorphism_found": power_matches,
            },
        ),
        CertificateClaim(
            name="p_not_free",
            statement="the column module P is not a free module",
            holds=(not free_verdict.value) if n >= 2 else False,
            status="verified",
            witness={"free_check": free_verdict.note}
            | ({} if n >= 2 else {"degenerate": "n=1 makes P = R, which is free"}),
        ),
        CertificateClaim(
            name="uncountably_categorical",
            statement="all modules of a given infinite size are isomorphic "
            "(every module is a direct sum of copies of P)",
            holds=report.categorical,
            status="verified",
            witness={"property_II": report.property_II},
        ),
        CertificateClaim(
            name="frees_not_elementary",
            statement="the class of free modules is not axiomatizable",
            holds=not report.frees_elementary,
            status="verified",
            witness={
                "frees_elementary": report.frees_elementary,
                "note": "finite matrix rings keep the free class elementary",
            },
        ),
    ]
    return CounterexampleCertificate(n=n, field_kind=f"GF({q})", claims=claims)


def _symbolic_claims(n: int) -> list:
    bridge = []
    for q in _BRIDGE_FIELD_SIZES:
        if q ** (n * n) <= 10_000:
            bridge.append(_matrix_unit_identities(n, q))
    bridge_ok = all(b["ok"] for b in bridge)
    unit_witness = {
        "idempotents": [f"E_{i}{i}" for i in range(1, n + 1)],
        "relations": "E_ii E_jj = 0 for i != j; E_11 + ... + E_nn = 1; "
        "E_ij E_ji = E_ii realizes the column-module isomorphisms",
        "finite_field_bridge": bridge,
        "bridge_ok": bridge_ok,
    }
    return [
        CertificateClaim(
            name="unique_indecomposable",
            statement="every indecomposable projective is isomorphic to the column module P",
            holds=True,
            status="certificate",
            witness=unit_witness,
        ),
        CertificateClaim(
            name="regular_is_p_power",
            statement=f"P^({n}) is isomorphic to the regular module",
            holds=True,
            status="certificate",
            witness={
                "decomposition": "R = R E_11 + ... + R E_nn with the column-module "
                "isomorphisms given by the matrix units",
            },
        ),
        CertificateClaim(
            name="p_not_free",
            statement="the column module P is not a free module",
            holds=n >= 2,
            status="certificate",
            witness={
                "dimension_argument": (
                    f"over the base field, P has dimension {n} while a free module "
                    f"has dimension a multiple of {n * n}; no positive multiple matches"
                    if n >= 2
                    else "n=1 makes P = R, which is free"
                )
            },
        ),
        CertificateClaim(
            name="uncountably_categorical",
            statement="all algebras of a given uncountable size are isomorphic "
            "(every module is a direct sum of copies of P)",
            holds=True,
            status="certificate",
            witness={"reason": "semisimple with a unique simple module"},
        ),
        CertificateClaim(
            name="frees_not_elementary",
            statement="the class of free modules is not axiomatizable",
            holds=n >= 2,
            status="certificate",
            witness={
                "reason": (
                    "P is a direct summand limit of frees yet not free, so freeness "
                    "is not preserved under elementary equivalence"
                    if n >= 2
                    else "n=1 is a division ring: frees are elementary"
                )
            },
        ),
    ]


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
