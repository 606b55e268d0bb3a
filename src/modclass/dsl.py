"""Parser for the frozen ring-spec expression language.

Grammar (UTF-8 text, whitespace-insensitive):

    spec   := term ('x' term)*                    product of rings
    term   := 'Z' '/' int                         integers mod n
            | 'GF' '(' int ')'                    Galois field, prime power <= 256
            | 'M' '(' int ',' spec ')'            full matrix ring
            | 'T' '(' int ',' spec ')'            upper-triangular matrix ring
            | 'PolyQuot' '(' spec ',' coeffs ')'  S[x]/(monic polynomial)
            | 'StructConst' '(' path ')'          JSON structure constants
            | '(' spec ')'
    coeffs := '[' int (',' int)* ']'              constant term first
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .config import DEFAULTS, EngineConfig
from .errors import RingSpecError, RingValidationError
from .rings import (
    FiniteRing,
    cyclic_ring,
    galois_field,
    matrix_ring,
    poly_quotient_ring,
    product_ring,
    ring_from_tables,
    triangular_ring,
    verify_ring_axioms,
)

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[/(),\[\]])")


class _Parser:
    def __init__(self, text: str, cfg: EngineConfig):
        self.text = text
        self.cfg = cfg
        self.pos = 0

    def error(self, message: str) -> RingSpecError:
        return RingSpecError(f"{message} (at position {self.pos} in {self.text!r})")

    def peek(self) -> str | None:
        m = _TOKEN.match(self.text, self.pos)
        return m.group(1) if m else None

    def next(self) -> str:
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            raise self.error("unexpected end of input or bad character")
        self.pos = m.end()
        return m.group(1)

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise self.error(f"expected {tok!r}, got {got!r}")

    def int_token(self, what: str) -> int:
        tok = self.next()
        if not tok.isdigit():
            raise self.error(f"expected {what}, got {tok!r}")
        return int(tok)

    def parse_spec(self) -> FiniteRing:
        ring = self.parse_term()
        while self.peek() == "x":
            self.next()
            rhs = self.parse_term()
            ring = product_ring(ring, rhs, cfg=self.cfg)
        return ring

    def parse_term(self) -> FiniteRing:
        tok = self.next()
        if tok == "(":
            ring = self.parse_spec()
            self.expect(")")
            return ring
        if tok == "Z":
            self.expect("/")
            n = self.int_token("modulus")
            if n < 1:
                raise self.error(f"modulus must be positive, got {n}")
            return cyclic_ring(n, cfg=self.cfg)
        if tok == "GF":
            self.expect("(")
            q = self.int_token("field size")
            self.expect(")")
            try:
                return galois_field(q, cfg=self.cfg)
            except ValueError as exc:
                raise self.error(str(exc)) from exc
        if tok in ("M", "T"):
            self.expect("(")
            n = self.int_token("matrix dimension")
            if n < 1:
                raise self.error(f"matrix dimension must be positive, got {n}")
            self.expect(",")
            inner = self.parse_spec()
            self.expect(")")
            builder = matrix_ring if tok == "M" else triangular_ring
            return builder(n, inner, cfg=self.cfg)
        if tok == "PolyQuot":
            self.expect("(")
            inner = self.parse_spec()
            self.expect(",")
            coeffs = self.parse_coeffs()
            self.expect(")")
            try:
                return poly_quotient_ring(inner, coeffs, cfg=self.cfg)
            except ValueError as exc:
                raise self.error(str(exc)) from exc
        if tok == "StructConst":
            self.expect("(")
            path = self.parse_path()
            self.expect(")")
            return load_struct_const(path, cfg=self.cfg)
        raise self.error(f"unknown construction {tok!r}")

    def parse_coeffs(self) -> list[int]:
        self.expect("[")
        coeffs = [self.int_token("coefficient")]
        while self.peek() == ",":
            self.next()
            coeffs.append(self.int_token("coefficient"))
        self.expect("]")
        return coeffs

    def parse_path(self) -> str:
        # Paths run verbatim to the matching close paren.
        end = self.text.find(")", self.pos)
        if end < 0:
            raise self.error("unterminated StructConst path")
        path = self.text[self.pos : end].strip()
        if not path:
            raise self.error("empty StructConst path")
        self.pos = end
        return path


def load_struct_const(path: str | Path, cfg: EngineConfig | None = None) -> FiniteRing:
    """Build a ring from a JSON file {orders: [...], one: i, table: [[...]]}."""
    cfg = cfg or DEFAULTS
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise RingSpecError(f"StructConst file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise RingSpecError(f"StructConst file {path} is not valid JSON: {exc}") from exc
    return struct_const_from_dict(data, label=f"StructConst({path})", cfg=cfg)


def struct_const_from_dict(
    data: dict, label: str = "StructConst", cfg: EngineConfig | None = None
) -> FiniteRing:
    cfg = cfg or DEFAULTS
    if not isinstance(data, dict):
        raise RingSpecError(f"{label}: expected a JSON object")
    missing = {"orders", "one", "table"} - data.keys()
    if missing:
        raise RingSpecError(f"{label}: missing keys {sorted(missing)}")
    return ring_from_tables(data["orders"], data["one"], data["table"], label=label, cfg=cfg)


def build_ring(spec: str, cfg: EngineConfig | None = None) -> FiniteRing:
    """Parse a ring-spec expression and return a validated ring.

    Raises RingSpecError for malformed input, RingValidationError if the
    resulting structure constants fail the axioms, and SizeCapError when the
    carrier exceeds the configured maximum.
    """
    cfg = cfg or DEFAULTS
    if not isinstance(spec, str) or not spec.strip():
        raise RingSpecError("empty ring spec")
    parser = _Parser(spec, cfg)
    ring = parser.parse_spec()
    if parser.peek() is not None:
        raise parser.error(f"trailing input {parser.peek()!r}")
    leftover = parser.text[parser.pos :].strip()
    if leftover:
        raise parser.error(f"trailing input {leftover!r}")
    report = verify_ring_axioms(ring)
    if not report.ok:
        raise RingValidationError(f"{ring.label}: {report.summary()}", report=report)
    return ring
