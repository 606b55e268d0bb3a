"""End-to-end outputs stay byte-identical to a recorded set.

``tests/data/golden_outputs.json`` maps each output below to its exact text:
``classify --corpus builtin`` (JSON and ``--table``), ``decompose`` and
``radical`` for a few specs, ``classify`` for a few more, ``certificate`` for
a few matrix families, and the seed-1 meta-suite, which ``test_classify.py::TestSuite`` compares against the run it
already makes.
Re-record it (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import io
import json
from pathlib import Path

from modclass import run_meta_suite
from modclass.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_outputs.json"

SPECS = ("Z/12", "T(2,GF(2))", "M(2,GF(3))", "GF(2) x M(2,GF(2))")
# One spec per branch of the local / R/J-simple verdicts: k = 1 with r = 3,
# local, not local with J != 0, and k = 2 (the negative-witness search).
CLASSIFY_SPECS = ("M(3,GF(2))", "GF(256)", "M(2,Z/4)", "PolyQuot(GF(2),[1,0,0,1,0,0,0,0,0,1])")
# The symbolic certificates carry the finite-field bridge (empty for n = 4);
# the finite ones the enumerative pipeline, with n = 1 the degenerate witness,
# q = 3 an odd prime and q = 4 a non-prime field.
CERTIFICATES = (
    ("1", "infinite"),
    ("2", "infinite"),
    ("3", "infinite"),
    ("4", "infinite"),
    ("1", "2"),
    ("2", "2"),
    ("2", "3"),
    ("2", "4"),
    ("3", "2"),
)
# A module cap below |R| must not reach the certificate's regular module.
CAPPED_CERTIFICATE = ["certificate", "--n", "2", "--field", "2", "--max-module", "8"]
META_KEY = "run_meta_suite(seeds=(1,))"


def cli_commands() -> list[list[str]]:
    commands = [["classify", "--corpus", "builtin"], ["classify", "--corpus", "builtin", "--table"]]
    commands += [[command, spec] for command in ("decompose", "radical") for spec in SPECS]
    commands += [["classify", spec] for spec in CLASSIFY_SPECS]
    commands += [["certificate", "--n", n, "--field", field] for n, field in CERTIFICATES]
    commands.append(CAPPED_CERTIFICATE)
    return commands


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def meta_suite_output(result) -> str:
    payload = {
        "reports": [report.to_dict() for report in result.reports],
        "meta": [section.to_dict() for section in result.meta],
    }
    return json.dumps(payload, indent=1)


def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def mismatches(got: dict[str, str], expected: dict[str, str]) -> list[str]:
    return [key for key in expected if got.get(key) != expected[key]]


def test_cli_outputs_match_golden():
    expected = golden()
    got = {" ".join(argv): cli_output(argv) for argv in cli_commands()}
    assert sorted(got) == sorted(k for k in expected if k != META_KEY)
    assert not mismatches(got, {k: v for k, v in expected.items() if k != META_KEY})


def test_one_byte_edit_of_any_output_is_caught():
    expected = golden()
    for key, text in expected.items():
        middle = len(text) // 2
        edited = text[:middle] + chr(ord(text[middle]) ^ 1) + text[middle + 1 :]
        assert mismatches({**expected, key: edited}, expected) == [key]


if __name__ == "__main__":
    outputs = {" ".join(argv): cli_output(argv) for argv in cli_commands()}
    outputs[META_KEY] = meta_suite_output(run_meta_suite(seeds=(1,)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
