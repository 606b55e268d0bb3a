"""Command-line interface: output formats, exit codes, environment overrides."""

import json
import re

import numpy as np

from modclass import BUILTIN_CORPUS_SPECS
from modclass.cli import EXIT_CAPS, EXIT_OK, EXIT_SPEC, EXIT_VIOLATIONS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_single_ring_json(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "Z/6")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["k"] == 2
        assert report["categorical"] is False

    def test_corpus_table(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--corpus", "builtin", "--table")
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line.strip()]
        data_rows = lines[2 : 2 + len(BUILTIN_CORPUS_SPECS)]
        assert len(data_rows) == 12
        assert "0 meta violations" in out

    def test_corpus_json_matches_table(self, capsys):
        code, json_out, _ = run_cli(capsys, "classify", "--corpus", "builtin")
        assert code == EXIT_OK
        payload = json.loads(json_out)
        assert payload["violation_count"] == 0
        reports = payload["reports"]
        assert [r["ring_label"] for r in reports] == list(BUILTIN_CORPUS_SPECS)

        code, table_out, _ = run_cli(capsys, "classify", "--corpus", "builtin", "--table")
        rows = table_out.splitlines()[2 : 2 + len(reports)]
        for report, row in zip(reports, rows):
            cells = re.split(r"\s{2,}", row.strip())
            assert cells[0] == report["ring_label"]
            assert int(cells[1]) == report["carrier_size"]
            assert (cells[3] == "yes") == report["is_local"]
            assert int(cells[5]) == report["k"]
            assert cells[10] == report["property_II"]
            assert (cells[14] == "yes") == report["categorical"]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "classify", "Z/0")
        assert code == EXIT_SPEC
        assert "positive" in err

    def test_cap_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "classify", "M(2,GF(8))", "--max-ring", "100")
        assert code == EXIT_CAPS
        assert "cap" in err.lower()

    def test_table_cap_error_names_size_and_cap(self, capsys):
        code, _, err = run_cli(capsys, "classify", "Z/5000", "--max-ring", "10000")
        assert code == EXIT_CAPS
        assert "5000 elements" in err and "table cap 4096" in err
        assert "raise the table cap" not in err

    def test_no_specs(self, capsys):
        code, _, err = run_cli(capsys, "classify")
        assert code == EXIT_SPEC


class TestEnvOverride:
    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("MODCLASS_MAX_SIZE", "10")
        code, _, err = run_cli(capsys, "classify", "M(2,GF(2))")
        assert code == EXIT_CAPS

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MODCLASS_MAX_SIZE", "10")
        code, out, _ = run_cli(capsys, "classify", "M(2,GF(2))", "--max-ring", "4096")
        assert code == EXIT_OK


class TestCertificate:
    def test_infinite_emits_all_claims(self, capsys):
        code, out, _ = run_cli(capsys, "certificate", "--n", "2", "--field", "infinite")
        assert code == EXIT_OK
        cert = json.loads(out)
        names = [c["name"] for c in cert["claims"]]
        assert names == [
            "unique_indecomposable",
            "regular_is_p_power",
            "p_not_free",
            "uncountably_categorical",
            "frees_not_elementary",
        ]
        assert all(c["status"] == "certificate" for c in cert["claims"])

    def test_finite_is_verified(self, capsys):
        code, out, _ = run_cli(capsys, "certificate", "--n", "2", "--field", "2")
        assert code == EXIT_OK
        cert = json.loads(out)
        assert all(c["status"] == "verified" for c in cert["claims"])

    def test_degenerate_n1(self, capsys):
        code, out, _ = run_cli(capsys, "certificate", "--n", "1", "--field", "infinite")
        cert = json.loads(out)
        assert not cert["claims"][2]["holds"]  # p_not_free fails when P = R

    def test_bounds(self, capsys):
        code, _, err = run_cli(capsys, "certificate", "--n", "9", "--field", "infinite")
        assert code == EXIT_SPEC


class TestOtherCommands:
    def test_radical(self, capsys):
        code, out, _ = run_cli(capsys, "radical", "T(2,GF(2))")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["size"] == 2 and payload["nilpotency_degree"] == 2

    def test_decompose(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "Z/6")
        payload = json.loads(out)
        assert payload["idempotents"] == [3, 4]
        assert payload["k"] == 2 and sorted(payload["sizes"]) == [2, 3]

    def test_ppval(self, capsys, tmp_path):
        formula = tmp_path / "phi.json"
        formula.write_text(json.dumps({"free": 1, "bound": 1, "eqs": [[1, 2]]}))
        code, out, _ = run_cli(capsys, "ppval", "Z/4", str(formula))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["solutions"] == [0, 2]
        assert payload["right_ideal"] is True

    def test_ppval_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "ppval", "Z/4", "/nope/phi.json")
        assert code == EXIT_SPEC


class TestCheckPaperNegativeControl:
    def test_corrupted_injection_names_the_ring(self, capsys, tmp_path):
        table = ((np.arange(6)[:, None] * np.arange(6)[None, :]) % 6).tolist()
        table[2][3] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"orders": [6], "one": 1, "table": table}))
        code, out, _ = run_cli(
            capsys, "check-paper", "--seeds", "1",
            "--add-struct-const-unchecked", str(bad),
        )
        assert code == EXIT_VIOLATIONS
        assert f"unchecked:{bad}" in out
        assert "ring-axioms: VIOLATED" in out
