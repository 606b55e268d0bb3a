"""Command-line interface: output formats, exit codes, environment overrides."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modclass
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

    def test_ring_cap_error_names_size_and_cap(self, capsys):
        # The ring cap is the only cap on ring size (and on its tables).
        code, _, err = run_cli(capsys, "classify", "Z/5000")
        assert code == EXIT_CAPS
        assert "5000" in err and "ring cap 4096" in err

    def test_no_specs(self, capsys):
        code, _, err = run_cli(capsys, "classify")
        assert code == EXIT_SPEC


class TestCapFlags:
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--max-ring", "--max-module", "--max-homs"])
    def test_non_positive_cap_is_refused(self, capsys, flag, value):
        # 0 used to mean the default and -1 to exhaust every cap.
        code, out, err = run_cli(capsys, "classify", "Z/6", flag, value)
        assert code == EXIT_SPEC and out == ""
        assert f"{flag} must be positive, got {value}" in err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_seed_count_is_refused(self, capsys, value):
        code, out, err = run_cli(capsys, "check-paper", "--seeds", value)
        assert code == EXIT_SPEC and out == ""
        assert err == f"error: --seeds must be positive, got {value}\n"

    def test_specs_with_the_corpus_are_refused(self, capsys):
        # The SPEC arguments used to be dropped without a word.
        code, out, err = run_cli(capsys, "classify", "--corpus", "builtin", "Z/6")
        assert code == EXIT_SPEC and out == ""
        assert "not both" in err


class TestCapHints:
    """A cap error carries its cap, and the CLI adds one line: the flag that
    raises it, or that it has none."""

    def test_ring_cap_names_its_flag(self, capsys):
        code, _, err = run_cli(capsys, "classify", "Z/64", "--max-ring", "16")
        assert code == EXIT_CAPS
        assert err == (
            "cap exhausted: Z/64: carrier size 64 exceeds ring cap 16\n"
            "rerun with --max-ring 64 or more\n"
        )

    def test_module_cap_names_its_flag(self, capsys):
        code, _, err = run_cli(capsys, "classify", "Z/8", "--max-module", "4")
        assert code == EXIT_CAPS
        assert err == "cap exhausted: P1(Z/8): module size 8 above cap 4\nrerun with --max-module 8 or more\n"

    def test_hom_cap_names_its_flag(self, capsys, tmp_path):
        formula = tmp_path / "phi.json"
        formula.write_text(json.dumps({"free": 1, "bound": 1, "eqs": [[2, 2]]}))
        code, _, err = run_cli(capsys, "ppval", "Z/4", str(formula), "--max-homs", "8")
        assert code == EXIT_CAPS
        assert err.endswith("residual witness space 16 above cap 8\nrerun with --max-homs 16 or more\n")

    def test_free_cover_has_no_flag(self, capsys):
        # max(max_module, max_homs) bounds a presentation's free cover.
        argv = ("check-paper", "--seeds", "1", "--max-module", "64", "--max-homs", "64")
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CAPS
        assert err.endswith("free cover 144 above cap\nthe free_cover cap of 64 has no flag of its own\n")

    # No command reaches IDEAL_ENUM_CAP or a lattice limit: the engine checks
    # the ring size before it enumerates ideals, and no corpus lattice nears
    # 20,000 members.  The radical command stands in for a command that does.

    def test_ideal_cap_has_no_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(modclass.cli, "jacobson_radical", lambda ring: modclass.one_sided_ideals(ring, "left"))
        code, _, err = run_cli(capsys, "radical", "Z/128")
        assert code == EXIT_CAPS
        assert err == (
            "cap exhausted: ideal lattice of Z/128: size 128 above cap 64\n"
            "the ideal_enum cap of 64 has no flag of its own\n"
        )

    def test_lattice_limit_has_no_flag(self, capsys, monkeypatch):
        def submodules(ring):
            return modclass.all_submodules(modclass.regular_module(ring), limit=2)

        monkeypatch.setattr(modclass.cli, "jacobson_radical", submodules)
        code, _, err = run_cli(capsys, "radical", "Z/8")
        assert code == EXIT_CAPS
        assert err == (
            "cap exhausted: Z/8^1: submodule lattice above 2\n"
            "the lattice cap of 2 has no flag of its own\n"
        )


def _raise_cap(call):
    with pytest.raises(modclass.SizeCapError) as info:
        call()
    return info.value


def test_every_cap_raise_fills_its_fields():
    cfg = modclass.DEFAULTS.with_overrides
    z4, z6, z8 = (modclass.build_ring(spec) for spec in ("Z/4", "Z/6", "Z/8"))
    reg4, reg6 = modclass.regular_module(z4), modclass.regular_module(z6)
    phi = modclass.PPFormula.from_json_dict({"free": 1, "bound": 1, "eqs": [[2, 2]]})
    cases = [
        (lambda: modclass.build_ring("Z/64", cfg(max_ring=16)), ("max_ring", 64, 16)),
        (lambda: modclass.FiniteModule(z8, 1, np.arange(8), "M", cfg(max_module=4)), ("max_module", 8, 4)),
        (lambda: modclass.free_module(z4, 2, cfg(max_module=10)), ("max_module", 16, 10)),
        (lambda: modclass.direct_sum(reg6, reg6, cfg(max_module=20, max_homs=30)), ("free_cover", 36, 30)),
        (lambda: modclass.hom_enumerate(reg6, reg6, cfg(max_homs=5)), ("max_homs", 6, 5)),
        (lambda: modclass.pp_evaluate(reg4, phi, cfg(max_homs=8)), ("max_homs", 16, 8)),
        (lambda: modclass.one_sided_ideals(modclass.build_ring("Z/128"), "left"), ("ideal_enum", 128, 64)),
        # Z/8 has 4 submodules in one block; R^2 over Z/6 has blocks of 5 and 6.
        (lambda: modclass.all_submodules(modclass.regular_module(z8), limit=2), ("lattice", 3, 2)),
        (lambda: modclass.all_submodules(modclass.direct_sum(reg6, reg6), limit=10), ("lattice", 30, 10)),
    ]
    for call, fields in cases:
        exc = _raise_cap(call)
        assert (exc.cap, exc.requested, exc.limit) == fields, str(exc)


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

    def test_p_cubed_is_regular_in_bounded_memory(self):
        # P^3 = M(3,GF(2)) is read off the regular module's projective-cover
        # section; building P^3 as a module would fill arrays over its
        # 512^3-element free cover.
        script = (
            "import sys\n"
            "from modclass.cli import main\n"
            "code = main(['certificate', '--n', '3', '--field', '2'])\n"
            "print(open('/proc/self/status').read(), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        src = str(Path(modclass.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == EXIT_OK, result.stderr
        claims = {c["name"]: c for c in json.loads(result.stdout)["claims"]}
        assert claims["regular_is_p_power"]["holds"]
        assert claims["regular_is_p_power"]["witness"]["explicit_isomorphism_found"] is True
        # VmHWM is this process's own peak RSS, in kB; ru_maxrss would also
        # count the pages of the forking test process.
        peak_kb = int(re.search(r"^VmHWM:\s+(\d+) kB", result.stderr, re.M).group(1))
        assert peak_kb < 100 * 1024


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

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            {"free": 1, "bound": 0, "eqs": 5},
            {"free": 1, "bound": 0, "eqs": [3]},
            {"free": None, "bound": 0, "eqs": []},
            {"free": 1, "bound": 0, "eqs": [[None]]},
        ],
    )
    def test_ppval_malformed_formula_is_a_spec_error(self, capsys, tmp_path, data):
        formula = tmp_path / "phi.json"
        formula.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "ppval", "Z/4", str(formula))
        assert code == EXIT_SPEC
        assert err.startswith("error: pp formula JSON")


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "StructConst({path})"),
            ("check-paper", "--seeds", "1", "--add-struct-const-unchecked", "{path}"),
            ("ppval", "Z/4", "{path}"),
        ],
    )
    def test_a_directory_is_a_spec_error(self, capsys, tmp_path, argv):
        # Each command that reads a file names it and exits 2, as for a missing file.
        code, _, err = run_cli(capsys, *(arg.format(path=tmp_path) for arg in argv))
        assert code == EXIT_SPEC
        assert err.startswith(f"error: {tmp_path}: ")


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

    def test_injection_without_a_table_is_a_spec_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"orders": [2]}))
        code, _, err = run_cli(capsys, "check-paper", "--seeds", "1", "--add-struct-const-unchecked", str(bad))
        assert code == EXIT_SPEC
        assert err == f"error: unchecked:{bad}: missing keys ['one', 'table']\n"

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"orders": 5, "one": 0, "table": [[0]]}, "orders"),
            ({"orders": [1], "one": None, "table": [[0]]}, "one"),
            ({"orders": [1], "one": 0, "table": [[None]]}, "table"),
            ({"orders": [2], "one": 1, "table": [[0], [0, 1]]}, "table"),
            ({"orders": [2], "one": 1, "table": [[0, 0], [0, 5]]}, "table"),
            ({"orders": [2], "one": 1, "table": [[0, 0], [0, -1]]}, "table"),
        ],
    )
    def test_wrong_json_types_are_a_spec_error(self, capsys, tmp_path, data, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "check-paper", "--seeds", "1", "--add-struct-const-unchecked", str(bad))
        assert code == EXIT_SPEC
        assert err.startswith(f"error: unchecked:{bad}: '{field}' must be")
        code, _, err = run_cli(capsys, "classify", f"StructConst({bad})")
        assert code == EXIT_SPEC
        assert err.startswith(f"error: StructConst({bad}): '{field}' must be")
