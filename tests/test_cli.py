import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from renyivar.cli import MAX_HILL_STEPS, MAX_N_MAX, MAX_TRIALS, main

DATA = Path(__file__).parent / "data"


def run_cli(*argv: str) -> tuple[int, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode(), err.getvalue()


GOLDEN_CASES = [
    (("div", "div_basic.json"), "div_basic.golden.json"),
    (("div", "div_basic.json", "--csv"), "div_basic.golden.csv"),
    (("div", "div_inf.json"), "div_inf.golden.json"),
    (("growth", "growth_cycle.json"), "growth_cycle.golden.json"),
    (("solve", "solve_iid.json"), "solve_iid.golden.json"),
    (("solve", "solve_markov_acd.json"), "solve_markov_acd.golden.json"),
]


class TestGoldenCertificates:
    @pytest.mark.parametrize("argv, golden", GOLDEN_CASES, ids=[g for _, g in GOLDEN_CASES])
    def test_byte_identical(self, argv, golden):
        cmd, infile, *flags = argv
        code, out, err = run_cli(cmd, str(DATA / infile), *flags)
        assert code == 0 and err == ""
        assert out == (DATA / golden).read_bytes()

    def test_repeated_runs_identical(self):
        a = run_cli("div", str(DATA / "div_basic.json"))
        b = run_cli("div", str(DATA / "div_basic.json"))
        assert a == b

    def test_certificates_are_valid_json(self):
        for argv, golden in GOLDEN_CASES:
            if golden.endswith(".csv"):
                continue
            parsed = json.loads((DATA / golden).read_bytes())
            assert parsed["version"] == "0.1.0"
            assert len(parsed["input_sha256"]) == 64
            assert parsed["pass"] is True

    def test_infinite_values_encoded_as_strings(self):
        parsed = json.loads((DATA / "div_inf.golden.json").read_bytes())
        assert parsed["results"]["renyi_divergence"] == "inf"
        assert parsed["results"]["abs_cont"] is False

    def test_csv_flattens_nested_keys(self):
        text = (DATA / "div_basic.golden.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "command,div"
        assert any(line.startswith("results.renyi_divergence,") for line in lines)


class TestNonGoldenCommands:
    def test_certify_passes(self):
        code, out, err = run_cli("certify", str(DATA / "certify_iid.json"))
        assert code == 0 and err == ""
        parsed = json.loads(out)
        assert parsed["pass"] is True and parsed["results"]["slack"] >= 0.0

    def test_rate_oracle_passes(self):
        code, out, _ = run_cli("oracle", str(DATA / "oracle_rate.json"))
        assert code == 0
        parsed = json.loads(out)
        assert parsed["results"]["renyi_rate_final_gap"] <= 1e-6

    def test_search_oracle_deterministic_given_seed(self):
        a = run_cli("oracle", str(DATA / "oracle_search.json"), "--seed", "5")
        b = run_cli("oracle", str(DATA / "oracle_search.json"), "--seed", "5")
        assert a == b and a[0] == 0

    def test_search_oracle_seed_echoed(self):
        code, out, _ = run_cli("oracle", str(DATA / "oracle_search.json"), "--seed", "9")
        assert code == 0
        assert json.loads(out)["results"]["seed"] == 9


class TestExitCodes:
    def test_exit_one_on_failed_certification(self):
        code, out, err = run_cli("solve", str(DATA / "solve_iid.json"), "--tol", "1e-30")
        assert code == 1 and err == ""
        parsed = json.loads(out)
        assert parsed["pass"] is False
        assert parsed["results"]["residual"] > 1e-30

    def test_exit_two_missing_file(self):
        code, out, err = run_cli("div", str(DATA / "no_such_file.json"))
        assert code == 2 and out == b""
        assert err.startswith("error:")

    def test_exit_two_malformed_json_reports_position(self):
        code, out, err = run_cli("div", str(DATA / "malformed.json"))
        assert code == 2 and out == b""
        assert "line" in err and "column" in err

    def test_exit_two_unknown_kind(self):
        code, _, err = run_cli("div", str(DATA / "bad_kind.json"))
        assert code == 2 and "unknown kind" in err

    def test_exit_two_kind_command_mismatch(self):
        code, _, err = run_cli("rate", str(DATA / "div_basic.json"))
        assert code == 2 and "does not accept kind" in err

    def test_exit_two_alpha_on_boundary(self):
        code, _, err = run_cli("div", str(DATA / "alpha_one.json"))
        assert code == 2 and err.startswith("error:")

    def test_exit_two_dimension_mismatch(self):
        code, _, err = run_cli("div", str(DATA / "dim_mismatch.json"))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "command, text",
        [
            ("div", '{"kind": "iid_divergence", "alpha": 2, "nu": ["x", 1], "theta": [0.5, 0.5]}'),
            ("rate", '{"kind": "markov_rate", "alpha": 2, "nu": [[0.5, 0.5], [0.5]], "theta": [[1]]}'),
            ("div", '{"kind": "iid_divergence", "alpha": 2, "nu": {"a": 1}, "theta": [0.5, 0.5]}'),
            ("div", '{"kind": ["a"], "alpha": 2}'),
            ("div", '{"kind": "iid_divergence", "alpha": 1' + "0" * 400 + ', "nu": [1], "theta": [1]}'),
            ("div", '{"kind": "iid_divergence", "alpha": 2, "nu": [1' + "0" * 400 + '], "theta": [1]}'),
            ("div", '{"kind": "iid_divergence", "alpha": ' + "1" * 5000 + "}"),
            ("div", '{"kind": "iid_divergence", "nu": ' + "[" * 100000 + "]" * 100000 + "}"),
            ("div", '{"kind": "iid_divergence", "alpha": 2, "nu": ["0.5", "0.5"], "theta": [" 0.25 ", 0.75]}'),
            ("div", '{"kind": "iid_divergence", "alpha": 2, "nu": [true, false], "theta": [0.5, 0.5]}'),
            ("rate", '{"kind": "markov_rate", "alpha": 2, "nu": [[0.5, 0], [0, "0.5"]], "theta": [[1]]}'),
        ],
        ids=[
            "non_numeric_entry",
            "ragged_rows",
            "object_as_vector",
            "non_string_kind",
            "alpha_beyond_float",
            "entry_beyond_float",
            "integer_too_long",
            "nesting_too_deep",
            "string_entries",
            "boolean_entries",
            "string_matrix_entry",
        ],
    )
    def test_exit_two_on_unparseable_values(self, tmp_path, command, text):
        problem = tmp_path / "problem.json"
        problem.write_text(text)
        code, out, err = run_cli(command, str(problem))
        assert code == 2 and out == b""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "command, fixture, option, value",
        [
            ("growth", "growth_cycle.json", "n_max", MAX_N_MAX + 1),
            ("oracle", "oracle_rate.json", "n_max", MAX_N_MAX + 1),
            ("oracle", "oracle_search.json", "trials", MAX_TRIALS + 1),
            ("oracle", "oracle_search.json", "hill_steps", MAX_HILL_STEPS + 1),
            ("oracle", "oracle_search.json", "hill_steps", -1),
        ],
    )
    def test_exit_two_on_option_out_of_range(self, tmp_path, command, fixture, option, value):
        problem = json.loads((DATA / fixture).read_text())
        problem["options"][option] = value
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out, err = run_cli(command, str(path))
        assert code == 2 and out == b""
        assert err.startswith(f"error: option '{option}'")

    def test_unknown_command_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate", str(DATA / "div_basic.json"))
        assert exc.value.code == 2
