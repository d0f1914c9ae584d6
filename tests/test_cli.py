import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
            ("div", '{"kind": "iid_divergence", "alpha": 2, "nu": [1e308, 1e308], "theta": [0.25, 0.75]}'),
            ("oracle", '{"kind": "oracle", "problem": "iid_variational", "alpha": 0.5, "nu": [0.5, 0.5], '
                       '"theta": [0.2, 0.3, 0.5], "options": {"trials": 5, "hill_steps": 1}}'),
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
            "total_overflows",
            "search_dimension_mismatch",
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

    @pytest.mark.parametrize(
        "command, fixture, flag",
        [
            ("certify", "certify_iid.json", "--tol=nan"),
            ("solve", "solve_iid.json", "--tol=nan"),
            ("certify", "certify_iid.json", "--tol=-1"),
            ("solve", "solve_iid.json", "--tol=inf"),
            ("div", "div_basic.json", "--tol=-1e-300"),
            ("oracle", "oracle_search.json", "--seed=-1"),
        ],
    )
    def test_exit_two_on_flag_out_of_domain(self, command, fixture, flag):
        code, out, err = run_cli(command, str(DATA / fixture), flag)
        assert code == 2 and out == b""
        assert err.startswith(f"error: {flag.split('=')[0]} must be")

    @pytest.mark.parametrize("command", ["solve", "certify"])
    @pytest.mark.parametrize("alpha, g", [(2.0, [[-1e308] * 2] * 2), (5.0, [[1e308, 0.0], [0.0, 0.0]])])
    def test_exit_two_when_the_tilt_overflows(self, tmp_path, command, alpha, g):
        # alpha * g leaves the float range for finite g; it used to delete edges silently
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"kind": "markov_acd", "alpha": alpha, "g": g, **OVERFLOW_PAIR}))
        code, out, err = run_contained([command, str(problem)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "leaves the float range" in err

    def test_no_warnings_on_stderr_when_certified(self, tmp_path):
        # exp(a g) overflows and log(0) occurs on the way; the certificate still holds
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"kind": "iid_acd", "alpha": 0.9, "direction": "sup",
                                       "g": [1e300, 1.0], "theta": [0.5, 0.5]}))
        code, out, err = run_contained(["solve", str(problem)])
        assert code == 0 and err == ""
        assert json.loads(out)["results"]["value"] == 1e300

    def test_unknown_command_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate", str(DATA / "div_basic.json"))
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# The exit-code contract over arbitrary JSON
# ---------------------------------------------------------------------------

IID = {"alpha": 2.0, "nu": [0.5, 0.5], "theta": [0.25, 0.75]}
OVERFLOW_PAIR = {"nu": [[0.25, 0.25], [0.25, 0.25]], "theta": [[0.25, 0.25], [0.25, 0.25]]}
PAIR = {"alpha": 2.0, "nu": [[0.25, 0.25], [0.25, 0.25]], "theta": [[0.09, 0.21], [0.21, 0.49]]}

# One valid problem per (command, kind) pair, plus the fixture files.
BASE_PROBLEMS = [
    ("div", {"kind": "iid_divergence", **IID}),
    ("rate", {"kind": "markov_rate", **PAIR}),
    ("growth", {"kind": "growth", "m": [[0.0, 2.0], [2.0, 0.5]], "options": {"n_max": 8}}),
    ("solve", {"kind": "iid_variational", **IID}),
    ("solve", {"kind": "markov_variational", **PAIR}),
    ("solve", {"kind": "iid_acd", "direction": "inf", "g": [0.5, -1.0], **IID}),
    ("solve", {"kind": "markov_acd", "direction": "sup", "g": [[0.5, -1.0], [1.0, 0.0]], **PAIR}),
    ("certify", {"kind": "iid_variational", "mu": [0.3, 0.7], **IID}),
    ("certify", {"kind": "markov_variational", "mu": [[0.4, 0.1], [0.1, 0.4]], **PAIR}),
    ("certify", {"kind": "iid_acd", "g": [0.5, -1.0], **IID}),
    ("certify", {"kind": "markov_acd", "g": [[0.5, -1.0], [1.0, 0.0]], **PAIR}),
    ("oracle", {"kind": "markov_rate", **PAIR}),
    ("oracle", {"kind": "oracle", "problem": "iid_variational", **IID}),
    ("oracle", {"kind": "oracle", "problem": "markov_variational", **PAIR}),
] + [
    (command, json.loads((DATA / fixture).read_text()))
    for command, fixture in [
        ("div", "div_basic.json"),
        ("div", "div_inf.json"),
        ("div", "dim_mismatch.json"),
        ("growth", "growth_cycle.json"),
        ("solve", "solve_iid.json"),
        ("solve", "solve_markov_acd.json"),
        ("certify", "certify_iid.json"),
        ("oracle", "oracle_rate.json"),
        ("oracle", "oracle_search.json"),
    ]
]

# Integer options are capped (and absent ones set) to these, so oracle runs take milliseconds.
OPTION_CAPS = {"n_max": 12, "trials": 12, "hill_steps": 4}

COMMANDS = ["div", "rate", "growth", "solve", "certify", "oracle"]
KINDS = ["iid_divergence", "iid_variational", "iid_acd", "markov_rate",
         "markov_variational", "markov_acd", "growth", "oracle"]

json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
numbers = st.floats() | st.integers(min_value=-(10**20), max_value=10**20)
arrays = st.lists(numbers, min_size=1, max_size=3) | st.lists(
    st.lists(numbers, min_size=1, max_size=3), min_size=1, max_size=3
)


@st.composite
def mutated_problems(draw):
    command, problem = draw(st.sampled_from(BASE_PROBLEMS))
    problem = dict(problem)
    fields = sorted(problem) + ["kind", "options", "direction", "problem", "extra"]
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(fields))
        action = draw(st.sampled_from(["delete", "replace", "kind", "entry"]))
        if action == "delete":
            problem.pop(field, None)
        elif action == "replace":
            problem[field] = draw(json_values | arrays)
        elif action == "kind":
            problem["kind"] = draw(st.sampled_from(KINDS))
        elif isinstance(problem.get(field), list) and problem[field]:
            rows = [list(row) if isinstance(row, list) else row for row in problem[field]]
            i = draw(st.integers(0, len(rows) - 1))
            if isinstance(rows[i], list) and rows[i]:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(numbers | json_scalars)
            else:
                rows[i] = draw(numbers | json_scalars)
            problem[field] = rows
    options = problem.get("options", {})
    if isinstance(options, dict):
        problem["options"] = dict(options)
        for name, cap in OPTION_CAPS.items():
            value = options.get(name, cap)
            if type(value) is int:  # not a bool: those must stay to be rejected
                problem["options"][name] = min(value, cap)
    if draw(st.booleans()):
        command = draw(st.sampled_from(COMMANDS))
    flags = []
    if draw(st.booleans()):
        flags.append("--csv")
    if draw(st.booleans()):
        flags.append(f"--tol={draw(st.floats() | st.sampled_from([0.0, 1e-30, 1e-3]))!r}")
    if draw(st.booleans()):
        flags.append(f"--seed={draw(st.integers(min_value=-5, max_value=2**40))}")
    return command, json.dumps(problem), flags


def run_contained(argv: list[str]) -> tuple[int, str, str]:
    """Run main as a process would: argparse exits count as exit codes, warnings go to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), shown + err.getvalue()


class TestExitCodeContract:
    @settings(max_examples=800, deadline=None)
    @given(case=mutated_problems())
    @example(case=("certify", (DATA / "certify_iid.json").read_text(), ["--tol=nan"]))
    @example(case=("oracle", (DATA / "oracle_search.json").read_text(), ["--seed=-1"]))
    @example(case=("div", json.dumps({"kind": "iid_divergence", **IID, "nu": [1e308, 1e308]}), []))
    @example(case=("solve", json.dumps({"kind": "markov_acd", "alpha": 2.0, "g": [[-1e308] * 2] * 2,
                                        **OVERFLOW_PAIR}), []))
    def test_exit_codes_hold_for_any_json(self, tmp_path_factory, case):
        command, text, flags = case
        path = tmp_path_factory.getbasetemp() / "contract_problem.json"
        path.write_text(text)
        code, out, err = run_contained([command, str(path), *flags])
        assert code in (0, 1, 2)
        if code == 2:  # argparse rejections print their usage first
            assert out == "" and err.startswith(("error:", "usage:")), err
            return
        assert err == ""
        if "--csv" in flags:
            verdict = dict(line.split(",", 1) for line in out.splitlines())["pass"]
        else:
            verdict = json.dumps(json.loads(out)["pass"])
        assert verdict == ("true" if code == 0 else "false")
