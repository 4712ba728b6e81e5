"""Instance files and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from collective_schedules import (
    InstanceFormatError,
    PreferenceProfile,
    Schedule,
    TaskSet,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    read_instance,
    write_instance,
)
from collective_schedules import cli, errors, experiments
from collective_schedules.cli import main
from collective_schedules.gallery import three_task_example
from collective_schedules.rules import EXACT_RULES, RULE_NAMES


# Texts that make ``json.loads`` fail with something other than a decode
# error: nesting past the recursion limit, and an int past the digit limit.
DECODER_FAILURES = {
    "deep-array": "[" * 100_000 + "]" * 100_000,
    "deep-tasks": '{"tasks": ' + "[" * 100_000 + "]" * 100_000 + ', "voters": []}',
    "huge-int": '{"tasks": [{"id": "a", "length": ' + "9" * 5000 + '}], "voters": []}',
}


class TestInstanceFormat:
    def test_dict_round_trip(self, example):
        tasks, profile = example
        doc = instance_to_dict(tasks, profile)
        assert doc["tasks"][0] == {"id": "1", "length": 2}
        assert doc["voters"][0] == {"count": 2, "order": ["2", "1", "3"]}
        back_tasks, back_profile = instance_from_dict(doc)
        assert back_tasks == tasks
        assert back_profile == profile

    def test_string_round_trip(self, example):
        tasks, profile = example
        text = dumps_instance(tasks, profile)
        assert text.endswith("\n")
        back_tasks, back_profile = loads_instance(text)
        assert (back_tasks, back_profile) == (tasks, profile)

    def test_file_round_trip(self, example, tmp_path):
        tasks, profile = example
        path = tmp_path / "instance.json"
        write_instance(path, tasks, profile)
        assert read_instance(path) == (tasks, profile)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.pop("tasks"),
            lambda doc: doc.pop("voters"),
            lambda doc: doc["tasks"][0].pop("length"),
            lambda doc: doc["tasks"][0].update(length=True),
            lambda doc: doc["tasks"][0].update(length="4"),
            lambda doc: doc["voters"][0].update(count="2"),
            lambda doc: doc["voters"][0].update(order=[1, 2, 3]),
            lambda doc: doc.update(tasks=[]),
            lambda doc: doc["tasks"].__setitem__(0, [1]),  # tasks[0] must be an object
            lambda doc: doc["voters"].__setitem__(0, [1]),  # voters[0] must be an object
        ],
    )
    def test_malformed_documents_rejected(self, example, mutate):
        doc = instance_to_dict(*example)
        mutate(doc)
        with pytest.raises(InstanceFormatError):
            instance_from_dict(doc)

    def test_non_dict_document_rejected(self):
        with pytest.raises(InstanceFormatError):
            instance_from_dict([1, 2, 3])

    def test_bad_json_rejected(self):
        with pytest.raises(InstanceFormatError):
            loads_instance("{not json")

    @pytest.mark.parametrize("text", DECODER_FAILURES.values(), ids=DECODER_FAILURES.keys())
    def test_decoder_failures_are_format_errors(self, text, tmp_path):
        with pytest.raises(InstanceFormatError, match="not valid JSON"):
            loads_instance(text)
        path = tmp_path / "instance.json"
        path.write_text(text)
        with pytest.raises(InstanceFormatError, match="not valid JSON"):
            read_instance(path)

    def test_file_that_is_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "instance.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(InstanceFormatError, match="not UTF-8"):
            read_instance(path)


def _python(*args):
    """Run a fresh interpreter that imports the package from this tree's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


# The package's base error class and every subclass of it.
PACKAGE_ERRORS = [
    value for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.CollectiveSchedulesError)
]


# The keys of each rule's `solve` payload, in order, without wall_time_s;
# --all-optima appends "optima" for the exact rules.
EXACT_KEYS = ["rule", "objective", "score", "schedule", "optimum_count", "optima_complete",
              "states_explored"]
SOLVE_KEYS = {
    **{rule: EXACT_KEYS for rule in EXACT_RULES},
    "lmt": ["rule", "objective", "score", "schedule"],
    "lmt-ls": ["rule", "objective", "search_steps", "terminated_by", "score", "schedule"],
}


@pytest.fixture()
def instance_file(tmp_path):
    tasks, profile = three_task_example()
    path = tmp_path / "example.json"
    write_instance(path, tasks, profile)
    return str(path)


class TestCliGen:
    def test_writes_a_loadable_instance(self, capsys):
        assert main(["gen", "--tasks", "4", "--voters", "6", "--seed", "9"]) == 0
        tasks, profile = loads_instance(capsys.readouterr().out)
        assert tasks.n == 4
        assert profile.voter_count == 6

    def test_byte_identical_for_equal_seeds(self, capsys):
        argv = ["gen", "--model", "c", "--tasks", "5", "--voters", "8", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_negative_seed_exits_2(self, capsys):
        assert main(["gen", "--tasks", "3", "--voters", "2", "--seed", "-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "inst.json"
        assert main(["gen", "--tasks", "3", "--voters", "2", "--out", str(target)]) == 0
        tasks, _ = read_instance(target)
        assert tasks.n == 3

    def test_invalid_arguments_exit_2(self, capsys):
        assert main(["gen", "--tasks", "0", "--voters", "5"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["gen", "--tasks", "3", "--voters", "5", "--model", "mallows"]) == 2
        assert main(["gen", "--tasks", "3", "--voters", "5", "--len-min", "9", "--len-max", "2"]) == 2

    @pytest.mark.parametrize("command", [["gen"], ["compare", "--models", "u", "--instances", "1"]])
    def test_voter_count_numpy_cannot_hold_exits_2(self, command, capsys):
        # np.tile overflows on the count before it allocates anything
        assert main([*command, "--tasks", "3", "--voters", str(10**20)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [["gen"], ["compare", "--models", "u", "--instances", "1"]])
    @pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 GiB for an array"])
    def test_table_too_large_for_memory_exits_2(self, command, message, monkeypatch, capsys):
        # a count numpy can hold but memory cannot: no traceback, one error line
        def generate(spec):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate", generate)
        monkeypatch.setattr(experiments, "generate", generate)
        assert main([*command, "--tasks", "3", "--voters", "5"]) == 2
        assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"


class TestCliSolve:
    def test_exact_rule_payload(self, instance_file, capsys):
        assert main(["solve", "--rule", "sum-dev", "--input", instance_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "sum-dev"
        assert payload["objective"] == "sum-deviation"
        assert payload["score"] == 20
        assert payload["schedule"] == ["2", "1", "3"]
        assert payload["optimum_count"] == 1
        assert "optima" not in payload

    def test_all_optima(self, instance_file, capsys):
        argv = ["solve", "--rule", "pta-kemeny", "--input", instance_file, "--all-optima"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["score"] == 12
        assert payload["optima"] == [["1", "2", "3"], ["1", "3", "2"]]
        assert payload["optima_complete"] is True

    def test_evaluate_scores_a_given_order(self, instance_file, capsys):
        argv = ["solve", "--rule", "pta-kemeny", "--input", instance_file,
                "--evaluate", "2,1,3"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "rule": "pta-kemeny",
            "objective": "pta-kendall-tau",
            "schedule": ["2", "1", "3"],
            "score": 14,
        }

    def test_heuristic_rules(self, instance_file, capsys):
        assert main(["solve", "--rule", "lmt", "--input", instance_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedule"] == ["2", "1", "3"]
        assert payload["score"] == 20

        assert main(["solve", "--rule", "lmt-ls", "--input", instance_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedule"] == ["2", "1", "3"]
        assert payload["search_steps"] == 0
        assert payload["terminated_by"] == "local-optimum"

    @pytest.mark.parametrize("rule", ["lmt", "lmt-ls"])
    def test_heuristic_rules_validate_and_tabulate_once(self, rule, instance_file, compile_counts):
        assert main(["solve", "--rule", rule, "--input", instance_file]) == 0
        assert compile_counts == {"compiles": 1}

    @pytest.mark.parametrize(
        "rule,extra",
        [(rule, []) for rule in EXACT_RULES] + [(rule, ["--evaluate", "2,1,3"]) for rule in RULE_NAMES],
    )
    def test_exact_rules_and_evaluate_validate_once(self, rule, extra, instance_file, compile_counts):
        assert main(["solve", "--rule", rule, "--input", instance_file, *extra]) == 0
        assert compile_counts == {"compiles": 1}

    @pytest.mark.parametrize("extra", [[], ["--all-optima"], ["--all-optima", "--cap", "1"]])
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_payload_key_order(self, rule, extra, instance_file, capsys):
        assert main(["solve", "--rule", rule, "--input", instance_file, *extra]) == 0
        keys = [key for key in json.loads(capsys.readouterr().out) if key != "wall_time_s"]
        assert keys == SOLVE_KEYS[rule] + (["optima"] if extra and rule in EXACT_RULES else [])

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_evaluate_payload_key_order(self, rule, instance_file, capsys):
        argv = ["solve", "--rule", rule, "--input", instance_file, "--evaluate", "2,1,3"]
        assert main(argv) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["rule", "objective", "schedule", "score"]

    def test_cap_past_maxsize_exits_2_naming_it(self, instance_file, capsys):
        # it printed islice's "Stop argument for islice() must be None or an integer"
        argv = ["solve", "--rule", "sum-dev", "--input", instance_file, "--all-optima", "--cap", str(10**20)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: optimum_cap must be an integer from 1 to sys.maxsize")

    def test_size_guard_exits_3(self, instance_file, capsys):
        argv = ["solve", "--rule", "sum-dev", "--input", instance_file, "--max-tasks", "2"]
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda error: error.__name__)
    def test_every_package_error_exits_cleanly(self, error, instance_file, monkeypatch, capsys):
        def failing(path):
            raise error("boom")

        monkeypatch.setattr(cli, "read_instance", failing)
        code = main(["solve", "--rule", "sum-dev", "--input", instance_file])
        assert code == (3 if error is errors.TooManyTasksError else 2)
        assert capsys.readouterr().err == "error: boom\n"

    def test_unknown_evaluate_task_exits_2(self, instance_file, capsys):
        argv = ["solve", "--rule", "sum-dev", "--input", instance_file, "--evaluate", "9,1,2"]
        assert main(argv) == 2

    def test_missing_input_exits_2(self, capsys):
        assert main(["solve", "--rule", "sum-dev", "--input", "no-such-file.json"]) == 2

    def test_invalid_instance_exits_2(self, tmp_path, capsys):
        tasks = TaskSet.of(("a", 1), ("b", 1))
        bad = PreferenceProfile(tasks, ((Schedule.of("a", "a"), 1),))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(instance_to_dict(tasks, bad)))
        assert main(["solve", "--rule", "sum-dev", "--input", str(path)]) == 2
        assert "invalid instance" in capsys.readouterr().err

    @pytest.mark.parametrize("text", DECODER_FAILURES.values(), ids=DECODER_FAILURES.keys())
    def test_decoder_failures_exit_2_without_traceback(self, text, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(text)
        run = _python("-m", "collective_schedules.cli", "solve", "--rule", "sum-dev", "--input", str(path))
        assert run.returncode == 2
        assert "error: not valid JSON" in run.stderr
        assert "Traceback" not in run.stderr

    def test_file_that_is_not_utf8_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "instance.json"
        path.write_bytes(b"\xff\xfe{")
        run = _python("-m", "collective_schedules.cli", "solve", "--rule", "sum-dev", "--input", str(path))
        assert run.returncode == 2
        assert "error: not UTF-8" in run.stderr
        assert "Traceback" not in run.stderr

    def test_solve_never_loads_numpy(self, instance_file):
        # numpy is most of the package's import time, and no rule needs it;
        # nor does any rule run the pipelines or the audits
        script = f"""
import sys
import collective_schedules
loaded = [name for name in sys.modules if name.startswith("collective_schedules.")]
assert not loaded, "loaded by the package import: " + ", ".join(loaded)
from collective_schedules.cli import main
from collective_schedules.rules import RULE_NAMES
assert "numpy" not in sys.modules, "loaded by import"
for rule in RULE_NAMES:
    assert main(["solve", "--rule", rule, "--input", {instance_file!r}, "--all-optima"]) == 0
    for module in ("numpy", "collective_schedules.experiments", "collective_schedules.axioms"):
        assert module not in sys.modules, module + " loaded by " + rule
"""
        run = _python("-c", script)
        assert run.returncode == 0, run.stderr

    def test_out_flag_writes_report(self, instance_file, tmp_path):
        target = tmp_path / "report.json"
        argv = ["solve", "--rule", "sum-tard", "--input", instance_file, "--out", str(target)]
        assert main(argv) == 0
        payload = json.loads(target.read_text())
        assert payload["score"] == 11
        assert payload["schedule"] == ["1", "2", "3"]


def _csv_rows(text):
    header, *lines = text.strip().splitlines()
    assert header == "model,n,v,rule,metric,mean_ratio,violation_rate,unique_fraction,mean_time"
    return [line.split(",") for line in lines]


class TestCliExperiments:
    def test_compare_diagonal_and_determinism(self, capsys):
        argv = [
            "compare", "--models", "u", "--tasks", "4", "--voters", "6",
            "--instances", "2", "--no-times",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        rows = _csv_rows(first)
        assert len(rows) == 9
        objective_of = {"sum-dev": "sum-deviation", "sum-tard": "sum-tardiness",
                        "pta-kemeny": "pta-kendall-tau"}
        for model, n, v, rule, metric, mean_ratio, _, _, mean_time in rows:
            assert (model, n, v) == ("uniform", "4", "6")
            assert float(mean_ratio) >= 1.0
            assert mean_time == ""
            if objective_of[rule] == metric:
                assert float(mean_ratio) == 1.0
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_compare_json_twin(self, capsys, tmp_path):
        twin = tmp_path / "report.json"
        argv = [
            "compare", "--models", "u", "--tasks", "4", "--voters", "5",
            "--instances", "2", "--no-times", "--json", str(twin),
        ]
        assert main(argv) == 0
        csv_rows = _csv_rows(capsys.readouterr().out)
        doc = json.loads(twin.read_text())
        assert doc["command"] == "compare"
        assert doc["params"]["instances"] == 2
        assert len(doc["rows"]) == len(csv_rows) == 9
        assert len(doc["instances"]) == 2
        for row, cells in zip(doc["rows"], csv_rows):
            assert row["rule"] == cells[3]
            assert f"{row['mean_ratio']:.6f}" == cells[5]

    def test_lmt_eval_rows(self, capsys):
        argv = [
            "lmt-eval", "--tasks", "6", "--voters", "9",
            "--instances", "3", "--no-times",
        ]
        assert main(argv) == 0
        rows = _csv_rows(capsys.readouterr().out)
        by_rule = {cells[3]: cells for cells in rows}
        assert set(by_rule) == {"lmt", "lmt-ls", "sum-dev"}
        assert float(by_rule["sum-dev"][5]) == 1.0
        assert float(by_rule["lmt-ls"][5]) <= float(by_rule["lmt"][5])

    def test_lrm_audit_rows(self, capsys):
        argv = [
            "lrm-audit", "--instances", "4", "--tasks", "5", "--voters", "9",
            "--no-times",
        ]
        assert main(argv) == 0
        rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 9  # three rules for each of two models plus totals
        for cells in rows:
            assert cells[4] == "length-reduction-monotonicity"
            assert 0.0 <= float(cells[6]) <= 1.0
        assert {cells[0] for cells in rows} == {"uniform", "plackett-luce", "all"}

    def test_lrm_audit_uniform_reduction_flag(self, capsys):
        argv = [
            "lrm-audit", "--instances", "2", "--tasks", "4", "--voters", "5",
            "--reduction", "uniform", "--no-times", "--json", "/dev/null",
        ]
        assert main(argv) == 0
        assert _csv_rows(capsys.readouterr().out)

    def test_uniqueness_audit_rows(self, capsys):
        argv = [
            "uniqueness-audit", "--models", "u", "--tasks", "4", "--voters", "7",
            "--instances", "3", "--no-times",
        ]
        assert main(argv) == 0
        rows = _csv_rows(capsys.readouterr().out)
        assert len(rows) == 3
        for cells in rows:
            assert cells[4] == "uniqueness"
            assert 0.0 <= float(cells[7]) <= 1.0

    def test_audit_axioms_rows(self, capsys):
        argv = [
            "audit-axioms", "--models", "u", "--tasks", "4", "--voters", "9",
            "--instances", "3", "--no-times",
        ]
        assert main(argv) == 0
        rows = _csv_rows(capsys.readouterr().out)
        metrics = {cells[4] for cells in rows}
        assert metrics == {"pta-condorcet", "unanimity", "pta-condorcet-all-optima"}
        all_optima = [c for c in rows if c[4] == "pta-condorcet-all-optima"]
        assert all_optima[0][6] in ("", "0.000000")

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_audit_axioms_cap_below_one_exits_2(self, cap, capsys):
        argv = ["audit-axioms", "--tasks", "6", "--models", "u", "--instances", "1", "--no-times"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--cap", cap]) == 2
        assert "cap" in capsys.readouterr().err

    def test_bad_experiment_arguments_exit_2(self, capsys):
        assert main(["compare", "--models", " , ", "--tasks", "4"]) == 2
        assert main(["compare", "--tasks", "4,x"]) == 2
        assert "expected comma-separated integers, got '4,x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["compare", "lmt-eval", "lrm-audit", "uniqueness-audit", "audit-axioms"]
    )
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_instance_count_below_one_exits_2(self, command, count, capsys):
        assert main([command, "--instances", count]) == 2
        assert "instances" in capsys.readouterr().err
