"""Golden outputs: seeded reports and demo printouts are byte-for-byte stable.

Each digest is the sha256 of output captured once from a known-good
revision.  A refactor that keeps every public result unchanged keeps
every digest; a mismatch means some report or demo changed its bytes.
Never re-capture a digest to make this test pass: find what changed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from collective_schedules.cli import main
from collective_schedules.experiments import (
    run_audit_axioms,
    run_compare,
    run_lmt_eval,
    run_lrm_audit,
    run_uniqueness_audit,
)

ROOT = Path(__file__).resolve().parents[1]

PIPELINES = {
    "compare": lambda: run_compare(
        models=("u", "c"), ns=(4, 5), v=20, instances=3, seed=1, include_times=False
    ),
    "lmt-eval-uniform": lambda: run_lmt_eval(
        n=6, v=20, instances=4, seed=2, model="uniform", include_times=False
    ),
    "lmt-eval-plackett-luce": lambda: run_lmt_eval(
        n=6, v=20, instances=4, seed=2, model="plackett-luce", include_times=False
    ),
    "lrm-audit-unit": lambda: run_lrm_audit(
        instances=6, n=6, v=20, seed=3, include_times=False, reduction="unit"
    ),
    "lrm-audit-uniform": lambda: run_lrm_audit(
        instances=6, n=6, v=20, seed=3, include_times=False, reduction="uniform"
    ),
    "uniqueness-audit": lambda: run_uniqueness_audit(
        models=("u", "c"), ns=(4, 5), vs=(10, 20), instances=3, seed=4, include_times=False
    ),
    "audit-axioms": lambda: run_audit_axioms(
        models=("u", "c"), ns=(5, 6), v=20, instances=3, seed=5, cap=50, include_times=False
    ),
}

PIPELINE_DIGESTS = {
    "compare": "8a40f6158cfcfb1c2aea5440bd57a98e836efa7c086f91cb2c72e767a153d124",
    "lmt-eval-uniform": "96bfde16dd4bbcebc3f876527785275e3497eaa225fe35e61219e3fb75dafa01",
    "lmt-eval-plackett-luce": "01a8ebb93cefcf467154a9078b2def67c9aa2bda40761b7284343b6edd63560f",
    "lrm-audit-unit": "6b743022884d553098ceaae26c110eb4277ceb8c61b8c7c92ef3786f3cfdd474",
    "lrm-audit-uniform": "3994746b4d60405f8a4384a3246496c5db19d720452049ba8e3e8121a9284276",
    "uniqueness-audit": "be65fdfa532d5c7b686da6fe6fcc598a53b0f1696b09a5094ab6e1b735430c0b",
    "audit-axioms": "1c321746d269841dde1478d2e31ea12007aad72541cf254e065d9974bdaf254e",
}

# The subcommand line that asks the CLI for each PIPELINES report.
PIPELINE_ARGV = {
    "compare": ["compare", "--models", "u,c", "--tasks", "4,5", "--voters", "20",
                "--instances", "3", "--seed", "1"],
    "lmt-eval-uniform": ["lmt-eval", "--model", "uniform", "--tasks", "6", "--voters", "20",
                         "--instances", "4", "--seed", "2"],
    "lmt-eval-plackett-luce": ["lmt-eval", "--model", "plackett-luce", "--tasks", "6",
                               "--voters", "20", "--instances", "4", "--seed", "2"],
    "lrm-audit-unit": ["lrm-audit", "--instances", "6", "--tasks", "6", "--voters", "20",
                       "--seed", "3", "--reduction", "unit"],
    "lrm-audit-uniform": ["lrm-audit", "--instances", "6", "--tasks", "6", "--voters", "20",
                          "--seed", "3", "--reduction", "uniform"],
    "uniqueness-audit": ["uniqueness-audit", "--models", "u,c", "--tasks", "4,5",
                         "--voters", "10,20", "--instances", "3", "--seed", "4"],
    "audit-axioms": ["audit-axioms", "--models", "u,c", "--tasks", "5,6", "--voters", "20",
                     "--instances", "3", "--seed", "5", "--cap", "50"],
}

# Each pipeline subcommand with every flag left at its default but one instance.
DEFAULT_RUNS = {
    "compare": lambda: run_compare(instances=1, include_times=False),
    "lmt-eval": lambda: run_lmt_eval(instances=1, include_times=False),
    "lrm-audit": lambda: run_lrm_audit(instances=1, include_times=False),
    "uniqueness-audit": lambda: run_uniqueness_audit(instances=1, include_times=False),
    "audit-axioms": lambda: run_audit_axioms(instances=1, include_times=False),
}

# `--help` of each pipeline subcommand at COLUMNS=80.
HELP_DIGESTS = {
    "audit-axioms": "f65ffa0739861a031500e46962f8ecd145f489aedfc045520c971066771138c6",
    "compare": "8b20fecea3dba14e44ddb0db677d6d2d993cb35eadd03a6d9b05473d16dbbf8e",
    "lmt-eval": "d8ff6b37881027a7340802e84bed01b72b6b74ad5a86a058de7cbbeedd7de417",
    "lrm-audit": "6397a83324b81024e52c5784cc2a91b6e99d6951f35b1805cbcb95f8d2d9fb0d",
    "uniqueness-audit": "d6406f7f36d443b135b423928194a86bf7c843282e6d43b61191d6d42e1d1141",
}

DEMO_DIGESTS = {
    "axiom_gallery.py": "2498f73c587ff3f7e6b0d16bbb0d32542fc11b607ffef89e5c4dfb8992738802",
    "consensus_basics.py": "eb4be084823ef066629d3e19a8c128a978165528183c4029726edbaffb329606",
    "heuristic_quality.py": "80c150054960998f63d77ffb92f0748a9c14e217a9a801d726e7024bfdca0921",
    "rule_comparison.py": "883d118b7a1e677e0ddef3037e021e6bd2a7502ce2f78bcc7c409d43c39d40a9",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pipeline_output(name: str) -> str:
    report = PIPELINES[name]()
    return report.to_csv() + report.to_json()


def cli_output(argv, tmp_path, capsys) -> tuple[str, str]:
    """The CSV on stdout and the ``--json`` twin of one ``--no-times`` run."""
    twin = tmp_path / "report.json"
    assert main([*argv, "--no-times", "--json", str(twin)]) == 0
    return capsys.readouterr().out, twin.read_text()


def demo_output(name: str) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


@pytest.mark.parametrize("name", sorted(PIPELINE_DIGESTS))
def test_pipeline_report_bytes(name):
    assert _sha256(pipeline_output(name)) == PIPELINE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout_bytes(name):
    assert _sha256(demo_output(name)) == DEMO_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PIPELINE_ARGV))
def test_cli_report_equals_api_report(name, tmp_path, capsys):
    report = PIPELINES[name]()
    assert cli_output(PIPELINE_ARGV[name], tmp_path, capsys) == (report.to_csv(), report.to_json())


@pytest.mark.parametrize("command", sorted(DEFAULT_RUNS))
def test_cli_defaults_equal_api_defaults(command, tmp_path, capsys):
    report = DEFAULT_RUNS[command]()
    argv = [command, "--instances", "1"]
    assert cli_output(argv, tmp_path, capsys) == (report.to_csv(), report.to_json())


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_pipeline_help_bytes(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    assert _sha256(capsys.readouterr().out) == HELP_DIGESTS[command]
