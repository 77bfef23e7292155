"""The CI gate `.github/scripts/tier1_failures.py`, fed junit reports in the shape pytest writes."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "tier1_failures.py"
_spec = importlib.util.spec_from_file_location("tier1_failures", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

BY_DESIGN = ("test_criterion_03_case1_stated_eigenvalues", "test_criterion_08_signed_lift_stated_spectrum")


def _case(name, outcome="passed", classname="tests.test_acceptance"):
    body = {"passed": "", "failure": '<failure message="assert False">trace</failure>',
            "error": '<error message="fixture failed">trace</error>'}[outcome]
    return f'<testcase classname="{classname}" name="{name}" time="0.001">{body}</testcase>'


def _report(tmp_path, cases):
    path = tmp_path / "tier1.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest" errors="0" failures="0"'
        f' skipped="0" tests="{len(cases)}" time="0.1">{"".join(cases)}</testsuite></testsuites>'
    )
    return str(path)


@pytest.mark.parametrize(
    "cases, code",
    [
        ([_case(BY_DESIGN[0], "failure"), _case(BY_DESIGN[1], "failure"), _case("test_other")], 0),
        ([_case(BY_DESIGN[0], "failure"), _case(BY_DESIGN[1], "failure"),
          _case("test_other", "failure", "tests.test_graphs")], 1),
        ([_case(BY_DESIGN[0], "failure"), _case(BY_DESIGN[1], "failure"),
          _case("test_other", "error", "tests.test_graphs")], 1),
        ([_case(BY_DESIGN[0], "failure"), _case(BY_DESIGN[1])], 1),
        ([], 1),
    ],
    ids=["the-two-by-design", "plus-another-failure", "plus-an-error", "one-by-design-passes", "no-test-cases"],
)
def test_the_gate_passes_only_the_two_by_design_failures(tmp_path, cases, code):
    assert gate.main([_report(tmp_path, cases)]) == code


@pytest.mark.parametrize("argv", [[], ["a.xml", "b.xml"]])
def test_the_gate_wants_one_report(argv, capsys):
    assert gate.main(argv) == 2
    assert "tier1_failures.py tier1.xml" in capsys.readouterr().err
