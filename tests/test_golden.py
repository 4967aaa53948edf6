"""CLI output against the golden corpus, byte for byte.

Each case's exit code, stdout, stderr and written CSV must equal its record
in ``tests/data/golden/records/``.  ``tests/regen_golden.py`` rewrites the
records by hand; a change that moves one names it in CHANGES.md.
"""

import json
import shutil

import pytest

import regen_golden
from regen_golden import CASES, INPUTS, RECORDS, run_case


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden") / "inputs"
    shutil.copytree(INPUTS, work)
    return work


def test_every_record_has_a_case():
    assert sorted(path.stem for path in RECORDS.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_record(workdir, name):
    expected = json.loads((RECORDS / f"{name}.json").read_text())
    assert run_case(CASES[name], workdir) == expected


@pytest.fixture
def writes(monkeypatch):
    """Calls of the regen script's ``write_inputs``, replaced by a no-op,
    and ``write_records``, replaced by one that raises."""
    calls = []

    def refuse():
        calls.append("write_records")
        raise RuntimeError("write_records called")

    monkeypatch.setattr(regen_golden, "write_inputs", lambda: calls.append("write_inputs"))
    monkeypatch.setattr(regen_golden, "write_records", refuse)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["--dif"],
        ["--inputs", "--diff"],
        ["--diff", "--inputs"],
        ["--inputs", "extra"],
        ["--check-script"],
        ["--check-script", "no_such_case"],
        ["check_tight_wide"],
    ],
)
def test_regen_refuses_other_arguments(writes, capsys, argv):
    assert regen_golden.main(argv) == 2
    assert writes == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: regen_golden.py [--inputs | --diff | --check-script")


@pytest.mark.parametrize(
    "argv, expected", [([], ["write_records"]), (["--inputs"], ["write_inputs", "write_records"])]
)
def test_regen_rewrites_on_no_arguments_or_inputs(writes, argv, expected):
    with pytest.raises(RuntimeError):
        regen_golden.main(argv)
    assert writes == expected
