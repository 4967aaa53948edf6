"""CLI output against the golden corpus, byte for byte.

Each case's exit code, stdout, stderr and written CSV must equal its record
in ``tests/data/golden/records/``.  ``tests/regen_golden.py`` rewrites the
records by hand; a change that moves one names it in CHANGES.md.
"""

import json
import shutil

import pytest

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
