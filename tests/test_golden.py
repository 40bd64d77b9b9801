"""Every shipped config through every command that succeeds reproduces its
golden report in ``tests/golden/`` (see ``tests/golden/reports.py``)."""

import pytest

from golden.reports import RUNS, load_golden, mismatches, run_report


@pytest.mark.parametrize("name", list(RUNS))
def test_report_matches_golden(name):
    assert mismatches(load_golden(name), run_report(name)) == []
