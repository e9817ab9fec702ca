"""Certificates pinned byte for byte against committed golden files.

The files hold certificate_to_json(run_pipeline(p), include_timings=False)
for the default options; any change to the arithmetic that alters a
certificate shows here.  The p = 31 run is shared with the acceptance
suite through the timed_cert31 fixture, so it runs once.
"""

from pathlib import Path

import pytest

from sbcert import certificate_to_json, run_pipeline

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("p", [7, 13])
def test_certificate_matches_golden(p):
    expected = (GOLDEN / f"cert_p{p}.json").read_text()
    assert certificate_to_json(run_pipeline(p), include_timings=False) + "\n" == expected


def test_certificate_p31_matches_golden(timed_cert31):
    expected = (GOLDEN / "cert_p31.json").read_text()
    assert certificate_to_json(timed_cert31[0], include_timings=False) + "\n" == expected
