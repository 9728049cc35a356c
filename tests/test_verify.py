"""The self-verification suite passes at its fixed tolerances."""

from anomix import verify


def test_run_all_passes():
    report = verify.run_all()
    assert report.ok, report.render()
