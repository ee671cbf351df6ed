"""Test-run hooks, and the one deterministic suite run the tests share."""

from pathlib import Path

import pytest

import proofforge
from proofforge import cli


def pytest_report_header(config):
    # `pythonpath = ["src"]` in pyproject.toml comes before PYTHONPATH, so
    # name the tree whose code the run tests
    return f"proofforge imported from {Path(proofforge.__file__).resolve().parent}"


@pytest.fixture(scope="session")
def suite_run(tmp_path_factory):
    """(exit code, report bytes) of `forge --deterministic suite --report`,
    run once per session: the pinned digest and each criterion's test read
    the same report."""
    out = tmp_path_factory.mktemp("suite") / "report.json"
    code = cli.main(["--deterministic", "suite", "--report", str(out)])
    return code, out.read_bytes()
