"""Test-run hooks."""

from pathlib import Path

import proofforge


def pytest_report_header(config):
    # `pythonpath = ["src"]` in pyproject.toml comes before PYTHONPATH, so
    # name the tree whose code the run tests
    return f"proofforge imported from {Path(proofforge.__file__).resolve().parent}"
