"""Session-wide fixtures shared across test modules."""

from pathlib import Path

import pytest

from repro.staticcheck import check_tree, load_baseline

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def repo_tree_check():
    """One full-registry staticcheck of ``src/repro`` with the repo
    baseline, shared by every test that asserts on the real tree."""
    baseline = load_baseline(REPO_ROOT / "staticcheck_baseline.json")
    return check_tree(REPO_ROOT / "src" / "repro", baseline=baseline)
