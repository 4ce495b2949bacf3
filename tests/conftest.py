"""Session-wide fixtures shared across test modules."""

from pathlib import Path

import pytest

from repro.staticcheck import check_tree

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def repo_tree_check():
    """One full-registry staticcheck of ``src/repro``, shared by every
    test that asserts on the real tree."""
    return check_tree(REPO_ROOT / "src" / "repro")
