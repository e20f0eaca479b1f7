import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, and a slow example is
# not a failure: the suite's verdict must not depend on the host's load.
settings.register_profile("cylattice", derandomize=True, deadline=None)
settings.load_profile("cylattice")


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    """Run each test from its own directory, so relative outputs stay out of the checkout."""
    monkeypatch.chdir(tmp_path)
