import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(params=["free-fermion", "blocked"])
def quench_path(request, monkeypatch):
    """The path a chain quench takes in ``run_quench``: as it comes, or with
    the free-fermion path declined, so that the blocked path runs."""
    if request.param == "blocked":
        import shieldlab.dynamics as dynamics
        monkeypatch.setattr(dynamics, "_quench_values", lambda *args: None)
    return request.param
