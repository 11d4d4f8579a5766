import os
import subprocess
import sys
from pathlib import Path

import pytest

# make the sibling oracles module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def fresh_python():
    """``python *args`` in a fresh interpreter that imports the package the tests
    import, installed or from src/; returns the CompletedProcess, text captured."""
    import bcfeedback

    src = str(Path(bcfeedback.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})

    return run
