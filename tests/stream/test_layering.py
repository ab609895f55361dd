"""Import layering: the stream engine stands below the figure drivers."""

import os
import subprocess
import sys

SRC = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def test_importing_repro_stream_loads_no_analysis_module():
    # A fresh interpreter: this test process has long imported everything.
    probe = (
        "import sys, repro.stream; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "[]"
