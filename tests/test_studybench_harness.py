"""The study benchmark's harness still resolves every layer it wraps.

``studybench/layers.py`` names ``repro`` functions, classes and methods by
string (``FUNCTION_LAYERS``, ``METHOD_LAYERS``, ``COUNTED_METHODS``) and
wraps them in its warm-up, before any timed run.  A rename or deletion in
``src/`` that leaves one of those names dangling fails that warm-up, so the
benchmark cannot run at all; this test runs the warm-up as the harness
does, in a fresh interpreter from the repository root.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WARM_UP = (
    "import sys; sys.path[:0] = ['src', 'studybench']; "
    "import layers; layers.install()"
)


def test_studybench_warm_up_resolves_every_layer():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", WARM_UP],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
