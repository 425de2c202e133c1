"""Every row of ``console_checks`` passes through ``python -m verseforge.cli``.

CI runs the same rows against the installed ``verseforge`` console script.
"""

import os
import sys
from pathlib import Path

from console_checks import run

SRC = Path(__file__).parent.parent / "src"


def test_every_console_check_passes(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    assert run([sys.executable, "-m", "verseforge.cli"], tmp_path) == []
