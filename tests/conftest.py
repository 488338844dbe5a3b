"""Let subprocesses that tests start import the package from ``src``.

``pythonpath`` in pyproject.toml covers the test process only; the CLI
tests also run ``python -m rieszlogic.cli`` in a child process.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
