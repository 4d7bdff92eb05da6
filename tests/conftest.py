"""Pytest's ``pythonpath`` setting puts this checkout's ``src`` on the
tests' sys.path; exporting it in PYTHONPATH too lets the subprocesses
that some tests start (``python -m loctime``, ``python -c``) import the
same loctime from an uninstalled checkout."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
