"""Make the package under ``src`` importable in the subprocesses tests start.

``pythonpath = ["src"]`` in pyproject.toml covers the pytest process
itself; ``python -m qcrb.cli`` children read ``PYTHONPATH`` instead.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
