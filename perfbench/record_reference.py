"""Record the reference c_h of every model the benchmark can generate.

Every (kind, pool instance) of ``inputs`` and every row of the fixed
sweeps is run once through ``qcrb.cli.main`` and its printed c_h is stored
in ``reference.json``, which the output checks compare against.  Run from
the repository root:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
from qcrb import cli  # noqa: E402


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return out.getvalue()


def main() -> int:
    slots = {f"{k.name}/{i}": (k, i) for k in inputs.small_kinds() for i in range(inputs.POOL)}
    slots.update((f"{k.name}/{i}", (k, i)) for k, i in inputs.LARGE_SLOTS)
    table = {}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        path = os.path.join(workdir, "model.json")
        for label, (kind, instance) in slots.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inputs.model_dict(kind.arrays(instance), label), fh)
            table[label] = json.loads(_run(["bounds", path, "--format", "json"]))["c_h"]
    for name, argv in inputs.SWEEPS.items():
        rows = _run(list(argv)).strip().splitlines()[1:]
        for i, row in enumerate(rows):
            table[f"sweep/{name}/{i}"] = float(row.split(",")[2])
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} reference values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
