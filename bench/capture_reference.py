"""Write the presets reference that the benchmark's correctness gate reads.

Run from the root of a checkout whose program is the reference::

    python3 bench/capture_reference.py

It runs every figure preset through ``mixent preset run`` and stores each
row's swept value, ``npt`` and ``trace`` in ``bench/reference/presets.json``,
with the git commit and versions it was captured from.  The file checked in
was captured at the commit named in it; capturing again on a later commit
would move the reference with the program, so do so only on purpose.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile

import run


def main() -> int:
    root = os.getcwd()
    modules = run.import_program(os.path.join(root, "src"))
    import numpy

    import workloads

    cli = modules["cli"]
    presets = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name in cli.PRESETS:
            path = os.path.join(tmp, f"{name}.csv")
            code = cli.main(["preset", "run", name, "--out", path])
            if code != 0:
                print(f"preset {name} exited {code}", file=sys.stderr)
                return 1
            presets[name] = workloads.read_csv(path)
    reference = {
        "git_commit": run.git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "columns": ["x", "npt", "trace"],
        "presets": presets,
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {sum(map(len, presets.values()))} rows to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
