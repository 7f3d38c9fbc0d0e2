"""Import every ``repro`` module on its own, in a fresh module table.

A module that imports only after some other module has run hides an
import-order dependency that the test suite, which imports in one order,
never sees.  For each module under ``src/repro`` this clears every
``repro`` entry from ``sys.modules``, imports the module alone, and at the
end names the modules that failed (exit status 1)::

    PYTHONPATH=src python -m tests._imports      # or: make imports

Each import runs the package root, which imports about 55 modules, so the
loop takes about half a minute and stays out of tier-1.
"""

from __future__ import annotations

import importlib
import sys
import traceback

from tests.test_import_graph import ROOT, module_names


def main() -> int:
    names = sorted(module_names())
    failed = []
    for name in names:
        for loaded in [m for m in sys.modules
                       if m == ROOT or m.startswith(ROOT + ".")]:
            del sys.modules[loaded]
        try:
            importlib.import_module(name)
        except Exception:
            failed.append(name)
            print(f"{name}:\n{traceback.format_exc()}")
    print(f"{len(names) - len(failed)} of {len(names)} modules import alone")
    if failed:
        print("failed: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
