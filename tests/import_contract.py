"""What every `licflow` run imports before it reads a workflow.

Importing `licflow.cli` and loading the bundled knowledge base must not
import `dataclasses` or `inspect`: their import and any class built
through them are paid by every one-shot run. Run it in a fresh
interpreter, with the package to check importable:

    PYTHONPATH=src python tests/import_contract.py

It prints the module it checked and exits 1 naming each forbidden module
that was imported.
"""

import sys

import licflow.cli as cli

FORBIDDEN = ("dataclasses", "inspect")

cli.load_kb([cli.bundled_rules_dir()])
imported = [name for name in FORBIDDEN if name in sys.modules]
print(f"checked {cli.__file__}")
if imported:
    raise SystemExit(f"licflow.cli and the bundled KB imported: {', '.join(imported)}")
