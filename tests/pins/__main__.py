"""``python -m tests.pins --update`` re-records the round pins (run it from
the repository root; see the package docstring for when that is legitimate)."""

import sys

from . import JSON_PATH, WORLDS, update

if sys.argv[1:] != ["--update"]:
    sys.exit("usage: python -m tests.pins --update")
update()
print(f"recorded {len(WORLDS)} worlds in {JSON_PATH}")
