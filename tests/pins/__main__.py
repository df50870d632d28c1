"""``python -m tests.pins --update`` re-records the round and serving pins
(run it from the repository root; see the package docstring for when that is
legitimate)."""

import sys

from . import FAMILIES, paths, update

if sys.argv[1:] != ["--update"]:
    sys.exit("usage: python -m tests.pins --update")
update()
for family, (worlds, _) in FAMILIES.items():
    print(f"recorded {len(worlds)} worlds in {paths(family)[0]}")
print("recorded the durable op schedule in tests/pins/state/crash_schedule.json")
