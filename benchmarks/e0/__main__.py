"""``python -m benchmarks.e0 ...`` from the repository root (needs ``PYTHONPATH=src``)."""

import sys

from .cli import main

sys.exit(main())
