"""Script entry point of e0: ``python3 benchmarks/e0/run.py ...`` (see ``cli.py``)."""

import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    # Replace the script directory on the path (its trace.py would shadow the
    # standard library's) with the checkout root and the platform's sources.
    sys.path[0:1] = [root, os.path.join(root, "src")]
    from benchmarks.e0.cli import main

    sys.exit(main())
