"""e0: the canonical end-to-end benchmark of the TinyMLOps platform.

Drives the platform through its public API and measures each layer from
outside; see ``README.md`` in this directory.  ``run.py`` is the entry
point ``BENCHMARK.json`` names.
"""
