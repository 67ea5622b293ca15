"""Compatibility name kept for ``perfbench/tracer.py``; nothing in ``repro`` uses it.

The benchmark's tracer imports this module and wraps
:func:`publish_graph` (nothing calls it).  The next change to the
benchmark deletes the tracer hook and this module with it.
"""


def publish_graph(graph):
    """Never called; only ``perfbench/tracer.py`` refers to it."""
