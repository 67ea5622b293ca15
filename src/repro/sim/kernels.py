"""Compatibility name kept for ``perfbench/tracer.py``; nothing in ``repro`` uses it.

The benchmark's tracer imports this module and walks
:class:`BatchKernel`'s subclasses (there are none).  The next change to
the benchmark deletes the tracer hook and this module with it.
"""


class BatchKernel:
    """Empty placeholder; only ``perfbench/tracer.py`` refers to it."""
