"""Name of the compute path, kept for the benchmark's host fingerprint.

Every hot loop has one implementation: the numpy fast path inside the
class that owns its state (``SetAssociativeCache.access_block``,
``Aggregator.pack_lines``, ``Disaggregator.merge_lines``) and the
``heapq`` loop of ``Simulator``.  :func:`active_backend` exists only
because ``perfbench/passrun.py`` records its ``.name`` in each run's
host fingerprint; a later change to the benchmark can drop both.
"""

from types import SimpleNamespace

__all__ = ["active_backend"]

_NUMPY = SimpleNamespace(name="numpy")


def active_backend() -> SimpleNamespace:
    """An object whose ``.name`` is ``"numpy"``, the only compute path."""
    return _NUMPY
