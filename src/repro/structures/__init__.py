"""Data-structure substrate: circular buffers and chunked deques.

These are the storage layers under the window algorithms —
:class:`CircularBuffer` backs Naive, FlatFIT, and SlickDeque (Inv)
(`partials` array of Algorithm 1), :class:`ChunkedDeque` backs
SlickDeque (Non-Inv) and DABA's queues (paper Section 4.2 chunked
allocation).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".chunked_deque": ("ChunkedDeque", "optimal_chunk_size"),
    ".circular_buffer": ("CircularBuffer",),
})
