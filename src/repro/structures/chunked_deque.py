"""Chunked-node deque (paper Section 4.2).

SlickDeque (Non-Inv) "performs node allocations in chunks to reduce the
space required by pointers similarly to DABA, causing an overall
allocation of up to two chunks' worth of space (at the beginning and at
the end of the deque)".  With ``n`` nodes of two values each and ``k``
chunks of two pointers each, the worst-case space is ``2n + 4k + 4n/k``
words, minimised at ``k = √n``.

This module implements that structure: a doubly-linked list of
fixed-size chunks with head/tail cursors, speaking the subset of the
``collections.deque`` interface Algorithm 2 uses (``d[0]``, ``d[-1]``,
``append``, ``pop``, ``popleft``, ``extend``, ``clear``), so
:class:`~repro.core.slickdeque_noninv.ChunkedSlickDequeNonInv` is the
unchanged Algorithm 2 over this storage.  Items are arbitrary Python
objects; callers state how many logical words one item occupies
(``words_per_item``, 2 for SlickDeque's ``(pos, val)`` nodes) so
:meth:`ChunkedDeque.memory_words` reproduces the §4.2 formula for
Exp 4 and the chunk-size ablation bench.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, List, Optional

from repro.errors import WindowStateError


class _Chunk:
    """One fixed-size allocation block with prev/next links."""

    __slots__ = ("slots", "prev", "next")

    def __init__(self, size: int):
        self.slots: List[Any] = [None] * size
        self.prev: Optional["_Chunk"] = None
        self.next: Optional["_Chunk"] = None


def optimal_chunk_size(expected_items: int) -> int:
    """The §4.2 optimum ``k = √n``, as a chunk *size* of ``√n`` slots.

    With ``n`` items split into chunks of ``c`` slots there are
    ``k = n/c`` chunks; space ``2n + 4k + 4c`` is minimised when
    ``c = √n`` (equivalently ``k = √n``).
    """
    if expected_items <= 0:
        return 1
    return max(1, int(math.isqrt(expected_items)))


class ChunkedDeque:
    """Double-ended queue over chunk-allocated storage.

    Supports the ``collections.deque`` operations SlickDeque (Non-Inv)
    needs: ``d[0]`` (front), ``d[-1]`` (back), ``append``, ``pop``,
    ``popleft``, ``extend``, ``clear``, front-to-back iteration, and
    O(1) length.  Chunks are recycled through a one-chunk free list so
    a steady-state window does not churn the allocator.
    """

    def __init__(self, chunk_size: int = 64, words_per_item: int = 2):
        if chunk_size <= 0:
            raise WindowStateError(
                f"chunk size must be positive, got {chunk_size}"
            )
        if words_per_item <= 0:
            raise WindowStateError(
                f"words_per_item must be positive, got {words_per_item}"
            )
        self.chunk_size = chunk_size
        self.words_per_item = words_per_item
        self._head_chunk: Optional[_Chunk] = None
        self._tail_chunk: Optional[_Chunk] = None
        self._head_index = 0  # index of the front item in head chunk
        self._tail_index = 0  # index one past the back item in tail chunk
        self._length = 0
        self._chunk_count = 0
        self._spare: Optional[_Chunk] = None  # free-list of size one

    # -- allocation helpers ------------------------------------------------

    def _new_chunk(self) -> _Chunk:
        if self._spare is not None:
            chunk = self._spare
            self._spare = None
            chunk.prev = None
            chunk.next = None
            return chunk
        return _Chunk(self.chunk_size)

    def _retire_chunk(self, chunk: _Chunk) -> None:
        chunk.prev = None
        chunk.next = None
        for i in range(self.chunk_size):
            chunk.slots[i] = None
        self._spare = chunk

    # -- core deque operations ---------------------------------------------

    def append(self, item: Any) -> None:
        """Append ``item`` at the tail."""
        if self._tail_chunk is None or self._tail_index == self.chunk_size:
            chunk = self._new_chunk()
            self._chunk_count += 1
            if self._tail_chunk is None:
                self._head_chunk = chunk
                self._head_index = 0
            else:
                self._tail_chunk.next = chunk
                chunk.prev = self._tail_chunk
            self._tail_chunk = chunk
            self._tail_index = 0
        self._tail_chunk.slots[self._tail_index] = item
        self._tail_index += 1
        self._length += 1

    def pop(self) -> Any:
        """Remove and return the tail item."""
        if self._length == 0:
            raise WindowStateError("pop from empty deque")
        assert self._tail_chunk is not None
        self._tail_index -= 1
        item = self._tail_chunk.slots[self._tail_index]
        self._tail_chunk.slots[self._tail_index] = None
        self._length -= 1
        if self._tail_index == 0 and self._length > 0:
            old = self._tail_chunk
            self._tail_chunk = old.prev
            assert self._tail_chunk is not None
            self._tail_chunk.next = None
            self._tail_index = self.chunk_size
            self._chunk_count -= 1
            self._retire_chunk(old)
        elif self._length == 0:
            self._reset_empty()
        return item

    def popleft(self) -> Any:
        """Remove and return the front item."""
        if self._length == 0:
            raise WindowStateError("popleft from empty deque")
        assert self._head_chunk is not None
        item = self._head_chunk.slots[self._head_index]
        self._head_chunk.slots[self._head_index] = None
        self._head_index += 1
        self._length -= 1
        if self._head_index == self.chunk_size and self._length > 0:
            old = self._head_chunk
            self._head_chunk = old.next
            assert self._head_chunk is not None
            self._head_chunk.prev = None
            self._head_index = 0
            self._chunk_count -= 1
            self._retire_chunk(old)
        elif self._length == 0:
            self._reset_empty()
        return item

    def _reset_empty(self) -> None:
        if self._head_chunk is not None:
            self._chunk_count -= 1
            self._retire_chunk(self._head_chunk)
        self._head_chunk = None
        self._tail_chunk = None
        self._head_index = 0
        self._tail_index = 0

    def extend(self, items: Iterable[Any]) -> None:
        """Append every item, in order."""
        for item in items:
            self.append(item)

    def clear(self) -> None:
        """Remove every item."""
        while self._length:
            self.pop()

    def __getitem__(self, index: int) -> Any:
        """``d[0]`` is the front (oldest) item, ``d[-1]`` the back."""
        if self._length == 0:
            raise WindowStateError("index into empty deque")
        if index == 0:
            assert self._head_chunk is not None
            return self._head_chunk.slots[self._head_index]
        if index == -1:
            assert self._tail_chunk is not None
            return self._tail_chunk.slots[self._tail_index - 1]
        raise IndexError(
            f"ChunkedDeque supports only [0] and [-1], got [{index}]"
        )

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Any]:
        """Iterate items front (oldest) to back (newest)."""
        chunk = self._head_chunk
        index = self._head_index
        remaining = self._length
        while remaining > 0:
            assert chunk is not None
            if index == self.chunk_size:
                chunk = chunk.next
                index = 0
                continue
            yield chunk.slots[index]
            index += 1
            remaining -= 1

    # -- accounting ----------------------------------------------------------

    @property
    def chunk_count(self) -> int:
        """Chunks currently linked into the deque."""
        return self._chunk_count

    def allocated_slots(self) -> int:
        """Item slots allocated (including unfilled slack in end chunks)."""
        return self._chunk_count * self.chunk_size

    def memory_words(self) -> int:
        """Logical footprint per §4.2.

        ``words_per_item`` words per *allocated* slot (over-allocation at
        both ends is charged, exactly as the paper's "up to two chunks'
        worth of space" analysis), plus two pointer words per chunk.
        """
        return (
            self.allocated_slots() * self.words_per_item
            + self._chunk_count * 2
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedDeque(len={self._length}, chunks={self._chunk_count}, "
            f"chunk_size={self.chunk_size})"
        )
