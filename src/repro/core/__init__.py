"""SlickDeque — the paper's contribution (Section 3).

* :class:`SlickDequeInv` / :class:`SlickDequeInvMulti` — Algorithm 1,
  invertible aggregates.
* :class:`SlickDequeNonInv` / :class:`SlickDequeNonInvMulti` —
  Algorithm 2, non-invertible (selection) aggregates.
* :func:`make_slickdeque` / :func:`make_slickdeque_multi` — the
  invertibility dispatch, including component-wise decomposition of
  algebraic operators such as Range.
* :class:`SharedSlickDeque` — the full shared-plan execution loop over
  heterogeneous ACQ sets.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".algorithm1": ("PaperAlgorithm1",),
    ".facade": (
        "ComponentwiseAggregator",
        "ComponentwiseMultiAggregator",
        "make_slickdeque",
        "make_slickdeque_multi",
    ),
    ".multiquery": ("SharedSlickDeque",),
    ".slickdeque_inv": ("SlickDequeInv", "SlickDequeInvMulti"),
    ".slickdeque_noninv": (
        "ChunkedSlickDequeNonInv",
        "SlickDequeNonInv",
        "SlickDequeNonInvMulti",
        "chunked_space_words",
    ),
    ".slickdeque_noninv_wrapped": ("WrappedSlickDequeNonInvMulti",),
})
