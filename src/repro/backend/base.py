"""``ArrayBackend``: the row gather and the two plain-numpy index kernels.

:class:`~repro.backend.numpy_backend.NumpyBackend` inherits all three and
adds the scipy sparse-product kernels.  ``gather_rows`` is defined here and
nowhere else: perfbench's ``kernels.gather`` probe wraps
``ArrayBackend.gather_rows``, and an override on the subclass would hide
every call from it.
"""

from __future__ import annotations

import numpy as np


class ArrayBackend:
    """Row gather, in-place index add and segment counts over numpy arrays."""

    def gather_rows(self, values, indices):
        """Select rows ``values[indices]`` along the first axis."""
        return values[indices]

    def index_add(self, out, indices, values) -> None:
        """In-place ``out[indices] += values`` with duplicate accumulation."""
        np.add.at(out, indices, values)

    def segment_counts(self, segment_ids, num_segments: int):
        """Occupancy of each segment as a float array of length ``num_segments``."""
        return np.bincount(segment_ids, minlength=num_segments).astype(
            np.float64)[:num_segments]
