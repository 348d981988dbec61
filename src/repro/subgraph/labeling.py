"""Double-radius node labeling (GraIL) and the paper's improved variant.

Every node ``u`` of an extracted subgraph around a target link ``(i, r, j)``
is labeled ``(d(i, u), d(j, u))`` where ``d(i, u)`` is the length of the
shortest path from ``i`` to ``u`` that does not pass through ``j`` (and vice
versa).  The endpoints themselves get the fixed labels ``(0, 1)`` and
``(1, 0)``.

GraIL prunes any node with ``d(i, u) > t`` or ``d(j, u) > t``.  The paper's
improved labeling (GSM, §IV-C2) instead *keeps* those nodes and replaces the
out-of-range distance with the sentinel ``UNREACHABLE`` (= -1), whose one-hot
encoding is the all-zero vector.  That is what allows GSM to encode the two
disconnected subgraphs around a bridging link.

An extraction stores its labels as an ``(n, 2)`` int8 array, one row per
node in ascending global-id order (hence the ``hops`` ceiling the
extractors enforce); :func:`node_label_features` turns such an array into
float64 one-hot rows.  Batched extractions hold views of one batch-wide
label array, which keeps that array alive while any of them is cached.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

#: Sentinel distance for "not reachable within the hop budget".
UNREACHABLE = -1


def label_nodes(distances_to_head: Dict[int, int], distances_to_tail: Dict[int, int],
                nodes: Iterable[int], head: int, tail: int, hops: int,
                improved: bool = True) -> Dict[int, Tuple[int, int]]:
    """Compute the ``(d(i, u), d(j, u))`` label of every node in ``nodes``.

    With ``improved=False`` (GraIL behaviour) nodes whose either distance is
    missing or exceeds ``hops`` are dropped from the returned mapping; with
    ``improved=True`` they are kept with the ``UNREACHABLE`` sentinel.
    The endpoints always receive ``(0, 1)`` / ``(1, 0)``.
    """
    labels: Dict[int, Tuple[int, int]] = {}
    for node in nodes:
        if node == head:
            labels[node] = (0, 1)
            continue
        if node == tail:
            labels[node] = (1, 0)
            continue
        d_head = distances_to_head.get(node)
        d_tail = distances_to_tail.get(node)
        head_ok = d_head is not None and d_head <= hops
        tail_ok = d_tail is not None and d_tail <= hops
        if improved:
            labels[node] = (
                d_head if head_ok else UNREACHABLE,
                d_tail if tail_ok else UNREACHABLE,
            )
        elif head_ok and tail_ok:
            labels[node] = (d_head, d_tail)
        # else: pruned (GraIL)
    return labels


def node_label_features(node_labels: np.ndarray, hops: int) -> np.ndarray:
    """Encode ``(n, 2)`` double-radius labels as concatenated one-hot rows.

    Row ``u`` of the returned ``(n, 2 * (hops + 1))`` float64 matrix is
    ``one_hot(d(i, u)) ⊕ one_hot(d(j, u))``; the ``UNREACHABLE`` sentinel
    maps to an all-zero block, per the paper, and distances beyond ``hops``
    clip to the last slot.  Rows follow the label rows, so an extraction's
    features line up with its sorted ``nodes``.  This is the only
    label→feature encoder: an extraction's ``node_features`` and the
    block-diagonal union that ``GSM.score_batch`` builds both come from it.
    """
    labels = np.asarray(node_labels)
    dim = hops + 1
    # Row 0 of the table is the all-zero UNREACHABLE block and row d + 1 is
    # one_hot(d); mode="clip" sends a distance beyond hops to one_hot(hops).
    # One gather of both label columns fills each output row's two blocks.
    one_hot = np.eye(dim + 1, dim, k=-1)
    return one_hot.take(labels + 1, axis=0, mode="clip").reshape(
        labels.shape[0], 2 * dim)
