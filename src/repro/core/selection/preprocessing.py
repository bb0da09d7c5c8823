"""Greedy selection accelerated by preprocessing and partition refinement.

Section III-F of the paper speeds up Algorithm 1 in two ways:

1. **Preprocessing** — materialise, once per round, the data needed to score
   any candidate task set without rescanning the raw output table per
   candidate.  The paper materialises the full answer joint distribution
   (Table IV); that table has ``2^n`` rows, which the authors processed on a
   ten-node cluster.  We materialise the mathematically equivalent compact
   form instead: per-fact truth bit-vectors over the output *support* plus a
   probability vector, from which any task set's answer distribution follows
   by a grouped sum and a noise convolution — ``O(n·|O|)`` memory instead of
   ``O(2^n)``, which is what makes the reproduction laptop-scale.

2. **Partition refinement (Algorithm 2)** — across greedy iterations, keep
   the projection of every output onto the already-selected task set and only
   split those groups by the one candidate fact under evaluation, instead of
   recomputing the projection from scratch.

Both accelerations now live in the shared
:class:`~repro.core.selection.engine.EntropyEngine`, which additionally
replaces the ``O(4^k)`` dense noise kernel of the original implementation
with per-bit binary-symmetric-channel convolutions (``O(k·2^k)``) and caches
the selected set's convolved answer distribution between iterations.  Every
greedy variant therefore runs at "preprocessed" speed, so the registry
resolves the preprocessing names (``greedy_pre``, ``greedy_prune_pre`` and
the paper's Table V labels ``Approx.&Pre.``, ``Approx.&Prune&Pre.``) as
aliases of ``greedy`` and ``greedy_prune``.  The seed's un-preprocessed scan
is ``greedy_reference``.

:func:`_noise_kernel` below is the original dense ``2^k × 2^k`` channel
matrix.  It is retained (and unit-tested) as the executable specification the
factorised transform must match.
"""

from __future__ import annotations

import numpy as np

from repro.core.entropy import popcount_array


def _noise_kernel(num_tasks: int, accuracy: float) -> np.ndarray:
    """Binary-symmetric-channel kernel ``M[a, s] = Pc^#Same · (1−Pc)^#Diff``.

    ``a`` ranges over answer vectors and ``s`` over output projections, both
    encoded as ``num_tasks``-bit masks.  The selection hot path no longer
    materialises this ``O(4^k)`` matrix — :func:`repro.core.entropy.bsc_transform`
    applies the same channel one bit at a time — but the dense form remains
    the clearest statement of Equation 2 and anchors the equivalence tests.
    """
    size = 1 << num_tasks
    indices = np.arange(size, dtype=np.int64)
    diff = popcount_array(indices[:, None] ^ indices[None, :])
    error = 1.0 - accuracy
    with np.errstate(divide="ignore"):
        kernel = (accuracy ** (num_tasks - diff)) * (error ** diff)
    return kernel
