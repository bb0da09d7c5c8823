"""Task-selection algorithms for CrowdFusion.

All selectors implement the :class:`repro.core.selection.base.TaskSelector`
interface and maximise the answer-set entropy ``H(T)`` (Equation 4), which is
equivalent to maximising the expected utility gain of one crowdsourcing round.

Available selectors (Section III & IV of the paper):

* :class:`BruteForceSelector` — the exact "OPT" baseline.
* :class:`GreedySelector` — Algorithm 1, the ``(1 − 1/e)`` approximation.
* :class:`PruningGreedySelector` — Algorithm 1 plus the Theorem-3 pruning rule.
* :class:`RandomSelector` — the random baseline used in the evaluation.
* :class:`FactEntropySelector` — the naive fact-entropy baseline (Section III-B).
* :class:`QueryGreedySelector` — query-based CrowdFusion (Section IV).
* :class:`ReferenceGreedySelector` — the seed's pure-Python greedy, kept for
  equivalence tests and old-vs-new benchmarks.

Both greedy selectors run one scan loop on the shared :class:`EntropyEngine`,
which carries the Section III-F preprocessing and Algorithm-2 partition
refinement, so the preprocessing names (``greedy_pre``, ``greedy_prune_pre``,
``Approx.&Pre.``, ``Approx.&Prune&Pre.``) are registry aliases of
``greedy`` and ``greedy_prune``.

Every selector scores against a :class:`RefinementSession`: the engine-backed
ones through its vectorized incremental :class:`EntropyEngine` — with uniform
or heterogeneous per-task channels.  ``TaskSelector.select`` builds a
throwaway session per call, while ``TaskSelector.select_with_session``
amortises one persistent session across the rounds of a multi-round
refinement.
:class:`SessionPool` keys such sessions by entity for batched experiments.

Sessions can also shard the greedy family's candidate scans: a
:class:`RefinementSession` built with ``RuntimeOptions(workers=N)`` (or
attached to a shared :class:`EvaluatorPool`) scores scans past a work
threshold on a fork-shared ``multiprocessing`` pool
(:mod:`repro.core.selection.parallel`) with selections bit-for-bit identical
to the serial path.  The pool lives for the whole multi-round run:
reweighted posteriors are shipped to the long-lived workers through a
shared-memory snapshot ring (and channel swaps are replayed) instead of the
pool being re-forked after every merge.  Sessions also score many queries in
one batch off shared cached bit columns (``RefinementSession.select_queries``).
"""

from repro.core.selection.base import SelectionResult, SelectionStats, TaskSelector
from repro.core.selection.brute_force import BruteForceSelector
from repro.core.selection.engine import EntropyEngine, SelectionState
from repro.core.selection.fact_entropy import FactEntropySelector
from repro.core.selection.greedy import GreedySelector
from repro.core.selection.parallel import EvaluatorPool, ParallelSelectorMixin
from repro.core.selection.pruning import PruningGreedySelector
from repro.core.selection.query_greedy import QueryGreedySelector
from repro.core.selection.random_selector import RandomSelector
from repro.core.selection.reference import ReferenceGreedySelector
from repro.core.selection.registry import available_selectors, get_selector
from repro.core.selection.session import RefinementSession, SessionPool

__all__ = [
    "BruteForceSelector",
    "EntropyEngine",
    "EvaluatorPool",
    "FactEntropySelector",
    "GreedySelector",
    "ParallelSelectorMixin",
    "PruningGreedySelector",
    "QueryGreedySelector",
    "RandomSelector",
    "ReferenceGreedySelector",
    "RefinementSession",
    "SelectionResult",
    "SelectionState",
    "SelectionStats",
    "SessionPool",
    "TaskSelector",
    "available_selectors",
    "get_selector",
]
