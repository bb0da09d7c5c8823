"""Name-based selector registry used by the engine, benchmarks and examples."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.selection.base import TaskSelector
from repro.core.selection.brute_force import BruteForceSelector
from repro.core.selection.fact_entropy import FactEntropySelector
from repro.core.selection.greedy import GreedySelector
from repro.core.selection.pruning import PruningGreedySelector
from repro.core.selection.random_selector import RandomSelector
from repro.core.selection.reference import ReferenceGreedySelector
from repro.exceptions import SelectionError

_FACTORIES: Dict[str, Callable[..., TaskSelector]] = {
    BruteForceSelector.name: BruteForceSelector,
    FactEntropySelector.name: FactEntropySelector,
    GreedySelector.name: GreedySelector,
    PruningGreedySelector.name: PruningGreedySelector,
    RandomSelector.name: RandomSelector,
    ReferenceGreedySelector.name: ReferenceGreedySelector,
}

#: Aliases: the labels used in the paper's tables and figures, and the
#: ``*_pre`` names of the Section III-F preprocessing variants.  Every greedy
#: selector runs on the preprocessed engine, so those names resolve to the
#: plain and pruned greedy selectors.
_ALIASES: Dict[str, str] = {
    "OPT": BruteForceSelector.name,
    "Approx.": GreedySelector.name,
    "Approx.&Prune": PruningGreedySelector.name,
    "Approx.&Pre.": GreedySelector.name,
    "Approx.&Prune&Pre.": PruningGreedySelector.name,
    "Random": RandomSelector.name,
    "greedy_pre": GreedySelector.name,
    "greedy_prune_pre": PruningGreedySelector.name,
}


def available_selectors() -> List[str]:
    """Return every name :func:`get_selector` accepts: canonical and aliases."""
    return sorted([*_FACTORIES, *_ALIASES])


def get_selector(name: str, **kwargs) -> TaskSelector:
    """Instantiate a selector by canonical name or paper label.

    ``kwargs`` are forwarded to the selector constructor (e.g. ``seed`` for
    the random baseline).
    """
    canonical = _ALIASES.get(name, name)
    try:
        factory = _FACTORIES[canonical]
    except KeyError:
        raise SelectionError(
            f"unknown selector {name!r}; available: {available_selectors()}"
        ) from None
    return factory(**kwargs)
