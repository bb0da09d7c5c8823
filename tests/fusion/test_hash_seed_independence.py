"""Fused priors do not depend on the process's string-hash seed.

Fusion methods sum per-source floats over each claim's sources.  Summed in
set order, the last bits of a prior would follow ``PYTHONHASHSEED``, so a
resumed or remote-worker run that rebuilds its problems in a new process
could journal trajectories that differ from the first process's.  This
builds the same priors in two interpreters with different hash seeds and
compares the probability bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

CHILD = """\
import hashlib
from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation.experiment import build_problems
from repro.fusion import BayesianVote, ModifiedCRH, TruthFinder

corpus = generate_book_corpus(
    BookCorpusConfig(num_books=8, num_sources=10, max_sources_per_book=8, seed=3)
)
for method in (ModifiedCRH, BayesianVote, TruthFinder):
    digest = hashlib.sha256()
    for problem in build_problems(corpus.database, corpus.gold, method()):
        digest.update(problem.prior.support_arrays()[1].tobytes())
    print(method.__name__, digest.hexdigest())
"""


def prior_digests(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED=str(hash_seed))
    completed = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout


def test_priors_are_bit_identical_across_hash_seeds():
    baseline = prior_digests(0)
    assert baseline.count("\n") == 3
    assert prior_digests(1) == baseline
