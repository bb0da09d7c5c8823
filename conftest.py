"""Test-session path setup and environment guards.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. in offline environments where ``pip install -e .`` cannot bootstrap its
build dependencies), skips multiprocess selection tests on hosts where a
worker pool cannot help (a single CPU) or cannot fork at all, and fails any
non-chaos test whose worker-pool teardown stalled into the watchdog.
"""

import logging
import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def _parallel_tests_supported() -> bool:
    """Whether ``parallel``-marked tests are worth running on this host."""
    if os.environ.get("REPRO_FORCE_PARALLEL_TESTS"):
        return True
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return (os.cpu_count() or 1) >= 2


def pytest_collection_modifyitems(config, items):
    if _parallel_tests_supported():
        return
    skip_parallel = pytest.mark.skip(
        reason="multiprocess selection tests need fork support and >= 2 CPUs "
        "(set REPRO_FORCE_PARALLEL_TESTS=1 to run anyway)"
    )
    for item in items:
        if "parallel" in item.keywords:
            item.add_marker(skip_parallel)


#: The teardown watchdog's warning: a healthy pool never logs it.
_STALL_TEXT = "pool teardown stalled"


class _StallRecorder(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.stalls = []

    def emit(self, record):
        message = record.getMessage()
        if _STALL_TEXT in message:
            self.stalls.append(message)


@pytest.fixture(autouse=True)
def no_pool_teardown_stalls(request):
    """Fail a test whose pool teardown had to be hard-killed by the watchdog.

    Chaos tests kill and wedge workers on purpose, so a stall there can be
    the recovery under test; anywhere else it is a defect.
    """
    if request.node.get_closest_marker("chaos") is not None:
        yield
        return
    recorder = _StallRecorder()
    logger = logging.getLogger("repro.selection.parallel")
    logger.addHandler(recorder)
    try:
        yield
    finally:
        logger.removeHandler(recorder)
    if recorder.stalls:
        pytest.fail(f"worker pool teardown stalled: {recorder.stalls}")
