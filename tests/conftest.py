import time

import pytest

from dpcount import verify
from dpcount.gw import GWEngine


@pytest.fixture(scope="session")
def engine():
    """Shared memoized engine; every operation on it is idempotent."""
    return GWEngine()


class RecordingEngine(GWEngine):
    """An engine that keeps a `consistency_check` report for each class its `relations_hold`
    decides, and asserts that the verdict is the report's."""

    def __init__(self):
        super().__init__()
        self.reports = []

    def relations_hold(self, beta):
        verdict = super().relations_hold(beta)
        report = self.consistency_check(beta)
        assert verdict == report.consistent, str(beta)
        self.reports.append(report)
        return verdict


@pytest.fixture(scope="session")
def default_consistency_draw():
    """`verify --suite consistency` on its default draw (seed 1, 200 classes, k <= 8), run once
    on a fresh `RecordingEngine`: (that engine, the suite's (ok, lines), the seconds it took).

    Acceptance criterion 6 reads its verdict and time, and test_pinned.py the digest of its reports."""
    engine = RecordingEngine()
    start = time.time()
    result = verify.consistency_suite(engine)
    return engine, result, time.time() - start
