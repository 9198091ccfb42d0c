import time

import pytest

from dpcount import verify
from dpcount.gw import GWEngine


@pytest.fixture(scope="session")
def engine():
    """Shared memoized engine; every operation on it is idempotent."""
    return GWEngine()


@pytest.fixture(scope="session")
def default_consistency_draw():
    """`verify --suite consistency` on its default draw (seed 1, 200 classes, k <= 8), run once
    on a fresh engine: (that engine, the suite's (ok, lines), the seconds it took).

    While the suite runs, `verify.relations_hold` also keeps a `verify.consistency_check` report,
    in `engine.reports`, for each class it decides, and asserts that the verdict is the report's.
    Acceptance criterion 6 reads its verdict and time, and test_pinned.py the digest of its reports."""
    engine, relations_hold = GWEngine(), verify.relations_hold
    engine.reports = []

    def recording(engine, beta):
        verdict = relations_hold(engine, beta)
        report = verify.consistency_check(engine, beta)
        assert verdict == report.consistent, str(beta)
        engine.reports.append(report)
        return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "relations_hold", recording)
        start = time.time()
        result = verify.consistency_suite(engine)
        return engine, result, time.time() - start
