"""Shared pytest wiring.

Tests in test_acceptance.py are tagged with the ``acceptance`` marker,
each carrying a criterion number and title. After the run, a summary
block prints one PASS/FAIL line per criterion so the release checklist
can be read off the terminal directly. A criterion passes only if every
test tagged with it passed.

Every hypothesis test runs under one profile: no per-example deadline
(timings on a shared machine vary too much to gate on), and a failure
prints the blob that reproduces it with ``@reproduce_failure``.
"""

from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("sarcnet", deadline=None, print_blob=True)
settings.load_profile("sarcnet")

REPO_ROOT = Path(__file__).resolve().parent.parent

CRITERIA = {
    1: "reference metrics closed under two-decimal rounding",
    2: "gradient oracle (central finite differences)",
    3: "Adam closed-form first step and zero-gradient identity",
    4: "softmax normalization and cross-entropy values",
    5: "dropout mask structure and keep rate",
    6: "overfit sanity on a verified separable set",
    7: "pipeline fixtures and lexicon provenance",
    8: "end-to-end determinism on the mini-corpus",
    9: "metrics oracle (brute-force confusion counter)",
    10: "split contract (700/300, disjoint)",
}


@pytest.fixture(scope="session")
def minicorpus_dir() -> Path:
    path = REPO_ROOT / "data" / "minicorpus"
    if not path.is_dir():
        pytest.skip("bundled mini-corpus not found")
    return path


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(criterion): ties a test to a numbered acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and report.when == "call":
        report.user_properties.append(("criterion", marker.args[0]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for reports in terminalreporter.stats.values():
        for report in reports:
            for key, value in getattr(report, "user_properties", []):
                if key != "criterion":
                    continue
                passed, total = results.get(value, (0, 0))
                results[value] = (passed + (report.outcome == "passed"), total + 1)
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(CRITERIA):
        if number not in results:
            continue
        passed, total = results[number]
        verdict = "PASS" if passed == total else f"FAIL ({total - passed} of {total} checks)"
        terminalreporter.write_line(f"criterion {number:>2}: {CRITERIA[number]}: {verdict}")
