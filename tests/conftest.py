"""Prints a one-line verdict per acceptance criterion after the run, and
fixes the hypothesis examples: every run draws the same ones and keeps no
example database."""

# before anything imports numpy, so that dawnet's one-BLAS-thread pin holds
# and the suite computes as the commands do: on one BLAS thread, with
# scoring and training steps on a thread per core. `pytest -p numpy`
# imports numpy first and so runs the suite on the one-thread path instead
import dawnet  # noqa: F401

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    _ACCEPTANCE[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[nodeid]
        verdict = "PASS" if outcome == "passed" else outcome.upper()
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{verdict:>6}  {name}")
