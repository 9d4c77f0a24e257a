"""Shared pytest plumbing.

The acceptance gate in test_acceptance.py names its tests
test_criterion_NN_*.  The terminal-summary hook below condenses their
outcomes into one line per criterion at the end of the run, so a plain
`pytest -v` log ends with an explicit verdict list.

Hypothesis imports its patch writer, and libcst with it, only once a property
has failed; libcst's mypy_extensions.TypedDict import then warns, which under
`python -X dev -W error` ends the run in INTERNALERROR before the falsifying
example is printed.  Importing the writer here, with that one warning class
ignored, lets a failing property report as any failing test does.
"""

import re
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

_CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts: dict[int, list] = {}
    for outcome in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            match = _CRITERION.search(nodeid)
            if not match:
                continue
            number = int(match.group(1))
            status = "PASS" if outcome == "passed" else "FAIL"
            name = nodeid.split("::")[-1]
            entry = verdicts.setdefault(number, [status, name])
            if status == "FAIL":
                entry[0] = "FAIL"
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(verdicts):
        status, name = verdicts[number]
        terminalreporter.write_line(
            f"acceptance criterion {number:02d}: {status} ({name})"
        )
