"""Print the acceptance gates' status lines at the end of the run.

The shared helpers live in ``support.py``: a module named ``conftest``
would clash with the benchmark's own ``conftest`` when both test
directories run in one pytest call.
"""

from support import ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
