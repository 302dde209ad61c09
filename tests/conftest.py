import os

# TWISTLINK_STATEMENT_GATE=1 fails the run on a statement of src/twistlink
# that no test ran (see statement_gate.py)
if os.environ.get("TWISTLINK_STATEMENT_GATE"):
    pytest_plugins = ["statement_gate"]

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
