import os

# before any test module imports NumPy, so that the loaded BLAS starts with
# the one thread per process that `import fedlora` asks for, as in a CLI run
import fedlora  # noqa: F401
import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process (such as a federation helper) behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pytest_terminal_summary(terminalreporter):
    # surface the acceptance gate verdicts even though pytest captures stdout
    try:
        from test_acceptance import GATE_LINES
    except ImportError:
        return
    if GATE_LINES:
        terminalreporter.section("acceptance gate")
        for line in GATE_LINES:
            terminalreporter.write_line(line)
