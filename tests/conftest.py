import tracemalloc

VERDICTS = []


def record_verdict(line: str) -> None:
    """Queue an acceptance verdict for the end-of-run summary."""
    VERDICTS.append(line)


def traced_peak(fn):
    """Run ``fn()`` under tracemalloc; return its result and the peak number
    of bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
