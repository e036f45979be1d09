import tracemalloc

from levsketch import make_plan
from levsketch.sketch import default_r1

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


def sketch_plan(n, d, eps=0.5, **sizes):
    """``make_plan``'s default sizes on the sketch route: r1 = ceil(20 d
    ln n), the default, passed explicitly, which is the caller choosing
    the sketch. Tests that certify the sketch use it, so that the router
    cannot make them exercise the gram route instead."""
    sizes.setdefault("r1", default_r1(n, d))
    return make_plan(n, d, eps, **sizes)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
