"""Shared pytest hooks: collect acceptance verdicts, print them at the end.

The acceptance tests call record_criterion as they run; the terminal
summary then shows one PASS/FAIL line per criterion so the verdicts are
visible in plain pytest output without -s. free_port serves the wire tests.
"""

import socket

ACCEPTANCE_RESULTS = []


def free_port(host: str = "127.0.0.1") -> int:
    """A port of ``host`` (an IPv4 or IPv6 loopback) that was free a moment
    ago, for a coordinator to bind; OSError where the host has no such address."""
    with socket.socket(socket.AF_INET6 if ":" in host else socket.AF_INET) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def record_criterion(index: int, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((index, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index, passed, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {index}: {verdict}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
