"""Shared pytest hooks: collect acceptance verdicts, print them at the end.

The acceptance tests call record_criterion as they run; the terminal
summary then shows one PASS/FAIL line per criterion so the verdicts are
visible in plain pytest output without -s. free_port serves the wire tests,
and BAD_SEEDS and BAD_COUNTS the refusals of the public entries that check a
seed or a count.
"""

import socket

import pytest

ACCEPTANCE_RESULTS = []

# (value, what the refusal says of an argument named "seed")
BAD_SEEDS = [
    pytest.param(1.5, "seed must be an integer, got 1.5", id="float"),
    pytest.param(True, "seed must be an integer, got True", id="bool"),
    pytest.param("1", "seed must be an integer, got '1'", id="string"),
    pytest.param(None, "seed must be an integer, got None", id="none"),
    pytest.param(-1, "seed must be >= 0, got -1", id="negative"),
]
# (value, what the refusal says after the name of a count)
BAD_COUNTS = [
    pytest.param(2.5, "must be an integer, got 2.5", id="float"),
    pytest.param(True, "must be an integer, got True", id="bool"),
    pytest.param("2", "must be an integer, got '2'", id="string"),
]


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
