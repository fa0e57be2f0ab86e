import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

# helpers.py lives next to the tests
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "padicore",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("padicore")


def _backend_line():
    import padicore

    return f"padicore kernel backend: {padicore.KERNEL_BACKEND}"


def pytest_report_header(config):
    return _backend_line()


def pytest_terminal_summary(terminalreporter):
    # -q hides the header, so quiet runs get the line at the end instead
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(_backend_line())
