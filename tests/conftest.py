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
