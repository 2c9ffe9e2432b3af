import gc
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def calls(fn, arg) -> int:
    """How many Python and C function calls ``fn(arg)`` makes, the calls inside it included.
    The collector is held off, as the CLI holds it: a collection in between would count
    the finalizers and gc callbacks it runs."""
    count = 0

    def profile(frame, event, _):
        nonlocal count
        count += event in ("call", "c_call")
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(arg)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return count


@pytest.fixture(scope="session")
def abs_text() -> str:
    return (FIXTURES / "abs.json").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def abs_path() -> Path:
    return FIXTURES / "abs.json"


@pytest.fixture()
def abs_description(abs_text):
    from tlmforge.sysdesc import parse_description

    desc, diags = parse_description(abs_text)
    assert diags == []
    return desc
