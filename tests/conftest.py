"""Suite-wide checks."""

from pathlib import Path

import pytest


@pytest.fixture(scope="session", autouse=True)
def no_stray_out_dir():
    """A command run without --out writes into ./out (failed runs too, for their
    manifest); every test must name its own output directory."""
    existed = Path("out").exists()
    yield
    assert existed or not Path("out").exists(), "a test wrote ./out"
