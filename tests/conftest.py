import sys
import tracemalloc
from pathlib import Path

import pytest

# Make sibling helper modules (synth, scalar_oracle) importable when
# pytest is run from the repository root.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def traced_peak():
    """traced_peak(fn) runs fn() under tracemalloc and returns its result
    with the peak of the bytes allocated while it ran."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return run
