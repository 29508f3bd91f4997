"""Every test starts from an empty numeric tape store.

``NUMERIC_TAPES`` outlives a Session by design, so without this a
session could replay a tape an earlier test recorded, and how many
steps a test sees executed, recorded or replayed would depend on the
order the tests run in.
"""

import pytest

from repro.runtime import NUMERIC_TAPES


@pytest.fixture(autouse=True)
def empty_numeric_tapes():
    NUMERIC_TAPES.clear()
    yield
    NUMERIC_TAPES.clear()
