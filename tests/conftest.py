"""Every test starts from an empty step tape store.

``STEP_TAPES`` outlives a Session by design, so without this a session
could replay a tape an earlier test recorded, and how many steps a test
sees executed, recorded or replayed would depend on the order the tests
run in.
"""

import pytest

from repro.runtime import STEP_TAPES


@pytest.fixture(autouse=True)
def empty_step_store():
    STEP_TAPES.clear()
    yield
    STEP_TAPES.clear()
