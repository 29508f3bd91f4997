"""Every test starts from empty step tape and meta stream stores.

``NUMERIC_TAPES`` and ``META_STREAMS`` outlive a Session by design, so
without this a session could replay a tape or stream an earlier test
recorded, and how many steps a test sees executed, recorded or replayed
would depend on the order the tests run in.
"""

import pytest

from repro.runtime import META_STREAMS, NUMERIC_TAPES


@pytest.fixture(autouse=True)
def empty_step_stores():
    NUMERIC_TAPES.clear()
    META_STREAMS.clear()
    yield
    NUMERIC_TAPES.clear()
    META_STREAMS.clear()
