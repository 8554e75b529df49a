"""Property tests of the containers (hypothesis).

* ``PairDataset.participant_ids`` gives exactly what
  ``np.unique(np.concatenate([a_ids, b_ids]))`` gives, in dtype, order and
  value, on any canonical pairs of int64 ids: negative ids, ids repeated
  across pairs, a single pair and the empty release included.

Each test draws at least 150 examples, more under a profile that asks for
more (see conftest.py).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from samediff import PairDataset  # noqa: E402

SETTINGS = settings(max_examples=max(150, settings.default.max_examples), deadline=None)

# a small range as well as the whole of int64, so ids often repeat
IDS = st.one_of(st.integers(-5, 5), st.integers(-(2**63), 2**63 - 1))
PAIRS = st.lists(st.tuples(IDS, IDS).filter(lambda ab: ab[0] != ab[1]), max_size=60)


@SETTINGS
@given(PAIRS)
@example([])
@example([(-(2**63), 2**63 - 1)])
@example([(-3, 7), (7, -3), (-3, 0)])
def test_participant_ids_match_np_unique(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    release = PairDataset.build(a, b, np.zeros(len(pairs), dtype=np.uint8))
    got = release.participant_ids()
    want = np.unique(np.concatenate([release.a_ids, release.b_ids]))
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
