"""Stateful property test of the result store against a dict model.

Hypothesis interleaves put (including overwrites), get, membership,
len, reopen with a fresh handle, compaction and ``gc(max_entries=N)``
on one :class:`ShardedResultStore`, and after every step checks:

* ``key in store`` iff ``store.get(key) is not None``;
* every key reads back its last written value (last write wins);
* reopening and compaction lose nothing — the store always equals the
  model.
"""

import hashlib
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.campaign import ShardedResultStore
from repro.harness import run_workload_cell
from repro.lifetime.simulator import LifetimeCurve

#: Few keys, so overwrites and shared shards are common; the first
#: digit collides often at prefix_len=1.
KEYS = [hashlib.sha256(str(n).encode()).hexdigest() for n in range(8)]

CELL_REPORT = run_workload_cell("baseline", 500, "hm", requests=40, seed=3)

results = st.one_of(
    st.just(CELL_REPORT),
    st.builds(
        LifetimeCurve,
        scheme=st.sampled_from(["baseline", "aero"]),
        pec_points=st.lists(st.integers(0, 20000), max_size=4),
        avg_mrber=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), max_size=4
        ),
        lifetime_pec=st.none() | st.integers(0, 20000),
    ),
)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-sm-")
        self.store = ShardedResultStore(self.root, prefix_len=1)
        self.model = {}
        #: key -> put ordinal of its last write (gc keeps the newest).
        self.written = {}
        self.puts = 0

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(key=st.sampled_from(KEYS), value=results)
    def put(self, key, value):
        self.store.put(key, value, meta={"n": self.puts})
        self.model[key] = value
        self.written[key] = self.puts
        self.puts += 1

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        assert self.store.get(key) == self.model.get(key)

    @rule(key=st.sampled_from(KEYS))
    def contains(self, key):
        assert (key in self.store) == (key in self.model)

    @rule()
    def length(self):
        assert len(self.store) == len(self.model)

    @rule()
    def reopen(self):
        self.store = ShardedResultStore(self.root)

    @rule()
    def compact(self):
        self.store.compact()

    @rule(max_entries=st.integers(0, len(KEYS)))
    def gc(self, max_entries):
        result = self.store.gc(max_entries=max_entries)
        newest = sorted(self.model, key=self.written.__getitem__)
        doomed = newest[: max(0, len(newest) - max_entries)]
        assert {entry.key for entry in result.removed} == set(doomed)
        assert result.kept == len(self.model) - len(doomed)
        for key in doomed:
            del self.model[key]

    @invariant()
    def matches_model(self):
        for key in KEYS:
            value = self.store.get(key)
            assert (key in self.store) == (value is not None)
            assert value == self.model.get(key)


StoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None, database=None
)
test_store_matches_dict_model = StoreMachine.TestCase
