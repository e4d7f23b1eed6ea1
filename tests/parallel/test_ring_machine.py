"""Stateful test of the seqlock descriptor ring against a bounded deque.

Hypothesis drives one process holding two handles on one segment — the
creator (producer) and an attached consumer — through any interleaving
of blocking and non-blocking pushes and pops, pushes on a full ring,
timed pops on an empty one, doorbell writes and re-attaches of the
consumer.  The model is a ``deque`` of at most ``slots`` descriptors.
After every step the ring must agree with it: FIFO order, no slot
overwritten under backpressure, ``len + free == slots`` on both
handles, and every slot's sequence word equal to the last ticket
published into it plus one, across many wraparounds of a small ring.
"""

import itertools
import os
from collections import deque

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.errors import DaemonError
from repro.parallel import ring
from repro.parallel.ring import Ring

_NAMES = itertools.count()

descriptors = st.tuples(st.integers(0, 2 ** 64 - 1),
                        st.integers(0, 2 ** 32 - 1),
                        st.integers(0, 2 ** 32 - 1),
                        st.integers(0, 2 ** 64 - 1))


class RingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.producer = self.consumer = None
        self.model = deque()
        self.pushed = 0             # tickets published so far (head)
        self.door = 0

    @initialize(slots=st.sampled_from([2, 4, 8]))
    def open_ring(self, slots):
        self.slots = slots
        self.name = f"rtest{os.getpid()}sm{next(_NAMES)}"
        self.producer = Ring.create(self.name, slots)
        self.consumer = Ring.attach(self.name)

    # -- producer ------------------------------------------------------
    @rule(item=descriptors)
    def try_push(self, item):
        full = len(self.model) == self.slots
        assert self.producer.try_push(*item) is (not full)
        if not full:
            self._published(item)

    @precondition(lambda self: len(self.model) < self.slots)
    @rule(item=descriptors)
    def push(self, item):
        self.producer.push(*item, timeout=1.0)
        self._published(item)

    @precondition(lambda self: len(self.model) == self.slots)
    @rule(item=descriptors)
    def push_on_full_times_out(self, item):
        with pytest.raises(DaemonError, match="stayed full"):
            self.producer.push(*item, timeout=1e-3)

    def _published(self, item):
        self.model.append(item)
        self.pushed += 1

    # -- consumer ------------------------------------------------------
    @rule()
    def try_pop(self):
        want = self.model.popleft() if self.model else None
        assert self.consumer.try_pop() == want

    @precondition(lambda self: self.model)
    @rule()
    def pop(self):
        assert self.consumer.pop(timeout=1.0) == self.model.popleft()

    @precondition(lambda self: not self.model)
    @rule()
    def pop_on_empty_times_out(self):
        with pytest.raises(DaemonError, match="produced nothing"):
            self.consumer.pop(timeout=1e-3)

    @rule(value=st.integers(0, 2 ** 64 - 1))
    def door_set(self, value):
        self.consumer.door_set(value)
        self.door = value

    @rule()
    def attach_again(self):
        """A second attach sees the live state; it takes over as the
        consumer and the old consumer handle is unmapped."""
        fresh = Ring.attach(self.name)
        assert (fresh.slots, len(fresh), fresh.door) == \
            (self.slots, len(self.model), self.door)
        self.consumer.close()
        self.consumer = fresh

    # -- invariants ----------------------------------------------------
    @invariant()
    def agrees_with_the_model(self):
        if self.producer is None:
            return
        popped = self.pushed - len(self.model)
        for handle in (self.producer, self.consumer):
            assert (handle.head, handle.tail) == (self.pushed, popped)
            assert len(handle) == len(self.model)
            assert len(handle) + handle.free == self.slots
            assert handle.door == self.door

    @invariant()
    def sequence_words_name_the_last_ticket(self):
        """Slot ``i`` last published ticket ``t`` (``t % slots == i``,
        ``t < head``) and holds ``seq == t + 1``; never-used slots
        hold 0."""
        if self.producer is None:
            return
        for i in range(self.slots):
            off = ring._HEADER_BYTES + i * ring._SLOT_BYTES
            seq = ring._WORD.unpack_from(self.producer._buf, off)[0]
            if self.pushed > i:
                last = i + self.slots * ((self.pushed - 1 - i) // self.slots)
                assert seq == last + 1, (i, seq, last)
            else:
                assert seq == 0, (i, seq)

    def teardown(self):
        if self.producer is None:
            return
        self.consumer.close()
        self.producer.close()
        assert self.name not in os.listdir("/dev/shm")


RingMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=80, deadline=None)
TestRingMachine = RingMachine.TestCase
