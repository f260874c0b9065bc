"""Unit and property tests for the CFS sorted-list runqueue.

The module keeps its old name from when CFS queued tasks in a red-black
tree; the same contract now holds for ``CFSScheduler._rq``, a list of
``(vruntime, seq, task)`` entries kept sorted by ``rq_insert``.  Tasks are
enqueued with ``wakeup=False`` so their keys are exactly the vruntimes set
here (no sleeper floor).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.base import CoreTask
from repro.sched.cfs import CFSScheduler


def check_rq_invariants(rq: CFSScheduler) -> None:
    """Entries strictly ordered by (key, seq), each entry is its task's
    handle and keyed by its vruntime, counts and ready weight agree."""
    q = rq._rq
    for a, b in zip(q, q[1:]):
        assert (a[0], a[1]) < (b[0], b[1]), "runqueue out of order"
    for key, _, task in q:
        assert task.sched_node is not None and task.sched_node[2] is task
        assert task.sched_node is q[q.index(task.sched_node)]
        assert key == task.vruntime
    assert len({id(e[2]) for e in q}) == len(q), "task queued twice"
    assert rq.nr_ready == len(q)
    assert rq._ready_weight == sum(e[2].weight for e in q)


def insert(rq: CFSScheduler, key, name=None) -> CoreTask:
    task = CoreTask(name if name is not None else f"k{key}")
    task.vruntime = key
    rq.enqueue(task, 0, wakeup=False)
    return task


def keys(rq: CFSScheduler) -> list:
    return [e[0] for e in rq._rq]


def pop_min(rq: CFSScheduler):
    task = rq.pick_next(0)
    return None if task is None else task.vruntime


class TestBasics:
    def test_empty(self):
        rq = CFSScheduler()
        assert rq.nr_ready == 0
        assert rq._rq == []
        assert rq.pick_next(0) is None
        assert rq.min_vruntime == 0.0
        check_rq_invariants(rq)

    def test_single_insert(self):
        rq = CFSScheduler()
        task = insert(rq, 5.0, "a")
        assert rq.nr_ready == 1
        assert rq._rq[0][0] == 5.0
        assert task.sched_node is rq._rq[0]
        check_rq_invariants(rq)

    def test_pop_min_returns_smallest(self):
        rq = CFSScheduler()
        for key in (5, 1, 9, 3, 7):
            insert(rq, key)
        assert pop_min(rq) == 1
        assert pop_min(rq) == 3
        assert rq.nr_ready == 3
        check_rq_invariants(rq)

    def test_duplicate_keys_fifo(self):
        rq = CFSScheduler()
        first = insert(rq, 1.0, "first")
        second = insert(rq, 1.0, "second")
        assert rq.pick_next(0) is first
        assert rq.pick_next(0) is second

    def test_remove_specific_node(self):
        rq = CFSScheduler()
        tasks = {k: insert(rq, k) for k in (4, 2, 6, 1, 3, 5, 7)}
        rq.dequeue(tasks[4], 0)
        assert tasks[4].sched_node is None
        assert rq.nr_ready == 6
        assert keys(rq) == [1, 2, 3, 5, 6, 7]
        check_rq_invariants(rq)

    def test_remove_leftmost_updates_min(self):
        rq = CFSScheduler()
        tasks = {k: insert(rq, k) for k in (3, 1, 2)}
        rq.dequeue(tasks[1], 0)
        assert rq._rq[0][0] == 2
        assert pop_min(rq) == 2
        check_rq_invariants(rq)

    def test_items_in_order(self):
        rq = CFSScheduler()
        for k in (9, 1, 8, 2, 7, 3):
            insert(rq, k)
        assert keys(rq) == [1, 2, 3, 7, 8, 9]

    def test_ascending_insertions(self):
        rq = CFSScheduler()
        for k in range(100):
            insert(rq, k)
            check_rq_invariants(rq)
        assert rq.nr_ready == 100
        assert keys(rq) == list(range(100))

    def test_descending_insertions(self):
        rq = CFSScheduler()
        for k in reversed(range(100)):
            insert(rq, k)
        check_rq_invariants(rq)
        assert rq._rq[0][0] == 0
        assert keys(rq) == list(range(100))


@given(st.lists(st.tuples(st.sampled_from(["ins", "del"]),
                          st.integers(0, 30)), max_size=120))
@settings(max_examples=150, deadline=None)
def test_random_operations_preserve_invariants(ops):
    """Any interleaving of enqueues and dequeues keeps the runqueue sorted
    and matches a sorted-list reference model."""
    rq = CFSScheduler()
    tasks = []
    reference = []
    for op, key in ops:
        if op == "ins" or not tasks:
            tasks.append(insert(rq, key, f"t{len(reference)}"))
            reference.append(key)
        else:
            task = tasks.pop(key % len(tasks))
            rq.dequeue(task, 0)
            reference.remove(task.vruntime)
        assert rq.nr_ready == len(reference)
        check_rq_invariants(rq)
        assert keys(rq) == sorted(reference)


@given(st.lists(st.tuples(st.sampled_from(["ins", "del", "upd"]),
                          st.integers(0, 30)), max_size=150))
@settings(max_examples=150, deadline=None)
def test_insert_remove_update_sequences_preserve_invariants(ops):
    """The CFS usage pattern: a task's key (vruntime) is *updated* by
    dequeuing it and enqueuing it again under the new key.  Any
    interleaving of inserts, removes and updates must keep the runqueue
    sorted, match a reference model, and keep the minimum at the head."""
    rq = CFSScheduler()
    order = {}     # task -> insertion number of its current entry
    next_id = 0

    def by_position():
        return sorted(order, key=lambda t: (t.vruntime, order[t]))

    for op, key in ops:
        if op == "ins" or not order:
            order[insert(rq, key, f"task{next_id}")] = next_id
        elif op == "del":
            victim = by_position()[key % len(order)]
            rq.dequeue(victim, 0)
            del order[victim]
        else:  # upd: requeue under a new key, keeping the task
            victim = by_position()[key % len(order)]
            rq.dequeue(victim, 0)
            victim.vruntime = key + 0.5  # vruntime advanced
            rq.enqueue(victim, 0, wakeup=False)
            order[victim] = next_id
        next_id += 1
        assert rq.nr_ready == len(order)
        check_rq_invariants(rq)
        assert [e[2] for e in rq._rq] == by_position()
        if order:
            assert rq._rq[0][0] == min(t.vruntime for t in order)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=32), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_pop_min_yields_sorted_sequence(keys):
    rq = CFSScheduler()
    for k in keys:
        insert(rq, k)
    popped = []
    while rq.nr_ready:
        popped.append(pop_min(rq))
    assert popped == sorted(keys)
