"""Correcting host times for machine contention.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, as neighbours come and go.  Every timed sample is
therefore paired with a run of a small calibration kernel — a toy event
loop in plain Python that imports nothing from ``repro``, so no change to
the simulator can move it — and scaled by

    corrected = measured * (KERNEL_REF_S / kernel_s) ** KERNEL_ALPHA

``kernel_s`` is the mean of the kernel runs just before and just after
the sample (for a campaign, also of those run while it goes).  The kernel slows down more than the simulator does under the
same contention: on the 2-vCPU Xeon VM the benchmark was built on, a
kernel slowdown of ``f`` went with ``f ** 0.7`` (chain_sweep,
cluster_flash) to ``f ** 0.8`` (variable_cost) in the workloads, hence
the exponent.  There, over five minutes of 15-second windows, it cut the
spread (quartile distance / median) of grid times from 28%, 24% and 44%
to 2.4%, 3.7% and 5.0%.  ``KERNEL_REF_S`` (the kernel's time on that
machine when quiet) only keeps corrected values near real seconds.
"""

import gc
import heapq
import time

KERNEL_REF_S = 0.006
KERNEL_ALPHA = 0.75


class _Task:
    __slots__ = ("name", "vruntime", "weight", "queue", "done")

    def __init__(self, name, weight):
        self.name = name
        self.vruntime = 0.0
        self.weight = weight
        self.queue = []
        self.done = 0

    def run(self, budget):
        queue = self.queue
        n = 0
        while queue and n < budget:
            queue.pop()
            n += 1
        self.done += n
        self.vruntime += n * 1024.0 / self.weight
        return n


def _kernel(events=1500, tasks=64):
    """A fixed toy discrete-event loop shaped like the simulator's hot path:
    heap pops and pushes, method calls on slotted objects, dict counters."""
    pool = [_Task(f"t{i}", 512 + (i * 97) % 1024) for i in range(tasks)]
    heap = [(i * 13 % 101, i, pool[i]) for i in range(tasks)]
    heapq.heapify(heap)
    stats = {}
    seq = tasks
    for _ in range(events):
        now, _seq, task = heapq.heappop(heap)
        task.queue.extend(range((seq * 7) % 40))
        ran = task.run(32)
        key = (task.name, ran > 16)
        stats[key] = stats.get(key, 0) + ran
        seq += 1
        heapq.heappush(heap, (now + 1 + (seq * 31 + ran) % 257, seq, task))
    return sum(task.done for task in pool)


def kernel_seconds():
    """CPU time of one kernel run on this thread, with the garbage collector
    held off so the simulator's heap size cannot reach into it.  CPU time,
    not wall: while a campaign's workers keep every core busy, the kernel
    must measure how fast the machine runs code, not how long it queued."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _kernel()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def corrected(seconds, kernel_s):
    """``seconds`` measured next to a kernel run of ``kernel_s``."""
    return seconds * (KERNEL_REF_S / kernel_s) ** KERNEL_ALPHA
