"""Independent work dealt across the CPUs the process may run on.

run_split is the package's only thread code.  The group Fourier transform
deals blocks of consecutive node pairs (-k, k) through it, whose nodes
share a z product and a pair's phase tables, and the rows of its
inverse's z product; the dual convolution deals the node pairs, whose
terms share their ratios.  Each worker
gets a fixed share, items[w::workers], so which worker computes an item
depends only on the worker count, and callers that keep each item's
arithmetic inside one worker get the same bits on any core count.  The
calling thread runs worker 0, so a one-item call starts no thread.
numpy and BLAS release the GIL in the heavy calls.  The split expects a
single-threaded BLAS: a BLAS thread pool would contend with the workers
for the same cores.
"""

from __future__ import annotations

import os
import threading


def _worker_count(n_items: int) -> int:
    """The CPUs this process may run on, capped at n_items."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_items))


def run_split(items, work, scratch) -> None:
    """Call work(items[w::workers], *scratch()) for every worker w, one thread each.

    workers is _worker_count(len(items)).  scratch() runs in the calling
    thread, once per worker, before any thread starts.  It holds what a
    worker writes per node or term and the state that several of them share,
    such as a block's z sums, a node pair's phase tables or a ratio's
    Dirichlet rows; the arithmetic that builds that state uses plain
    temporaries.  A large array that a worker allocates itself sits in its
    per-thread malloc arena, and glibc raises its mmap threshold to the size
    of each freed mmapped block up to 32 MB, so later arrays of the same
    size stay resident there too.  So such buffers are scratch: at the
    transform benchmark's scale a forward block's z sums take 3 MB per
    worker, and the benchmark's peak RSS went from 271.1 to 270.0-270.2 MB
    when they replaced the whole lattice's 50 MB z table of the calling
    thread; with each worker allocating its block's z sums itself it read
    274.4 and 278.4 MB.  The temporaries are small and freed at once.  An
    exception in any worker is raised here once every worker has stopped,
    so a caller never sees a partly written result.
    """
    items = list(items)
    workers = _worker_count(len(items))
    args = [(items[w::workers], *scratch()) for w in range(workers)]
    errors = []

    def run(share_args):
        try:
            work(*share_args)
        except BaseException as exc:
            errors.append(exc)

    started = []
    try:
        for share_args in args[1:]:
            thread = threading.Thread(target=run, args=(share_args,))
            thread.start()
            started.append(thread)
        run(args[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
