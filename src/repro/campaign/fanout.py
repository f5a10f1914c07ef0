"""The single fork fan-out path of the measurement plane.

Every parallel campaign in the repository — the engine's round-chunked
WAN grids, its traceroute sweeps, and the rank-sliced §2.1 dataset
shards — funnels through :func:`fork_map`.  The discipline it encodes
(inherited from the PR 1 WAN fork and the PR 2 dataset shards it
subsumes) is:

* workers are **forked**, never spawned: the fully built world reaches
  the children by copy-on-write, nothing heavy is pickled, and the
  closures the world holds (dynamic DNS answer functions) never cross
  a process boundary;
* the callable runs over a contiguous index range and results come
  back **in index order**, so merges are deterministic;
* platforms without ``fork`` fall back to in-process execution, which
  is bit-identical by construction;
* a worker that dies (killed by a signal or the OOM killer) fails the
  call with a :class:`RuntimeError` naming the lost tasks, never a
  hang;
* every task runs in **its own fork**, made from the calling thread
  with no helper thread alive, so each task starts from the parent's
  state at the call and never from a copy an earlier task mutated.  A
  reused pool worker would break that: a rank chunk of the §2.1 build
  must dig in a pristine copy-on-write world.

Nothing is pickled on the way in: the work callable (usually a closure
over campaign state) stays in the parent's memory image and reaches
each child through the fork.  Only results, and task errors, travel
back, one pipe per task.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Callable, Dict, List, Sequence, Tuple

from repro.sim import fork_pool_available


class _RemoteTraceback(Exception):
    """The formatted traceback of a task error raised in a child."""

    def __str__(self) -> str:
        return self.args[0]


def _run_task(fn: Callable[[int], object], index: int, writer) -> None:
    """Child side of one task: run it and send back the outcome."""
    try:
        outcome = (True, fn(index), "")
    except Exception as error:  # re-raised in the parent
        outcome = (False, error, traceback.format_exc())
    try:
        writer.send(outcome)
    except Exception as error:  # an unpicklable result or error
        writer.send((
            False,
            RuntimeError(f"task {index}'s outcome cannot be sent: {error!r}"),
            traceback.format_exc(),
        ))
    writer.close()


def partition(count: int, shards: int) -> List[Tuple[int, int]]:
    """Near-equal contiguous ``[lo, hi)`` index slices, in order."""
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds


def partition_weighted(
    weights: Sequence[float], shards: int
) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` slices with near-equal total *weight*.

    :func:`partition` balances task counts, which skews wall-clock when
    per-task cost varies by orders of magnitude — at paper scale a few
    AXFR-able domains carry thousands of subdomains while most carry a
    handful, so an equal-count shard can hold most of the bytes.  This
    variant cuts after the item where the running weight crosses each
    ``i/shards`` quantile of the total, keeping every slice non-empty
    and leaving at least one item for each remaining slice.  Slices are
    contiguous and in order, so any consumer of :func:`partition` can
    switch without changing merge semantics.  Uniform weights degrade
    to :func:`partition`'s balance (same slice-size multiset; the +1
    remainders may land on different shards), and a non-positive total
    falls back to :func:`partition` itself.
    """
    count = len(weights)
    if count == 0:
        return []
    shards = max(1, min(shards, count))
    total = float(sum(weights))
    if shards == 1 or total <= 0.0:
        return partition(count, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    cum = 0.0
    emitted = 0
    for index, weight in enumerate(weights):
        cum += float(weight)
        if emitted >= shards - 1:
            break
        remaining = count - (index + 1)
        needed = shards - emitted - 1
        # Cut at the quantile crossing — or immediately, when every
        # remaining item is needed to keep the later slices non-empty
        # (weight piled at the tail would otherwise shrink the fan-out).
        if remaining < needed:
            continue
        if remaining == needed or cum >= total * (emitted + 1) / shards:
            bounds.append((lo, index + 1))
            lo = index + 1
            emitted += 1
    bounds.append((lo, count))
    return bounds


def fork_map(
    fn: Callable[[int], object], count: int, workers: int,
    force_fork: bool = False,
) -> List[object]:
    """Run ``fn(0) .. fn(count - 1)`` in forked children, in order.

    Each call gets a fresh fork of the parent, at most ``workers`` of
    them alive at once.  ``fn`` must be self-contained under fork
    semantics: whatever state it closes over is copied into the child
    at fork time and mutations never propagate back — results must
    carry everything the parent needs to reconcile.  With
    ``workers <= 1``, ``count <= 1``, or no fork support, the calls run
    in-process instead.

    ``force_fork=True`` forks even for a single worker or task — for
    callers that rely on fork *isolation* rather than parallelism (the
    streaming chunked build must keep the parent world unmutated by a
    chunk's digs).  It cannot conjure fork support: when the platform
    has none the calls still run in-process, so such callers must gate
    on :func:`repro.sim.fork_pool_available` themselves.

    An exception raised by ``fn`` re-raises here (the lowest failing
    index, with the child's traceback as its cause).  A child that dies
    mid-task raises :class:`RuntimeError` listing every task left
    without a result, the killed one among them.  After either failure
    no further task starts.
    """
    if count <= 0:
        return []
    workers = min(workers, count)
    if not fork_pool_available() or (workers <= 1 and not force_fork):
        return [fn(index) for index in range(count)]
    workers = max(1, workers)
    # Imported here: most runs never fork.
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    results: Dict[int, object] = {}
    errors: Dict[int, Tuple[Exception, str]] = {}
    lost: List[int] = []
    running: Dict[object, Tuple[int, object]] = {}
    started = 0
    try:
        while True:
            # Fork a task per free worker slot; once one has failed,
            # start no more.
            while (
                started < count and len(running) < workers
                and not (errors or lost)
            ):
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=_run_task, args=(fn, started, writer)
                )
                process.start()
                # The child holds the only write end, so its death
                # reads as end-of-file here.
                writer.close()
                running[reader] = (started, process)
                started += 1
            if not running:
                break
            for reader in wait(list(running)):
                index, process = running.pop(reader)
                try:
                    ok, payload, remote = reader.recv()
                except EOFError:
                    lost.append(index)
                else:
                    if ok:
                        results[index] = payload
                    else:
                        errors[index] = (payload, remote)
                finally:
                    reader.close()
                    process.join()
    finally:
        for reader, (_, process) in running.items():
            process.terminate()
            process.join()
            reader.close()
    if errors:
        error, remote = errors[min(errors)]
        raise error from _RemoteTraceback(remote)
    if lost:
        lost = sorted(lost) + list(range(started, count))
        raise RuntimeError(
            f"fork fan-out lost tasks {lost} of {count}: a worker "
            f"process died (killed by a signal or out of memory)"
        )
    return [results[index] for index in range(count)]
