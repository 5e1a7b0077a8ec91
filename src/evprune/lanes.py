"""How a forward spreads over the process's CPUs: its lanes and BLAS's threads.

A forward holds one lock (``held``), under which it reads the thread
count of the OpenBLAS numpy calls once; the (get, set) pair is looked up
once, through a handle on numpy's own extension (``_blas_threads``). The
count is global to the process, so forwards run one at a time, and a
multi-lane forward never runs beside a raised count. That one number
decides, over the CPUs of the process's affinity mask:

- Lanes: one per CPU that BLAS leaves idle, at most half the attention
  blocks, and at least 1; a BLAS on every CPU (its default), without a
  getter or without a positive count gives one lane. With one block a
  lane, the lane with the short last block idles at the end of every
  layer's round: at n = 308 (blocks of 212 and 96 rows) two lanes spread
  the frame tail across benchmark runs about six times as wide as one
  lane on a shared 2-CPU machine.
- BLAS: a one-lane forward on fewer BLAS threads than CPUs raises the
  count to the CPUs for the whole call, the embedding and every layer,
  and restores it when the call ends, whether it returns or raises. A
  multi-lane forward and the merge leave BLAS as they find it: after its
  last threaded call, OpenBLAS's worker spins for about 0.12 s of CPU,
  which a multi-lane forward started next would lose to it.

``run`` steps the lanes, generators that yield where every lane must
finish a step before any starts the next, in rounds of a thread pool:
lane 0 on the calling thread, the others on pool threads, any of which
may resume any lane, each step under the caller's numpy error state. A
forward's lanes yield once per layer, after its queries, keys and
values, so a round attends over one layer and projects the next.
The pool's threads end before ``run`` returns, and one lane starts no
thread.
"""

import contextlib
import functools
import os
import threading

import numpy as np

# CPUs in the process's affinity mask, read once. BLAS's thread count is
# read by every forward (``held``), so a count set at run time is seen.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_FORWARD = threading.Lock()  # held by every forward while it runs

# (get, set) thread-count symbols of OpenBLAS builds, in the order tried:
# numpy's wheels, then OpenBLAS's own 64-bit-integer and plain builds.
_BLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy calls, or None.

    numpy's ``_multiarray_umath`` extension is opened by its file, and on
    that handle the loader resolves a symbol in the extension or a library
    it links: the pair is the first of ``_BLAS_SYMBOLS`` it resolves.
    Called by the first forward on more than one CPU, never at import."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for get_name, set_name in _BLAS_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def held(blocks: int):
    """Hold the forward lock and yield the lanes of a forward over ``blocks``
    attention blocks, from one reading of BLAS's count; a one-CPU process
    does not look BLAS up. A one-lane forward on fewer BLAS threads than
    CPUs runs BLAS on every CPU inside the block and gives it its count back."""
    with _FORWARD:
        blas = _blas_threads() if _CPUS > 1 else None
        count = blas[0]() if blas else _CPUS
        count = count if count > 0 else _CPUS
        lanes = max(1, min(_CPUS // count, blocks // 2))
        if lanes > 1 or count >= _CPUS:
            yield lanes
            return
        blas[1](_CPUS)
        try:
            yield lanes
        finally:
            blas[1](count)


def run(lanes: int, lane) -> None:
    """Step the generators ``lane(i)``, i < lanes, in rounds until lane 0's is
    exhausted. A round advances every lane to its next ``yield`` and ends when
    all have reached it; no step waits for another lane. Each step runs under
    this thread's numpy error state, read once here. The error of a round's
    first failing lane, in lane order, is raised here."""
    # Imported on first use, like scipy's erf extension in the encoder's GELU.
    from concurrent.futures import ThreadPoolExecutor

    errors = np.geterr()

    def advance(step) -> bool:
        with np.errstate(**errors):
            return next(step, False)

    steps = [lane(i) for i in range(lanes)]
    with ThreadPoolExecutor(max(1, lanes - 1)) as pool:
        while True:
            rest = [pool.submit(advance, step) for step in steps[1:]]
            more = advance(steps[0])
            for future in rest:
                future.result()
            if not more:
                return
