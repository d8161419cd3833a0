"""The host record, and the correction of measured times for host speed.

The benchmark runs on small shared hosts whose speed changes from one
second to the next as other tenants' load comes and goes: a fixed 10 ms
loop reads anywhere from 8 to 17 ms, and one minute's mean differs from
the next by a fifth. A time measured on such a host says as much about
the host as about the program. So all through a run the benchmark times
a fixed probe that does not touch apgf, and scales the run's times by
how fast the probe ran: a time is reported as it would read on a host
where the probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import signal
import statistics
import time
from pathlib import Path

import numpy as np

# The probe's time on the host the benchmark was built on when that host
# ran fast; a fixed constant, so corrected times compare across runs.
PROBE_REF_S = 0.007
# The probe runs this often, so about a tenth of a run is probing.
PROBE_INTERVAL_S = 0.1

# A fixed 12-node graph, a ring with chords, for an exhaustive path search.
_PROBE_GRAPH = [sorted({(i + 1) % 12, (i - 1) % 12, (i + 5) % 12}) for i in range(12)]
_PROBE_DOC = {"rows": [[i / 7.0, i * 3, f"n{i}"] for i in range(300)]}


def _paths(node: int, seen: set, depth: int) -> int:
    if depth == 0:
        return 1
    count = 1
    for nxt in _PROBE_GRAPH[node]:
        if nxt not in seen:
            seen.add(nxt)
            count += _paths(nxt, seen, depth - 1)
            seen.discard(nxt)
    return count


def probe() -> float:
    """Seconds for a fixed piece of the kind of work apgf's time goes to:
    pure-Python search with sets and recursion, as in its oracle and its
    decoding loop, and a JSON round trip, as in its checkpoints and
    caches. It does not touch apgf.

    Pure-Python work was chosen because it slows with the host's load in
    about the proportion apgf does. Over 19 eight-second spans the
    median 3-epoch train call moved with this search's time to the power 1.06
    and greedy inference on 600-700 node graphs to the power 0.85, where
    small numpy calls, a matrix product or a pass over memory gave
    powers near 2: they feel the host's load less than apgf does, and
    would under-correct."""
    started = time.perf_counter()
    for start in range(9):
        _paths(start, {start}, 11)
    json.loads(json.dumps(_PROBE_DOC))
    return time.perf_counter() - started


def _other_activity() -> str | None:
    """What else of this process could be using the host while it is
    probed: a second thread or a child process. None when there is none,
    or when /proc cannot tell."""
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return None
    if len(tasks) > 1:
        return f"{len(tasks)} threads"
    try:
        children = Path(f"/proc/self/task/{tasks[0]}/children").read_text().split()
    except OSError:
        return None
    return f"child processes {' '.join(children)}" if children else None


class HostSpeed:
    """Probes taken all through a run, and the correction they give.

    While ``sampling`` is on, a timer signal runs the probe every
    PROBE_INTERVAL_S, in this thread, between two Python instructions of
    whatever is running, apgf's calls included. The probes thus sample
    the host evenly in time, inside long calls as well as between calls.
    ``clock`` leaves the probes' time out, so an operation timed with it
    costs what it would without them.

    The correction is one factor for the whole run: PROBE_REF_S over the
    median probe time. What moves from one run to the next is the host's
    speed over the run; a correction per operation, from the few probes
    next to it, was tried and only added their noise.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []  # seconds each probe took
        self.spent_s = 0.0  # time spent probing
        self._probing = False

    def clock(self) -> float:
        """perf_counter without the time spent probing."""
        while True:
            spent = self.spent_s
            now = time.perf_counter()
            if spent == self.spent_s:  # no probe ran in between
                return now - spent

    def _on_timer(self, signum, frame) -> None:
        if self._probing:
            return
        self._probing = True
        started = time.perf_counter()
        self.probes.append(probe())
        self.spent_s += time.perf_counter() - started
        self._probing = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def check_alone() -> None:
        """Raise if a thread or a child process outlived a call: work it
        did in the background would slow the probe, not the program."""
        activity = _other_activity()
        if activity is not None:
            raise RuntimeError(f"{activity} outlived a call, so the host probe would be skewed")

    def scale(self) -> float:
        """The factor that brings this run's times to the reference host
        speed."""
        return PROBE_REF_S / statistics.median(self.probes)


# -- the host record -------------------------------------------------------


def probe_reading() -> float:
    """The median of a few probes, for the record before and after a run."""
    return statistics.median(probe() for _ in range(9))


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """OpenBLAS version from numpy's build record, and its live thread
    count from the loaded library."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    threads = None
    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
    except OSError:
        libs = set()
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return version, threads


def host_info() -> dict:
    from apgf import oracle

    version, threads = _blas()
    workers = getattr(oracle, "worker_count", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": version,
        "blas_threads": threads,
        "oracle_workers": workers() if workers is not None else "absent",
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }
