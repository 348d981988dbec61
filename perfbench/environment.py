"""The environment block recorded with every run, and comparability.

Two results are comparable only when their fingerprints -- usable cores,
interpreter, numpy and BLAS builds, and the BLAS/OMP thread variables --
match, neither ran next to a heavy process, and a fixed host-speed probe
read within 10% on both sides.  The thread variables are recorded, never
set: unset (the library default) is what ``repro`` users get, and it is
what makes the sharded workload show BLAS oversubscription.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: CPU share above which another process counts as heavy.
HEAVY_CPU_PCT = 20.0
#: Relative difference of the host-speed probe beyond which two runs are
#: not comparable (shared virtual machines drift by tens of percent).
CALIBRATION_TOLERANCE = 0.10


def calibration_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value
        times.append((time.perf_counter() - started) * 1000.0)
    return sorted(times)[repeats // 2]


def _cpu_ticks() -> Dict[int, tuple]:
    ticks = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:  # the process ended while we looked
            continue
        name = stat[stat.index("(") + 1:stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2:].split()
        ticks[int(entry)] = (name, int(fields[11]) + int(fields[12]))
    return ticks


def heavy_processes(interval: float = 0.25) -> List[Dict]:
    """Other processes using more than ``HEAVY_CPU_PCT`` of a core."""
    if not os.path.isdir("/proc"):
        return []
    first = _cpu_ticks()
    time.sleep(interval)
    second = _cpu_ticks()
    hertz = os.sysconf("SC_CLK_TCK")
    heavy = []
    for pid, (name, ticks) in second.items():
        if pid == os.getpid() or pid not in first:
            continue
        share = 100.0 * (ticks - first[pid][1]) / hertz / interval
        if share > HEAVY_CPU_PCT:
            heavy.append({"pid": pid, "name": name, "cpu_pct": round(share, 1)})
    return heavy


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def before_run() -> Dict:
    return {
        "usable_cores": usable_cores(),
        "load_before": list(os.getloadavg()),
        "calibration_ms": calibration_ms(),
        "heavy_processes": heavy_processes(),
        "thread_variables": {key: os.environ.get(key) for key in THREAD_VARIABLES},
    }


def fingerprint(environment: Dict) -> Dict:
    """The fields two runs must share to be compared."""
    keys = ("usable_cores", "thread_variables", "numpy", "blas", "python")
    return {key: environment.get(key) for key in keys}


def comparability(left: Dict, right: Dict) -> List[str]:
    """Why two environment blocks are not comparable (empty: comparable)."""
    reasons = []
    a, b = fingerprint(left), fingerprint(right)
    for key in a:
        if a[key] != b[key]:
            reasons.append(f"{key}: {a[key]!r} vs {b[key]!r}")
    slow, fast = left.get("calibration_ms"), right.get("calibration_ms")
    if slow and fast and abs(fast / slow - 1.0) > CALIBRATION_TOLERANCE:
        reasons.append(f"host speed probe {slow:.2f} ms vs {fast:.2f} ms")
    for side, environment in (("left", left), ("right", right)):
        if environment.get("heavy_processes"):
            reasons.append(f"{side} ran next to heavy processes: "
                           f"{environment['heavy_processes']}")
    return reasons
