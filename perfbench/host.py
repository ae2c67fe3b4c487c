"""Host record and copy-bandwidth probe.

Run as a script, this module measures numpy copy bandwidth with the
working set inside the last-level cache and far outside it, and prints one
JSON object.  ``run.py`` starts it as a child process at the start and at
the end of every run, so the probe's ~1 GiB of arrays never counts towards
the benchmark process's peak resident set size.

The two figures are the run's drift indicator (the shared host's speed
moves in phases of about ten seconds) and the roofline denominator of the
kernel metrics.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

#: In-cache working set: source plus destination stay well inside the LLC
#: but outside the per-core L2.
L3_ARRAY_BYTES = 8 << 20
#: DRAM working set: each array is at least four times the LLC of the
#: reference host (105 MiB), as a bandwidth measurement needs.
DRAM_ARRAY_BYTES = 448 << 20

PROBE_TIMEOUT_S = 120


def _copy_gbps(nbytes: int, repeats: int) -> float:
    """Median read-plus-write GB/s of ``np.copyto`` over ``repeats`` copies.

    The first copy pays the destination's page faults and is not counted.
    """
    import numpy as np

    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * nbytes / statistics.median(times) / 1e9


def probe() -> dict:
    """Measure in-LLC and DRAM copy bandwidth in this process."""
    return {
        "l3_copy_gbps": _copy_gbps(L3_ARRAY_BYTES, 60),
        "dram_copy_gbps": _copy_gbps(DRAM_ARRAY_BYTES, 4),
        "l3_array_bytes": L3_ARRAY_BYTES,
        "dram_array_bytes": DRAM_ARRAY_BYTES,
    }


def probe_in_child(cwd: str) -> dict:
    """Run :func:`probe` in a child interpreter and wait for it to end."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         cwd=cwd, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    text = out.stdout.strip()
    return int(text) if out.returncode == 0 and text.isdigit() else None


def _compiler_version() -> str | None:
    for name in ("cc", "gcc", "clang"):
        try:
            out = subprocess.run([name, "--version"], capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if out.returncode == 0 and out.stdout:
            return out.stdout.splitlines()[0].strip()
    return None


def host_record() -> dict:
    """Cores, cache sizes, compiler and library versions of this host."""
    import numpy
    import scipy

    caches = {name.lower(): _getconf(name) for name in (
        "LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")}
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "compiler": _compiler_version(),
        "cache_bytes": caches,
    }


if __name__ == "__main__":
    print(json.dumps(probe()))
