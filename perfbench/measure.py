"""Statistics, host fingerprint and memory probes for the benchmark."""

from __future__ import annotations

import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from time import perf_counter, thread_time

#: Fewest samples a reported percentile must have beyond it.
MIN_TAIL = 10


def percentile(samples, p: float) -> float:
    """The *p*-th percentile (nearest rank) of *samples*.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL` samples
    lie beyond it, so a reported tail is never one or two outliers.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0 or n * (100.0 - p) / 100.0 < MIN_TAIL:
        raise ValueError(
            f"p{p:g} of {n} samples has fewer than {MIN_TAIL} beyond it")
    rank = max(1, math.ceil(p / 100.0 * n))
    return ordered[rank - 1]


def median(samples) -> float:
    """Plain median; 0.0 for no samples (a layer that did no work)."""
    return statistics.median(samples) if samples else 0.0


#: Iterations of the calibration loop, and its seconds on the reference
#: host (a 2-core Xeon with Python 3.11.7).  That host's speed drifts by
#: +-20% within minutes, so the sim workloads scale host times by the
#: reference over the loop's time measured around each job.
CALIBRATION_ITERS = 50_000
REFERENCE_CALIBRATION_S = 0.005


def calibration_sample(clock=perf_counter) -> float:
    """Seconds of one run of a fixed pure-Python loop (a speed probe),
    as *clock* counts them."""
    t0 = clock()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc = (acc * 31 + i) & 0xFFFF_FFFF
    return clock() - t0


def calibrate(seconds: float = 1.0) -> float:
    """Median seconds of the calibration loop, sampled for *seconds*."""
    samples = []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        samples.append(calibration_sample())
    return statistics.median(samples)


#: Seconds a HostSampler waits between samples: about 2.5% of one core.
SAMPLER_INTERVAL_S = 0.2


class HostSampler:
    """Times the calibration loop in a child process, every
    :data:`SAMPLER_INTERVAL_S`, while a workload runs in other processes.

    A sample is timed in the sampler's own CPU time, which leaves out the
    time it waited for a core.  So it follows how fast the host runs the
    loop, not how busy the workload keeps the cores.  The host's cores
    flip between a fast and a slow speed many times a second, and the
    mean over a window follows the share of it they ran slow.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--sample"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop(self) -> list:
        """End the sampler; its samples as ``(perf_counter, seconds)``."""
        try:
            out, _ = self.proc.communicate("", timeout=30)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        return [tuple(map(float, line.split())) for line in out.splitlines()]


def window_scale(samples: list, start: float, end: float) -> float:
    """Reference calibration time over the mean of the samples taken
    between *start* and *end* (``perf_counter`` times)."""
    inside = [seconds for t, seconds in samples if start <= t <= end]
    if not inside:
        raise ValueError("no host sample fell in the window")
    return REFERENCE_CALIBRATION_S / statistics.fmean(inside)


def _sample_until_stdin_closes() -> None:
    lines = []
    while True:
        seconds = calibration_sample(thread_time)
        lines.append(f"{perf_counter():.6f} {seconds:.9f}")
        ready, _, _ = select.select([sys.stdin], [], [], SAMPLER_INTERVAL_S)
        if ready:
            break
    print("\n".join(lines))


def host_fingerprint() -> dict:
    """CPU model, core count, Python version and a calibration time."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": calibrate(0.25),
    }


#: Fingerprint fields that must match for two records to be compared.
FINGERPRINT_KEYS = ("cpu_model", "nproc", "python")


def check_comparable(a: dict, b: dict) -> None:
    """Raise ``ValueError`` unless result records *a* and *b* come from
    hosts with the same fingerprint."""
    fa, fb = a.get("host"), b.get("host")
    if not fa or not fb:
        raise ValueError("a record carries no host fingerprint")
    diff = [k for k in FINGERPRINT_KEYS if fa.get(k) != fb.get(k)]
    if diff:
        raise ValueError(
            "records come from different hosts ("
            + ", ".join(f"{k}: {fa.get(k)!r} vs {fb.get(k)!r}" for k in diff)
            + "); refusing to compare")


def self_peak_rss_mib() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(root: int) -> list:
    """*root* and all its live descendants' pids (from ``/proc``)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        parents.setdefault(int(fields[1]), []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(parents.get(pid, ()))
    return tree


def peak_rss_mib(pid: int) -> float:
    """Peak RSS (``VmHWM``) of one live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


if __name__ == "__main__":
    if sys.argv[1:] != ["--sample"]:
        raise SystemExit("usage: measure.py --sample  (HostSampler's child)")
    _sample_until_stdin_closes()
