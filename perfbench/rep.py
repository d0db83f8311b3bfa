"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload f7-join --seed 17 [--traced]

Runs the workload's sessions one after another in this process (one
thread, no worker pool, no result cache) and prints one JSON line:
the repetition's CPU time, set-up time, host speed readings, peak RSS,
and per session its result digest, public counters and oracle verdict.
With ``--traced`` the per-layer self times of :mod:`layers` are added.
``run.py`` starts one of these per repetition; run it by hand only to
debug a workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seconds between two host speed readings.
SPEED_INTERVAL_S = 0.05
#: Iterations of the reading's fixed loop.
SPEED_LOOP = 800
#: The loop's time on the reference host: CPU times are reported as
#: seconds on a host that runs the loop this fast.
SPEED_REFERENCE_S = 0.45e-3


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: list) -> None:
        self.key = key
        self.value = value


def _speed_loop() -> int:
    """Object allocation, attribute stores and dict inserts: the kind of
    work the simulator does, so contention slows both alike."""
    table = {}
    for i in range(SPEED_LOOP):
        table[i] = _Cell(i, [i])
    return len(table)


class SpeedProbe:
    """Times a fixed Python loop every ``SPEED_INTERVAL_S`` while the
    workload runs (a ``SIGALRM`` handler on the wall-clock interval
    timer: a CPU-time timer would make the kernel account process CPU
    time in whole scheduler ticks).

    On a shared host the CPU time of identical work drifts with the load
    of neighbouring tenants; each reading gives the speed of the slice
    of time it closes, and ``run.py`` scales CPU times by their
    mean (:meth:`factor`).  ``spent`` is the time the readings took
    themselves, which is taken off the workload's CPU time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _read(self, signum, frame) -> None:
        # With the collector off, the loop's objects are freed before
        # any collection could run, so the workload's collection
        # schedule is the same as without readings.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _speed_loop()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def cpu_time(self) -> float:
        """Process CPU time less the time the readings took."""
        return time.process_time() - self.spent

    def factor(self) -> float | None:
        """Reference-host seconds per CPU second: the mean over the
        readings, each covering an equal slice of the run."""
        if not self.samples:
            return None
        return statistics.fmean(SPEED_REFERENCE_S / dt for dt in self.samples)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    from layers import Probe, Tracer
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload].ops(args.seed, ROOT)
    speed = SpeedProbe()
    probe = Probe(clock=speed.cpu_time)
    probe.install()
    tracer = None
    if args.traced:
        # Readings would land inside the spans, so a traced repetition
        # takes none; run.py compares its raw CPU time only.
        tracer = Tracer()
        tracer.install()
        probe.on_run_start.append(lambda: tracer.switch("run"))

    sessions = []
    if tracer:
        start = tracer.reset()
    else:
        speed.start()
        start = speed.cpu_time()
    for op in ops:
        probe.begin()
        if tracer:
            tracer.switch("setup")
        t0 = speed.cpu_time()
        error = None
        digest = None
        try:
            result = op.run()
            digest = result.digest()
            error = op.check(result)
        except Exception as exc:  # one failed session must not stop the rest
            traceback.print_exc(file=sys.stderr)
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = speed.cpu_time()
        violations = probe.invariant_violations()
        if error is None and violations:
            error = f"{violations} invariant violations"
        run_started = probe.run_started if probe.run_started is not None else t1
        sessions.append({
            "name": op.name,
            "digest": digest,
            "error": error,
            "setup_s": run_started - t0,
            "counters": probe.counters(),
        })
    if tracer:
        end = tracer.close()
    else:
        end = speed.cpu_time()
        speed.stop()

    out = {
        "cpu_s": end - start,
        "setup_s": sum(s["setup_s"] for s in sessions),
        "speed_factor": speed.factor(),
        "speed_readings": len(speed.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sessions": sessions,
    }
    if tracer:
        out["self_s"] = tracer.self_times()
        out["setup_self_s"] = tracer.self_times("setup")
        out["routing_calls"] = {phase: calls.get("routing", 0)
                                for phase, calls in tracer.entries.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
