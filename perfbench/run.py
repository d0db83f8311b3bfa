"""Workload benchmark: CPU time, set-up time and memory of whole pgmcc
sessions, with an optional per-layer traced run.

    python3 perfbench/run.py --workload f7-join --seed 17 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each repetition runs in a fresh interpreter (``rep.py``), one after
another, until ``--seconds`` of wall time have passed (at least one).
With ``--trace 0`` the end-to-end metrics are the medians over the
repetitions.  With ``--trace 1`` untraced and traced repetitions
alternate; the per-layer metrics come from the traced repetition with
the median CPU time, and every traced session must reproduce the
untraced digest and counters exactly.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload name (see ``workloads.WORKLOADS``) -> the registry seed
#: used when ``--seed`` is absent.  The parent never imports the
#: program, so it can report a missing program cleanly.
WORKLOAD_SEEDS = {"f7-join": 17, "scale-1m": 101, "arena-matrix": 23}
#: A run must end within this many seconds of wall time.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pkt_hops_per_cpu_s": "hops/s",
}


class RepFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    """The program's own switches (``PGMCC_*``) are cleared so every
    repetition runs the defaults; one thread for numeric libraries."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGMCC_")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_rep(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed)] + (["--traced"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RepFailed(f"repetition exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RepFailed("repetition printed nothing")
    return json.loads(lines[-1])


def sum_counters(rep: dict) -> dict[str, int]:
    """The program's counters (``layers.COUNTERS``) summed over sessions."""
    total: dict[str, int] = {}
    for session in rep["sessions"]:
        for key, value in session["counters"].items():
            total[key] = total.get(key, 0) + value
    return total


def fingerprint(rep: dict) -> list[tuple]:
    return [(s["name"], s["digest"], tuple(sorted(s["counters"].items())))
            for s in rep["sessions"]]


def check(reps: list[dict], traced: list[dict]) -> list[str]:
    """Problems that make the run incorrect (failed sessions aside)."""
    problems = []
    reference = fingerprint(reps[0])
    for rep in reps[1:] + traced:
        if fingerprint(rep) != reference:
            problems.append("a repetition's digests or counters differ "
                            "from the first untraced repetition")
            break
    for rep in traced:
        total = sum(rep["self_s"].values())
        if abs(total - rep["cpu_s"]) > 1e-6 * max(1.0, rep["cpu_s"]):
            problems.append(f"layer self times sum to {total:.6f} s, "
                            f"traced cpu_s is {rep['cpu_s']:.6f} s")
    return problems


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Medians over repetitions; CPU times at reference host speed."""
    def median(fn):
        return statistics.median(fn(rep) for rep in reps)

    return {
        "cpu_s": median(lambda r: r["cpu_s"] * r["speed_factor"]),
        "setup_s": median(lambda r: r["setup_s"] * r["speed_factor"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "pkt_hops_per_cpu_s": median(
            lambda r: sum_counters(r)["link.hops"]
            / ((r["cpu_s"] - r["setup_s"]) * r["speed_factor"])),
    }


def per_layer(reps: list[dict], traced: list[dict]) -> dict[str, tuple]:
    rep = sorted(traced, key=lambda r: r["cpu_s"])[(len(traced) - 1) // 2]
    counts = sum_counters(rep)
    out: dict[str, tuple] = {key: (value, "count")
                             for key, value in counts.items()}
    out["engine.events_per_hop"] = (
        counts["engine.events"] / counts["link.hops"], "events/hop")
    out["routing.calls"] = (rep["routing_calls"]["run"], "count")
    for layer, seconds in rep["self_s"].items():
        out[f"{layer}.self_s"] = (seconds, "s")
    out["topology.setup_s"] = (rep["setup_self_s"]["topology"], "s")
    out["session.setup_s"] = (rep["setup_self_s"]["session"], "s")
    out["trace.cpu_s"] = (rep["cpu_s"], "s")
    out["trace.overhead_s"] = (
        rep["cpu_s"] - statistics.median(r["cpu_s"] for r in reps), "s")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    reps: list[dict] = []
    traced: list[dict] = []
    while True:
        reps.append(run_rep(workload, seed, False, remaining()))
        if trace:
            traced.append(run_rep(workload, seed, True, remaining()))
        if time.monotonic() - started >= seconds:
            break

    sessions = [s for rep in reps + traced for s in rep["sessions"]]
    failed = [s for s in sessions if s["error"] is not None]
    problems = check(reps, traced)

    print(f"workload {workload}, seed {seed}: {len(reps)} untraced and "
          f"{len(traced)} traced repetitions of {len(reps[0]['sessions'])} "
          f"session(s) each")
    for s in reps[0]["sessions"]:
        c = s["counters"]
        print(f"  {s['name']}: digest {s['digest']} engine.events "
              f"{c['engine.events']} link.hops {c['link.hops']}")
    for rep in reps:
        print(f"  repetition: raw cpu {rep['cpu_s']:.4f} s, raw set-up "
              f"{rep['setup_s']:.4f} s, speed factor {rep['speed_factor']:.4f} "
              f"({rep['speed_readings']} readings)")
    for s in failed:
        print(f"  FAILED {s['name']}: {s['error']}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    if trace:
        values = per_layer(reps, traced)
    else:
        values = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(reps).items()}
    print(f"  operations: {len(sessions)} attempted, {len(failed)} failed")
    for name, (value, unit) in values.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not failed and not problems,
        "attempted": len(sessions),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_SEEDS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the registry seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOAD_SEEDS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            seed = args.seed if args.seed is not None else WORKLOAD_SEEDS[name]
            results[name] = measure(name, seed, args.seconds, bool(args.trace))
    except RepFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        doc = results[names[0]]
    else:
        doc = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
