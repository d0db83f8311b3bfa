"""The benchmark's workloads: the sessions one repetition runs, each
with the oracle its result must meet.

One operation is one simulated session.  Every session is built from
the workload seed alone (``--seed``), through the program's public
experiment functions; nothing here reads or writes the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.experiments import arena, fig7_uncorrelated_loss, scalability
from repro.experiments.common import ExperimentResult
from repro.sweep import expand, load_spec

#: Simulated-duration scales, fixed so every repetition does the same
#: work for a given seed.
F7_SCALE = 0.5
HYBRID_RECEIVERS = 1_000_000
HYBRID_SCALE = 0.3
ARENA_SCALE = 0.5
ARENA_SPEC = Path("examples") / "sweeps" / "arena_matrix.toml"

#: An oracle returns ``None`` when the result is right, else why not.
Oracle = Callable[[ExperimentResult], Optional[str]]


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], ExperimentResult]
    check: Oracle


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int, Path], list[Op]]


def _f7_check(result: ExperimentResult) -> Optional[str]:
    m = result.metrics
    if not 0.5 < m["change_ratio"] < 2.0:
        return f"change_ratio {m['change_ratio']:.3f} outside (0.5, 2)"
    if not m["tcp_after"] > 0.5 * m["tcp_before"]:
        return (f"tcp_after {m['tcp_after']:.0f} <= half of "
                f"tcp_before {m['tcp_before']:.0f}")
    if not m["rdata_sent"] < m["odata_sent"]:
        return f"rdata_sent {m['rdata_sent']} >= odata_sent {m['odata_sent']}"
    return None


def _f7_ops(seed: int, root: Path) -> list[Op]:
    def run() -> ExperimentResult:
        return fig7_uncorrelated_loss.run(scale=F7_SCALE, seed=seed)
    return [Op(f"fig7/seed={seed}", run, _f7_check)]


def _hybrid_check(result: ExperimentResult) -> Optional[str]:
    label = f"hyb{HYBRID_RECEIVERS}"
    violations = result.metrics[f"{label}:invariant_violations"]
    if violations:
        return f"{violations} invariant violations"
    if not result.metrics[f"{label}:rate"] > 0:
        return "zero goodput"
    return None


def _hybrid_ops(seed: int, root: Path) -> list[Op]:
    def run() -> ExperimentResult:
        return scalability.run_hybrid_cell(n=HYBRID_RECEIVERS,
                                           scale=HYBRID_SCALE, seed=seed)
    return [Op(f"hybrid/n={HYBRID_RECEIVERS},seed={seed}", run, _hybrid_check)]


def _arena_check(result: ExperimentResult) -> Optional[str]:
    m = result.metrics
    if m["invariant_violations"]:
        return f"{m['invariant_violations']} invariant violations"
    params = result.params
    if (params["controller"], params["scenario"]) == ("pgmcc", "clean-tcp"):
        if not m["in_envelope"]:
            return (f"pgmcc fairness ratio {m['fairness_ratio']:.3f} outside "
                    f"{arena.PGMCC_FAIRNESS_ENVELOPE}")
    return None


def _arena_ops(seed: int, root: Path) -> list[Op]:
    ops = []
    for task in expand(load_spec(root / ARENA_SPEC)):
        func = task.spec.resolve()
        kwargs = {**task.spec.call_kwargs(ARENA_SCALE), "seed": seed}
        ops.append(Op(f"{task.id},seed={seed}",
                      lambda func=func, kwargs=kwargs: func(**kwargs),
                      _arena_check))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("f7-join", _f7_ops),
    Workload("scale-1m", _hybrid_ops),
    Workload("arena-matrix", _arena_ops),
)}
