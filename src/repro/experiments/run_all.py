"""The built-in experiment registry + the sequential CLI entry point.

Usage::

    python -m repro.experiments.run_all [runner flags]

This module is a thin delegate to the ``repro.runner`` CLI — one flag
set for both entry points (``pgmcc-experiments`` accepts exactly what
``pgmcc-runner`` accepts).

The experiments themselves are registered with
:func:`~repro.experiments.registry.register_experiment` below — one
spec per figure, extension and ablation of the report, each with its
declared parameter schema.  Third-party experiments register through
the same API without editing this file; ``REGISTRY`` is a read-only
live view of the result (report entries, registration order).

For programmatic sequential runs, :func:`main` executes the registry
in-process with failure isolation and prints the classic report.
"""

from __future__ import annotations

import sys

from .common import ExperimentSpec, ParamSpec
from .registry import RegistryView, register_experiment, registered_specs

_SEED = ParamSpec("seed", "int", low=0, help="deterministic RNG seed")
_CONTROLLERS = ParamSpec(
    "controllers", "seq",
    help="subset of registered controller backends (default: all)")

#: Built-in experiments, registered in report order.  A spec is
#: spawn-safe (module/func strings, no callables); ``repro.runner``
#: shards the registry across a worker pool, :func:`main` runs it
#: sequentially in-process.
_BUILTIN_SPECS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec("EXP-F2", "repro.experiments.fig2_loss_filter",
                   description="Fig. 2: loss-rate filter at receivers"),
    ExperimentSpec("EXP-F3", "repro.experiments.fig3_intra_fairness",
                   description="Fig. 3: intra-protocol fairness"),
    ExperimentSpec("EXP-F4", "repro.experiments.fig4_inter_fairness",
                   description="Fig. 4: inter-protocol fairness vs TCP"),
    ExperimentSpec("EXP-F5", "repro.experiments.fig5_acker_selection",
                   description="Fig. 5: acker selection/tracking plateaus"),
    ExperimentSpec("EXP-F6", "repro.experiments.fig6_heterogeneous_rtt",
                   description="Fig. 6: heterogeneous RTTs + NE suppression"),
    ExperimentSpec("EXP-F7", "repro.experiments.fig7_uncorrelated_loss",
                   description="Fig. 7: 50 receivers with uncorrelated loss"),
    ExperimentSpec("EXP-UNREL", "repro.experiments.unreliable_mode",
                   description="unreliable mode: cc without repairs"),
    ExperimentSpec("EXP-FEC", "repro.experiments.fec_scaling", scale_factor=0.5,
                   description="FEC redundancy ladder vs RDATA repair"),
    ExperimentSpec("EXP-DTZ", "repro.experiments.drop_to_zero", scale_factor=0.5,
                   kwargs=(("group_sizes", (1, 10, 40)),),
                   params=(ParamSpec("group_sizes", "seq",
                                     default=(1, 10, 40),
                                     help="receiver-group sizes to compare"),),
                   description="drop-to-zero: feedback aggregation collapse"),
    ExperimentSpec("ABL-C", "repro.experiments.ablations", "run_switch_bias",
                   scale_factor=0.5, description="ablation: acker switch bias c"),
    ExperimentSpec("ABL-RTT", "repro.experiments.ablations", "run_rtt_mode",
                   scale_factor=0.5, description="ablation: time vs seq RTT mode"),
    ExperimentSpec("ABL-DUP", "repro.experiments.ablations", "run_dupack",
                   scale_factor=0.5, description="ablation: dupack threshold"),
    ExperimentSpec("ABL-SS", "repro.experiments.ablations", "run_ssthresh",
                   scale_factor=0.5, description="ablation: initial ssthresh"),
    ExperimentSpec("ABL-NE", "repro.experiments.ablations", "run_ne_suppression",
                   scale_factor=0.5, description="ablation: NE NAK suppression"),
    ExperimentSpec("ABL-MODEL", "repro.experiments.ablations", "run_throughput_model",
                   scale_factor=0.5, description="ablation: RTT^2*p throughput models"),
    ExperimentSpec("ABL-ADSS", "repro.experiments.ablations", "run_adaptive_ssthresh",
                   scale_factor=0.5, description="ablation: adaptive ssthresh"),
    ExperimentSpec("ABL-TFRC", "repro.experiments.ablations", "run_loss_estimator",
                   scale_factor=0.5, description="ablation: loss filter vs TFRC estimator"),
    ExperimentSpec("EXP-MPATH", "repro.experiments.robustness", "run_multipath",
                   scale_factor=0.5, description="robustness: multipath reordering"),
    ExperimentSpec("EXP-CHURN", "repro.experiments.robustness", "run_churn",
                   scale_factor=0.5, description="robustness: receiver churn"),
    ExperimentSpec("ABL-BURST", "repro.experiments.robustness", "run_bursty_loss",
                   scale_factor=0.5, description="robustness: bursty (Gilbert) loss"),
    ExperimentSpec("EXP-CHAOS", "repro.experiments.robustness", "run_chaos",
                   scale_factor=0.5, description="chaos: scripted faults + invariants"),
    ExperimentSpec("EXP-ADV", "repro.experiments.adversarial", scale_factor=0.5,
                   description="adversarial: misbehaving receivers vs guard"),
    ExperimentSpec("ABL-DELACK", "repro.experiments.ablations", "run_delayed_acks",
                   scale_factor=0.5, description="ablation: TCP delayed ACKs"),
    ExperimentSpec("EXP-SWEEP", "repro.experiments.fairness_sweep", scale_factor=0.5,
                   description="fairness over the 4.3 configuration grid"),
    ExperimentSpec("EXP-SCALE", "repro.experiments.scalability", scale_factor=0.5,
                   description="scalability: exact ladder to 200, hybrid to 10^6"),
    ExperimentSpec("EXP-ARENA", "repro.experiments.arena", scale_factor=0.5,
                   params=(_SEED, _CONTROLLERS,
                           ParamSpec("n_receivers", "int", default=4, low=2)),
                   description="controller arena: pgmcc vs jain/aimd/tfrc"),
    ExperimentSpec("EXP-RESILIENCE", "repro.experiments.resilience",
                   scale_factor=0.5,
                   params=(_SEED, _CONTROLLERS),
                   description="partition/blackhole/acker-crash recovery "
                               "matrix with TTR SLO"),
    # -- sweep cells: one matrix cell per task, for the sweep DSL -----
    # (hidden: excluded from the default report, addressable by id)
    ExperimentSpec("EXP-ARENA-CELL", "repro.experiments.arena", "run_cell",
                   hidden=True,
                   params=(ParamSpec("seed", "int", default=23, low=0),
                           ParamSpec("n_receivers", "int", default=4, low=2),
                           ParamSpec("controller", "str", default="pgmcc"),
                           ParamSpec("scenario", "str", default="clean-tcp",
                                     choices=("clean-tcp", "fault",
                                              "adversary"))),
                   description="one arena bout: controller x scenario"),
    ExperimentSpec("EXP-RESILIENCE-CELL", "repro.experiments.resilience",
                   "run_cell", hidden=True,
                   params=(ParamSpec("seed", "int", default=31, low=0),
                           ParamSpec("controller", "str", default="pgmcc"),
                           ParamSpec("scenario", "str", default="partition",
                                     choices=("partition", "blackhole",
                                              "acker-crash")),
                           ParamSpec("liveness", "bool", default=True)),
                   description="one recovery bout: controller x fault "
                               "x watchdog on/off"),
)

for _spec in _BUILTIN_SPECS:
    register_experiment(_spec)

#: Backward-compatible registry view: iterates the *live* registry
#: (report entries, registration order), so third-party
#: ``register_experiment`` calls show up here without edits.
REGISTRY = RegistryView()


def specs_by_id(ids=None) -> list[ExperimentSpec]:
    """Resolve a subset of experiment ids (all *report* entries when
    ``ids`` is falsy; hidden sweep-cell specs resolve by explicit id).

    Raises ``KeyError`` with the list of known ids on an unknown id.
    """
    if not ids:
        return list(REGISTRY)
    by_id = {spec.id: spec for spec in REGISTRY}
    by_id.update({s.id: s for s in registered_specs(include_hidden=True)})
    # Ids are normalized case- and separator-insensitively, so the
    # shell-friendly spellings work: exp_arena == exp-arena == EXP-ARENA.
    canonical = {key.upper().replace("_", "-"): key for key in by_id}
    resolved = [canonical.get(str(i).upper().replace("_", "-"), i) for i in ids]
    unknown = [i for i in resolved if i not in by_id]
    if unknown:
        raise KeyError(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"known ids: {', '.join(by_id)}"
        )
    return [by_id[i] for i in resolved]


def main(scale: float = 1.0) -> int:
    """Run the full registry sequentially; returns the failure count.

    Failures are isolated by the orchestrator: a raising experiment is
    reported at the end, with its traceback, after the rest of the
    report has printed.
    """
    from ..runner import Orchestrator

    failed = []

    def on_outcome(outcome) -> None:
        print(f"\n##### {outcome.id} (wall {outcome.wall_s:.1f}s)")
        if outcome.status == "ok":
            print(outcome.result.report())
        else:
            print(f"FAILED after {outcome.attempts} attempt(s): "
                  f"{outcome.error['type']}: {outcome.error['message']}")
            failed.append(outcome)
        sys.stdout.flush()

    orch = Orchestrator(REGISTRY, scale=scale, jobs=1, inline=True,
                        cache=None, retries=0, on_outcome=on_outcome)
    orch.run()
    if failed:
        print(f"\n##### {len(failed)} experiment(s) FAILED")
        for outcome in failed:
            print(f"\n--- {outcome.id} ---")
            print(outcome.error["traceback"], end="")
    return len(failed)


def main_cli(argv: list[str] | None = None) -> None:
    """Console-script entry point (``pgmcc-experiments``): the
    ``repro.runner`` CLI under another name (``--scale``, ``-j``,
    ``--no-cache``, ...)."""
    from ..runner.cli import main as runner_main

    sys.exit(runner_main(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main_cli()
