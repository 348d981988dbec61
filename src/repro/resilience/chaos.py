"""CI chaos drill: sharded evaluation under injected faults.

``python -m repro.resilience.chaos`` runs the same small evaluation twice —
once fault-free and in-process, once sharded across workers with a
:mod:`repro.resilience.faults` plan armed (by default one worker killed with
``SIGKILL`` and one shard hung past its deadline) — and asserts the two
metric summaries are **bit-identical**.  That is the whole fault-tolerance
contract in one executable sentence: recovery may cost wall clock, never
correctness.

The drill exits non-zero if the chaotic run produced different metrics, or
if the fault plan did not actually bite (no supervision events recorded —
a silently ineffective chaos test is worse than none).

Examples::

    python -m repro.resilience.chaos
    python -m repro.resilience.chaos --faults 'shard:*:hang:60' --timeout 3
    REPRO_FAULTS='shard:1:raise' python -m repro.resilience.chaos --faults env
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.resilience import faults
from repro.resilience.supervisor import TaskEvent

#: One killed worker (shard 0's worker dies mid-run) and one hung shard
#: (shard 2 sleeps past any sane deadline).  Both specs target attempt 0
#: only, so the supervisor's retries recover every shard inside the pool.
DEFAULT_FAULTS = "shard:0:kill,shard:2:hang:60"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Assert sharded evaluation survives injected faults "
                    "with bit-identical metrics.")
    parser.add_argument("--faults", default=DEFAULT_FAULTS,
                        help="fault plan for the chaotic run (REPRO_FAULTS "
                             "syntax), or 'env' to use the inherited "
                             f"REPRO_FAULTS variable [default: {DEFAULT_FAULTS}]")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the chaotic run [default: 2]")
    parser.add_argument("--triples", type=int, default=6,
                        help="test triples to rank [default: 6]")
    parser.add_argument("--timeout", type=float, default=8.0,
                        help="per-shard deadline in seconds [default: 8]")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="benchmark scale factor [default: 0.25]")
    parser.add_argument("--seed", type=int, default=0,
                        help="model/eval seed [default: 0]")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.faults != "env":
        # Through the environment, not install_fault_plan: pool workers get
        # the caller's environment, and they are where shard faults fire.
        os.environ[faults.ENV_VAR] = args.faults

    from repro.core.config import ModelConfig
    from repro.core.model import DEKGILP
    from repro.datasets.benchmark import build_benchmark
    from repro.eval.evaluator import Evaluator

    dataset = build_benchmark("fb15k-237", "EQ", seed=1, scale=args.scale)
    model = DEKGILP(dataset.num_relations,
                    config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                                       edge_dropout=0.0),
                    seed=args.seed)
    model.eval()
    triples = dataset.test_triples[:args.triples]
    evaluator = Evaluator(dataset, max_candidates=5, seed=args.seed,
                          shard_timeout=args.timeout, shard_attempts=3)

    # Fault-free in-process baseline: injection disabled for this process.
    faults.install_fault_plan(None)
    baseline = evaluator.evaluate(model, test_triples=triples).summary()

    # Chaotic sharded run: defer to the environment again so the armed plan
    # is live in the parent's supervisor and every worker.
    faults.reset_fault_state()
    events: List[TaskEvent] = []
    chaotic = evaluator.evaluate(model, test_triples=triples,
                                 workers=args.workers,
                                 on_event=events.append).summary()

    for event in events:
        print(f"[chaos] {event.kind} shard={event.index} "
              f"attempt={event.attempt} {event.detail}", file=sys.stderr)

    identical = json.dumps(baseline, sort_keys=True) == \
        json.dumps(chaotic, sort_keys=True)
    plan_active = faults.active_plan() is not None and bool(
        faults.active_plan().specs)
    bit = plan_active and not events
    report = {
        "faults": os.environ.get(faults.ENV_VAR, ""),
        "workers": args.workers,
        "supervision_events": len(events),
        "metrics_bit_identical": identical,
    }
    print(json.dumps(report, indent=2))
    if not identical:
        print("FAIL: chaotic metrics diverged from the fault-free baseline",
              file=sys.stderr)
        return 1
    if bit:
        print("FAIL: fault plan armed but no supervision events fired — "
              "the chaos drill did not actually exercise recovery",
              file=sys.stderr)
        return 1
    print("OK: recovered run is bit-identical to the fault-free baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
