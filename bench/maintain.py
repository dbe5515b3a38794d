"""Maintain the benchmark's references. Run from the repository root.

    python3 bench/maintain.py verify      # engine vs naive oracle (slow: minutes)
    python3 bench/maintain.py pin         # rewrite the pinned references
    python3 bench/maintain.py self-check  # a perturbed reference must fail

`verify` checks rulings and requests of the dense and ladder shapes
against `naive_rulings`/`naive_requests` in tests/oracleutil.py. Run it
before `pin` whenever the pins have to change: the pins are the seed
engine's output and are only worth keeping if the oracle agrees with it.
`pin` also checks that renaming works and actions (what `--seed` does)
leaves the canonical output unchanged. The fixture references are hand
written from the acceptance suite and README, and `pin` keeps them.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from licflow import bundled_rules_dir, load_kb, run_all, serialize_graph  # noqa: E402

from child import run_verdict  # noqa: E402
from run import OUT, run_workload  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    canonical_digest,
    dense_graph,
    ladder_graph,
    relabel,
    widest_target,
)

REFERENCES = BENCH / "references.json"
PIN_CHECK_SEEDS = (1, 2)


def verify() -> int:
    from oracleutil import naive_requests, naive_rulings

    kb = load_kb([bundled_rules_dir()])
    status = 0
    for name, graph in (("ladder", ladder_graph()), ("dense", dense_graph())):
        started = time.perf_counter()
        reasoned, _ = run_all(graph, kb, fuzz=True)
        rulings = naive_rulings(graph, kb, fuzz=True)
        requests = naive_requests(graph, kb, rulings)
        got_rulings = {(r.work, r.relied_work, r.rule) for r in reasoned.rulings}
        got_requests = {
            (r.action, r.source_work, r.target_work, r.usage.value) for r in reasoned.requests
        }
        agree = got_rulings == rulings and got_requests == requests
        status |= not agree
        print(
            f"{name}: {len(got_rulings)} rulings, {len(got_requests)} requests, "
            f"oracle {'agrees' if agree else 'DISAGREES'} "
            f"({time.perf_counter() - started:.0f} s)",
            flush=True,
        )
    return status


def _pin_one(workload: str, text: str, target: str | None) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    argv = ["analyze", "", "--output", "structured"]
    if target:
        argv += ["--target", target]
    pins = []
    for seed in (None,) + PIN_CHECK_SEEDS:
        if seed is None:
            renamed, canonical_of = text, {}
        else:
            renamed, canonical_of = relabel(text, seed)
        path = OUT / f"pin-{workload}.mgw"
        path.write_text(renamed, encoding="utf-8")
        argv[1] = str(path)
        if target and seed is not None:
            argv[-1] = next(k for k, v in canonical_of.items() if v == target)
        code, stdout = run_verdict(argv)
        pins.append((code, stdout.count("\n"), canonical_digest(stdout, canonical_of)))
    if len(set(pins)) != 1:
        raise SystemExit(f"{workload}: output depends on the names drawn by --seed: {pins}")
    code, reports, digest = pins[0]
    return {"exit": code, "reports": reports, "digest": digest}


def pin() -> int:
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    kb = load_kb([bundled_rules_dir()])
    for workload, graph in (
        ("dense", dense_graph()),
        ("dense-one", dense_graph()),
        ("ladder", ladder_graph()),
    ):
        text = serialize_graph(graph)
        target = widest_target(graph) if workload == "dense-one" else None
        reasoned, _ = run_all(graph, kb, fuzz=True)
        entry = {"target": target} if target else {}
        entry.update(_pin_one(workload, text, target))
        entry.update(rulings=len(reasoned.rulings), requests=len(reasoned.requests))
        references[workload] = entry
        print(f"{workload}: {entry}", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=2) + "\n", encoding="utf-8")
    return 0


def _perturbed(references: dict) -> dict:
    wrong = copy.deepcopy(references)
    wrong["fixtures"]["setting-i.mgw"]["catalog"]["E"]["W1"] += 1
    for workload in ("dense", "dense-one", "ladder"):
        digest = wrong[workload]["digest"]
        wrong[workload]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    return wrong


def self_check(workloads: tuple[str, ...]) -> int:
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    wrong = _perturbed(references)
    status = 0
    for workload in workloads:
        result = run_workload(workload, 0, 1.0, False, wrong)
        ratio = result["failed"] / result["attempted"]
        caught = ratio > 0 and not result["correct"]
        status |= not caught
        print(f"self-check {workload}: perturbed reference gives fail_ratio {ratio:g}: "
              f"{'caught' if caught else 'NOT CAUGHT'}", flush=True)
    return status


def main() -> int:
    command = sys.argv[1] if len(sys.argv) > 1 else ""
    if command == "verify":
        return verify()
    if command == "pin":
        return pin()
    if command == "self-check":
        return self_check(tuple(sys.argv[2:]) or WORKLOADS)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
