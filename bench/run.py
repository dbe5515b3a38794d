"""Benchmark `licflow analyze` end to end, or per layer with `--trace 1`.

    python3 bench/run.py --workload dense --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from the repository root. Workloads: fixtures, dense, dense-one,
ladder, or `all` for every one in turn. Inputs are generated from
`--seed` before anything is timed; the timed loop then runs in a child
process of its own (see child.py) for about `--seconds` seconds. A run
always completes at least one verdict (one traced/untraced pair with
`--trace 1`), even when that takes longer than `--seconds`.

Every metric is printed by name with its unit, and the last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With `--trace 0` the metrics are the `end_to_end` metrics
of BENCHMARK.json, with `--trace 1` its `per_layer` metrics. The exit
code is 0 whenever that line is printed; a run whose sources are
missing exits 2 without printing it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 15
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Timed in a fresh interpreter: everything a CLI invocation pays before
# it reads a workflow.
_SETUP_PROBE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import licflow.cli as cli\n"
    "cli.load_kb([cli.bundled_rules_dir()])\n"
    "print(time.perf_counter() - started)\n"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LICFLOW_KB", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(samples: int = SETUP_SAMPLES) -> tuple[list[float], list[float], float]:
    """Seconds from `import licflow.cli` to a loaded bundled KB, one fresh interpreter each.

    One unrecorded probe first, so that byte-code caches are written
    before timing, as they are for an installed CLI. Host speed is
    sampled between probes, never during one (the probe would compete
    for the other vCPU), and each probe is divided by the factor of the
    samples within half a second of it. Returns the raw times, the
    scaled times and the factor over all samples.
    """
    times, scaled = [], []
    speed = HostSpeed()
    speed.sample()
    for i in range(samples + 1):
        before = speed.at[-1]
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE],
            capture_output=True,
            text=True,
            env=_env(),
            cwd=ROOT,
            timeout=60,
            check=True,
        )
        speed.sample()
        if i:
            times.append(float(done.stdout.strip()))
            scaled.append(times[-1] / speed.factor(before, speed.at[-1]))
    return times, scaled, speed.factor()


def tail(durations: list[float]) -> tuple[float, float, int] | None:
    """Highest listed percentile with at least ten verdicts beyond it."""
    ordered = sorted(durations)
    for pct in TAIL_PERCENTILES:
        index = max(0, math.ceil(len(ordered) * pct / 100) - 1)
        beyond = len(ordered) - 1 - index
        if beyond >= 10:
            return pct, ordered[index], beyond
    return None


def run_child(job: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _end_to_end(res: dict, setup: tuple[list[float], list[float], float]) -> list[tuple]:
    setup_times, setup_scaled, setup_factor = setup
    durations, scaled = res["durations"], res["scaled_durations"]
    found = tail(scaled)
    print(
        f"  verdict_tail_s = {found[1]:.6g} s (p{found[0]:g}, {found[2]} verdicts beyond)"
        if found
        else "  verdict_tail_s omitted: fewer than ten verdicts beyond any percentile"
    )
    print(f"  fail_ratio = {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']})")
    print(f"  host factor {res['host_factor']:.4g}, setup {setup_factor:.4g}; raw values in brackets")
    rss = res["peak_rss_kb"] / 1024
    return [
        ("verdict_p50_s", statistics.median(scaled), statistics.median(durations), f"{len(durations)} verdicts"),
        ("works_per_s", res["works"] / res["scaled_loop_s"], res["works"] / res["loop_s"],
         f"{res['works']} works in {res['loop_s']:.3f} s"),
        ("setup_s", statistics.median(setup_scaled), statistics.median(setup_times),
         f"median of {len(setup_times)} fresh interpreters"),
        ("peak_rss_mb", rss, rss, "child process"),
    ]


def _per_layer(res: dict, spans_path: str) -> list[tuple]:
    values = res["layers"]
    factor = res["host_factor"]
    shares = values.pop("layer_self", {})
    total = sum(shares.values()) or 1.0
    print(f"  traced verdicts: {res['traced_verdicts']}, spans: {res['spans']} (written to {spans_path})")
    print(
        f"  layer self times sum to {total:.6g} s; root span median "
        f"{values.pop('root_s', 0.0):.6g} s; shares: "
        + ", ".join(f"{k} {v / total:.1%}" for k, v in shares.items())
    )
    print(f"  host factor {factor:.4g}; raw values in brackets")
    rows = []
    for spec in SPEC["per_layer"]:
        measured = values.get(spec["name"], 0.0)  # missing only when every traced verdict failed
        unit = spec["unit"]
        value = measured / factor if unit == "s" else measured * factor if unit.endswith("/s") else measured
        rows.append((spec["name"], value, measured, ""))
    return rows


def run_workload(workload: str, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    """Generate inputs, run the loop in a child process and derive the metrics."""
    from workloads import build_items

    items = build_items(workload, seed, ROOT, OUT, references)
    setup = None if trace else measure_setup()
    spans_path = str(OUT / f"spans-{workload}-{seed}.jsonl")
    res = run_child({"items": items, "seconds": seconds, "trace": trace, "spans_path": spans_path})
    print(
        f"{workload} seed={seed} seconds={seconds} trace={int(trace)}: "
        f"{res['attempted']} verdicts, {res['failed']} failed"
    )
    for error in res["errors"]:
        print(f"  problem: {error}")
    rows = _per_layer(res, spans_path) if trace else _end_to_end(res, setup)
    units = {spec["name"]: spec["unit"] for spec in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = {}
    for name, value, measured, note in rows:
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name} = {value:.6g} {units[name]} [{measured:.6g}]" + (f" ({note})" if note else ""))
    return {
        "correct": res["failed"] == 0 and res["checks_ok"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "licflow" / "__init__.py").is_file():
        print(f"licflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(WORKLOADS):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), references)
        for name in names
    }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
