"""One workload's closed loop, run in a process of its own.

Reads a job (JSON) on stdin and prints one JSON result on stdout. One
client, one thread, one verdict at a time: each verdict is
`licflow analyze WORKFLOW --output structured` made in-process through
`licflow.cli.main` with stdout captured, so it loads the KB, parses,
validates, reasons, analyses every requested target and renders, like
the CLI. Outputs are checked against their references after the loop,
so checking costs no loop time. The peak resident memory reported is
this process's own.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from licflow import cli, published_targets

from hostspeed import HostSpeed
from tracing import Tracer, check_replay, closure_works, median_layers, verdict_layers
from workloads import output_matches


def run_verdict(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class _Outcomes:
    """Distinct (item, exit code, output) triples with their counts.

    Identical outputs are kept once, so memory does not grow with the
    number of verdicts.
    """

    def __init__(self) -> None:
        self.counts: dict[tuple, int] = {}
        self.errors: list[str] = []
        self.raised = 0

    def add(self, index: int, argv: list[str]):
        started = perf_counter()
        try:
            code, stdout = run_verdict(argv)
        except Exception as exc:  # a verdict that raises is a failure, not a crash
            self.raised += 1
            if len(self.errors) < 5:
                self.errors.append(f"{argv}: {type(exc).__name__}: {exc}")
            return perf_counter() - started, None
        elapsed = perf_counter() - started
        key = (index, code, stdout)
        self.counts[key] = self.counts.get(key, 0) + 1
        return elapsed, (code, stdout)

    def failed(self, items: list[dict]) -> int:
        failed = self.raised
        for (index, code, stdout), count in self.counts.items():
            try:
                matches = output_matches(items[index]["expect"], code, stdout)
            except (ValueError, KeyError):  # output that is not structured lines
                matches = False
            if not matches:
                failed += count
                if len(self.errors) < 5:
                    self.errors.append(f"{items[index]['argv']}: output differs from reference (exit {code})")
        return failed


def _stop(started: float, last: float, seconds: float) -> bool:
    """Stop when the next verdict, as long as the last, would overrun."""
    return perf_counter() - started + last > seconds


def untraced(items: list[dict], seconds: float) -> dict:
    outcomes = _Outcomes()
    speed = HostSpeed()
    # Compact arrays, so that the loop's own records barely move the peak
    # memory reported, however many verdicts fit in the run.
    durations = array("d")
    begins = array("d")
    ends = array("d")
    works = 0
    index = 0
    with speed.sampling():
        started = perf_counter()
        while True:
            item = items[index % len(items)]
            sampled = speed.spent
            begun = perf_counter()
            elapsed, result = outcomes.add(index % len(items), item["argv"])
            durations.append(elapsed - (speed.spent - sampled))
            begins.append(begun)
            ends.append(begun + elapsed)
            if result is not None:
                works += item["works"]
            index += 1
            if _stop(started, elapsed, seconds):
                break
        loop_s = perf_counter() - started - speed.spent
    # Each verdict is scaled by the host speed around it; the loop's glue
    # between verdicts by the run's.
    scaled = [d / speed.factor(a, b) for d, a, b in zip(durations, begins, ends)]
    return {
        "durations": durations.tolist(),
        "scaled_durations": scaled,
        "works": works,
        "loop_s": loop_s,
        "scaled_loop_s": sum(scaled) + (loop_s - sum(durations)) / speed.factor(),
        "host_factor": speed.factor(),
        "attempted": len(durations),
        "failed": outcomes.failed(items),
        "errors": outcomes.errors,
        "checks_ok": True,
    }


def traced(items: list[dict], seconds: float, spans_path: Path) -> dict:
    """Pairs of one untraced and one traced verdict on the same input.

    The order inside a pair alternates. Each traced verdict is followed,
    outside its timing, by `run_all` on the same graph to check that the
    stage replay computed the same rulings, requests and licenses.
    """
    tracer = Tracer()
    speed = HostSpeed()
    outcomes = _Outcomes()
    plain: list[float] = []
    per_verdict: list[dict] = []
    counts: list[dict] = []
    problems: list[str] = []
    pair = 0
    with speed.sampling():
        started = perf_counter()
        while True:
            index = pair % len(items)
            item = items[index]
            pair_started = perf_counter()
            for is_traced in ((False, True) if pair % 2 == 0 else (True, False)):
                if not is_traced:
                    sampled = speed.spent
                    plain.append(outcomes.add(index, item["argv"])[0] - (speed.spent - sampled))
                    continue
                with speed.paused():
                    layers = _traced_verdict(tracer, outcomes, index, item)
                if layers is not None:
                    per_verdict.append(layers)
                    counts.append(layers.pop("counts"))
                    problems += layers.pop("problems")
            pair += 1
            if _stop(started, perf_counter() - pair_started, seconds):
                break
    tracer.write(spans_path)
    layers = median_layers(per_verdict) if per_verdict else {}
    for key in counts[0] if counts else ():
        layers[key] = statistics.fmean(c[key] for c in counts)
    if per_verdict and plain:
        layers["trace.verdict_s"] = statistics.median(v["verdict"] for v in per_verdict)
        layers["trace.untraced_verdict_s"] = statistics.median(plain)
        layers["trace.overhead"] = layers["trace.verdict_s"] / layers["trace.untraced_verdict_s"]
    attempted = len(plain) + tracer.verdict + 1
    return {
        "attempted": attempted,
        "failed": outcomes.failed(items),
        "errors": outcomes.errors + problems[:5],
        "checks_ok": not problems and bool(per_verdict),
        "layers": layers,
        "host_factor": speed.factor(),
        "traced_verdicts": len(per_verdict),
        "spans": len(tracer.spans),
    }


def _traced_verdict(tracer: Tracer, outcomes: _Outcomes, index: int, item: dict) -> dict | None:
    """One verdict through the wrappers, then its replay check and counts."""
    tracer.verdict += 1
    tracer.last_replay = ()
    first = len(tracer.spans)
    with tracer.installed(), tracer.span("cli"):
        elapsed, result = outcomes.add(index, item["argv"])
    if result is None or not tracer.last_replay:
        return None
    same, count = check_replay(tracer)
    layers = verdict_layers(tracer.spans, first)
    layers["verdict"] = elapsed
    argv = item["argv"]
    targets = (
        [argv[argv.index("--target") + 1]]
        if "--target" in argv
        else published_targets(tracer.last_replay[3])
    )
    kb = tracer.last_replay[1]
    count.update(
        {
            "kb.profiles": len(kb.licenses),
            "kb.rules": len(kb.rules),
            "interchange.statements": tracer.statements,
            "interchange.bytes_per_s": tracer.parsed_bytes / layers["interchange.parse_s"],
            "analyzer.targets": len(layers["target_times"]),
            "analyzer.closure_works": closure_works(tracer, targets),
            "analyzer.reports": result[1].count("\n"),
        }
    )
    layers["counts"] = count
    layers["problems"] = _reference_problems(item["expect"], tracer, same, count)
    return layers


def _reference_problems(expect: dict, tracer: Tracer, same: bool, count: dict) -> list[str]:
    problems = []
    if not same:
        problems.append("stage replay differs from run_all")
    if expect["kind"] == "pinned":
        for key in ("rulings", "requests"):
            if count[f"reasoner.{key}"] != expect[key]:
                problems.append(f"{key}: {count[f'reasoner.{key}']} != pinned {expect[key]}")
    else:
        works = tracer.last_replay[3].works
        for wid, license_id in expect.get("licenses", {}).items():
            if works[wid].license != license_id:
                problems.append(f"license of {wid}: {works[wid].license} != {license_id}")
    return problems


def main() -> int:
    job = json.load(sys.stdin)
    if job["trace"]:
        result = traced(job["items"], job["seconds"], Path(job["spans_path"]))
    else:
        result = untraced(job["items"], job["seconds"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
