"""Spans around licflow's public functions, recorded from outside the package.

A traced verdict runs the real `licflow.cli.main`. While it runs, the
names that the CLI, the interchange, the reasoner and the analyzer look
up at call time are swapped for wrappers that record a span and call
through; `run_all` is swapped for a stage-by-stage replay of itself so
that each derivation stage gets its own span. Nothing under `src/`
changes. Spans stay in memory until `write` is called at the end of a
run.
"""

from __future__ import annotations

import copy
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from licflow import analyzer, cli, interchange, reasoner
from licflow.model import Origin

from workloads import FULL_KINDS

# (module, attribute, span name). Layers are the part of a span name
# before its first dot.
_WRAPPED = (
    (cli, "load_kb", "kb.load"),
    (cli, "parse_workflow", "model.build"),
    (cli, "validate_graph", "model.validate"),
    (cli, "analyze_publication", "analyzer.target"),
    (interchange, "parse_document", "interchange.parse"),
    (reasoner, "toposort_actions", "model.toposort"),
    (analyzer, "check_nonstandard_licensing", "analyzer.nonstandard"),
    (analyzer, "check_revocability", "analyzer.revocability"),
    (analyzer, "check_publish_restrictions", "analyzer.publish"),
    (analyzer, "check_conflicts", "analyzer.conflicts"),
)

LAYERS = ("cli", "kb", "interchange", "model", "reasoner", "analyzer")


class Tracer:
    """In-memory span recorder: [name, start, end, parent index, verdict id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.verdict = -1
        self.last_replay: tuple = ()
        self.parsed_bytes = 0
        self.statements = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, self.verdict]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _parse_document(self, fn):
        def traced(text):
            with self.span("interchange.parse"):
                doc = fn(text)
            self.parsed_bytes = len(text.encode("utf-8"))
            self.statements = len(doc.statements)
            return doc

        return traced

    def _replay_run_all(self, graph, kb, fuzz=True):
        """`run_all`, one public stage at a time, each in its own span."""
        with self.span("reasoner.run"):
            result = copy.deepcopy(graph)
            result.edges = []
            result.rulings = []
            result.requests = []
            for work in result.works.values():
                if work.origin is Origin.DERIVED:
                    work.license = None
                    work.origin = Origin.USER_DECLARED
            with self.span("reasoner.compositional"):
                reasoner.derive_compositional(result)
            with self.span("reasoner.rulings"):
                reasoner.derive_rulings(result, kb, fuzz)
            with self.span("reasoner.licenses"):
                _, conflicts = reasoner.determine_licenses(result, kb)
            with self.span("reasoner.requests"):
                reasoner.derive_requests(result, kb)
        self.last_replay = (graph, kb, fuzz, result, conflicts)
        return result, reasoner.FixpointStats(
            records_created=len(result.rulings) + len(result.requests)
        )

    @contextmanager
    def installed(self):
        """Route one verdict through the wrappers, then put the originals back."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in _WRAPPED]
        saved.append((cli, "run_all", cli.run_all))
        try:
            for module, attr, name in _WRAPPED:
                original = getattr(module, attr)
                if attr == "parse_document":
                    setattr(module, attr, self._parse_document(original))
                else:
                    setattr(module, attr, self._wrap(name, original))
            cli.run_all = self._replay_run_all
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, verdict) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "verdict": verdict,
                        }
                    )
                    + "\n"
                )


def check_replay(tracer: Tracer) -> tuple[bool, dict]:
    """Compare the last replay with `run_all` on the same graph, timed as its own span.

    Returns whether rulings, requests and licenses agree, and the counts
    of the reasoned graph.
    """
    graph, kb, fuzz, replayed, conflicts = tracer.last_replay
    with tracer.span("reasoner.run_all"):
        expected, stats = reasoner.run_all(graph, kb, fuzz)
    same = (
        set(replayed.rulings) == set(expected.rulings)
        and set(replayed.requests) == set(expected.requests)
        and {w: x.license for w, x in replayed.works.items()}
        == {w: x.license for w, x in expected.works.items()}
    )
    counts = {
        "model.works": len(graph.works),
        "model.actions": len(graph.actions),
        "reasoner.iterations": stats.iterations,
        "reasoner.edges": len(replayed.edges),
        "reasoner.rulings": len(replayed.rulings),
        "reasoner.requests": len(replayed.requests),
        "reasoner.conflicts": len(conflicts),
    }
    return same, counts


def closure_works(tracer: Tracer, targets: list[str]) -> int:
    replayed = tracer.last_replay[3]
    return sum(len(analyzer.dependency_closure(replayed, t, FULL_KINDS)) for t in targets)


def verdict_layers(spans: list[list], first: int) -> dict:
    """Per-layer times of the traced verdict whose spans start at `first`.

    Totals are span durations summed by name; self times subtract the
    time covered by child spans. `layer_self` sums self times by layer,
    so the layers of the `cli` root tree add up to the verdict's time.
    """
    mine = spans[first:]
    total: dict[str, float] = defaultdict(float)
    self_time = [end - start for _, start, end, _, _ in mine]
    for name, start, end, parent, _ in mine:
        total[name] += end - start
        if parent is not None:
            self_time[parent - first] -= end - start
    by_name_self: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(mine, self_time):
        by_name_self[name] += own
        if name != "reasoner.run_all":
            layer_self[name.split(".")[0]] += own
    return {
        "root_s": total["cli"],
        "cli.self_s": by_name_self["cli"],
        "kb.load_s": total["kb.load"],
        "interchange.parse_s": total["interchange.parse"],
        "model.build_s": by_name_self["model.build"],
        "model.validate_s": total["model.validate"],
        "model.toposort_s": total["model.toposort"],
        "reasoner.run_all_s": total["reasoner.run_all"],
        "reasoner.compositional_s": total["reasoner.compositional"],
        "reasoner.rulings_s": total["reasoner.rulings"],
        "reasoner.licenses_s": total["reasoner.licenses"],
        "reasoner.requests_s": total["reasoner.requests"],
        "analyzer.total_s": total["analyzer.target"],
        "analyzer.nonstandard_s": total["analyzer.nonstandard"],
        "analyzer.revocability_s": total["analyzer.revocability"],
        "analyzer.publish_s": total["analyzer.publish"],
        "analyzer.conflicts_s": total["analyzer.conflicts"],
        "analyzer.rights_s": by_name_self["analyzer.target"],
        "target_times": [e - s for n, s, e, _, _ in mine if n == "analyzer.target"],
        "layer_self": {layer: layer_self[layer] for layer in LAYERS},
    }


def median_layers(per_verdict: list[dict]) -> dict:
    """Median over traced verdicts of each per-verdict time."""
    skip = ("target_times", "layer_self", "verdict")
    out = {k: statistics.median(v[k] for v in per_verdict) for k in per_verdict[0] if k not in skip}
    targets = [t for v in per_verdict for t in v["target_times"]]
    out["analyzer.target_p50_s"] = statistics.median(targets) if targets else 0.0
    out["layer_self"] = {
        layer: statistics.median(v["layer_self"][layer] for v in per_verdict)
        for layer in LAYERS
    }
    return out
