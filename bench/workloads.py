"""Seeded inputs and reference checks for the benchmark workloads.

The generated shapes (dense, ladder) are built once per run through the
public graph API and written out as `.mgw` text before anything is
timed. Each shape is fixed by its own shape seed; the benchmark's
`--seed` only redraws the names of works and actions, keeping their
sort order. Every seed therefore asks the engine for exactly the same
work, so the spread between seeds measures the host rather than the
generator, and one reference pinned under canonical names checks the
output of every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from pathlib import Path

from licflow import (
    ActionInput,
    ActionKind,
    ActionNode,
    EdgeKind,
    InputRole,
    PublishManner,
    Work,
    WorkflowGraph,
    WorkForm,
    WorkType,
    add_action,
    add_work,
    derive_compositional,
    dependency_closure,
    generalize_output_typing,
    parse_workflow,
    published_targets,
    serialize_graph,
)

WORKLOADS = ("fixtures", "dense", "dense-one", "ladder")

FIXTURES = (
    "setting-i.mgw",
    "setting-ii.mgw",
    "setting-iii.mgw",
    "setting-iv.mgw",
    "setting-free.mgw",
    "llama-train.mgw",
)

# The bundled profiles, spelled out so that the dense shape does not
# change when the knowledge base grows.
LICENSES = (
    "AGPL-3.0",
    "AI2-ImpACT-LR",
    "Apache-2.0",
    "CC-BY-4.0",
    "CC-BY-NC-4.0",
    "CC-BY-NC-SA-4.0",
    "CC-BY-SA-4.0",
    "GPL-3.0",
    "Llama2",
    "MG-BY",
    "MG-BY-NC",
    "MG-BY-ND",
    "MG-BY-OS",
    "MG-BY-RAI",
    "MG0",
    "MIT",
    "OpenRAIL-M",
    "Unlicense",
)

DENSE_WORKS = 1000
DENSE_SHAPE_SEED = 0
DENSE_ROOT_SHARE = 0.2
DENSE_WINDOW = 20
LADDER_RUNGS = 12

_ROOT_FORMS = {
    WorkForm.CODE: WorkType.SOFTWARE,
    WorkForm.WEIGHTS: WorkType.MODEL,
    WorkForm.CORPUS: WorkType.DATASET,
}
_DENSE_KINDS = (
    ActionKind.COMBINE,
    ActionKind.MODIFY,
    ActionKind.TRAIN,
    ActionKind.COPY,
    ActionKind.PUBLISH,
    ActionKind.GENERATE,
)
FULL_KINDS = (EdgeKind.MIXWORK, EdgeKind.SUBWORK, EdgeKind.AUXWORK)

# Canonical names are W0000/A0000 style; `relabel` swaps them for
# seeded names of one fixed width so that sort order is kept.
_CANONICAL = re.compile(r"(?<![A-Za-z0-9_-])([WA])(\d{4})(?![A-Za-z0-9_])")


class _Builder:
    def __init__(self) -> None:
        self.graph = WorkflowGraph()
        self.order: list[str] = []

    def work(self, work_type: WorkType, form: WorkForm, license_id=None) -> str:
        wid = f"W{len(self.graph.works):04d}"
        add_work(self.graph, Work(wid, f"Work {wid}", work_type, form, license_id))
        self.order.append(wid)
        return wid

    def action(self, kind: ActionKind, inputs: list[ActionInput], output: str, **extra) -> None:
        aid = f"A{len(self.graph.actions):04d}"
        add_action(self.graph, ActionNode(aid, kind, inputs, output, **extra))


def dense_graph(works: int = DENSE_WORKS, shape_seed: int = DENSE_SHAPE_SEED) -> WorkflowGraph:
    """Many licensed roots interleaved with actions on the most recent works.

    About a fifth of the works are licensed roots (all 18 profiles; code,
    weights or corpus). Every other work is the output of one action on
    the last `DENSE_WINDOW` works: combine of 3, modify, train with 2 data
    inputs, copy, publish or generate.
    """
    rng = random.Random(shape_seed)
    b = _Builder()
    while len(b.graph.works) < works:
        if len(b.order) < 3 or rng.random() < DENSE_ROOT_SHARE:
            form = rng.choice(list(_ROOT_FORMS))
            b.work(_ROOT_FORMS[form], form, rng.choice(LICENSES))
            continue
        recent = b.order[-DENSE_WINDOW:]
        kind = rng.choice(_DENSE_KINDS)
        if kind is ActionKind.COMBINE:
            parts = rng.sample(recent, 3)
            typing = generalize_output_typing(
                [b.graph.works[w].work_type for w in parts],
                [b.graph.works[w].form for w in parts],
            )
            out = b.work(*typing)
            b.action(kind, [ActionInput(w) for w in parts], out)
        elif kind is ActionKind.TRAIN:
            base, *data = rng.sample(recent, 3)
            out = b.work(WorkType.MODEL, WorkForm.WEIGHTS)
            inputs = [ActionInput(base)]
            inputs += [ActionInput(w, InputRole.TRAINING_DATA) for w in data]
            b.action(kind, inputs, out)
        elif kind is ActionKind.GENERATE:
            source = rng.choice(recent)
            out = b.work(WorkType.DATASET, WorkForm.CORPUS)
            b.action(kind, [ActionInput(source)], out)
        else:
            source = rng.choice(recent)
            src = b.graph.works[source]
            out = b.work(src.work_type, src.form)
            if kind is ActionKind.PUBLISH:
                b.action(
                    kind,
                    [ActionInput(source)],
                    out,
                    publish_manner=rng.choice(list(PublishManner)),
                    publish_form=src.form,
                )
            else:
                b.action(kind, [ActionInput(source)], out)
    return b.graph


def ladder_graph(rungs: int = LADDER_RUNGS) -> WorkflowGraph:
    """A diamond ladder over one GPL-3.0 code work, then one share publish.

    Each rung modifies the previous work twice and combines the two
    results, so the producer paths back to the root double per rung.
    """
    b = _Builder()
    top = b.work(WorkType.SOFTWARE, WorkForm.CODE, "GPL-3.0")
    for _ in range(rungs):
        left = b.work(WorkType.SOFTWARE, WorkForm.CODE)
        b.action(ActionKind.MODIFY, [ActionInput(top)], left)
        right = b.work(WorkType.SOFTWARE, WorkForm.CODE)
        b.action(ActionKind.MODIFY, [ActionInput(top)], right)
        top = b.work(WorkType.SOFTWARE, WorkForm.CODE)
        b.action(ActionKind.COMBINE, [ActionInput(left), ActionInput(right)], top)
    out = b.work(WorkType.SOFTWARE, WorkForm.CODE)
    b.action(
        ActionKind.PUBLISH,
        [ActionInput(top)],
        out,
        publish_manner=PublishManner.SHARE,
        publish_form=WorkForm.CODE,
    )
    return b.graph


def relabel(text: str, seed: int) -> tuple[str, dict[str, str]]:
    """Rename every work and action from the seed, keeping their sort order.

    Returns the new text and the map from new name to canonical name.
    """
    found = sorted(set(_CANONICAL.findall(text)))
    rng = random.Random(seed)
    tokens = sorted(rng.sample(range(16**8), len(found)))
    new_of = {}
    canonical_of = {}
    for (prefix, digits), token in zip(found, tokens):
        old, new = prefix + digits, f"{prefix.lower()}{token:08x}"
        new_of[old] = new
        canonical_of[new] = old
    renamed = _CANONICAL.sub(lambda m: new_of[m.group(0)], text)
    return renamed, canonical_of


def widest_target(graph: WorkflowGraph) -> str:
    """The published work with the largest full closure, smallest id on ties."""
    wired = WorkflowGraph(works=graph.works, actions=graph.actions)
    derive_compositional(wired)
    return min(
        published_targets(wired),
        key=lambda t: (-len(dependency_closure(wired, t, FULL_KINDS)), t),
    )


def build_items(workload: str, seed: int, root: Path, out_dir: Path, references: dict) -> list[dict]:
    """The verdicts a workload cycles through, with what each must print.

    Generated workflows are written under `out_dir`. Each item carries
    the CLI arguments, the number of works it analyses and its reference.
    """
    if workload == "fixtures":
        names = list(FIXTURES)
        start = seed % len(names)
        items = []
        for name in names[start:] + names[:start]:
            path = root / "tests" / "fixtures" / name
            text = path.read_text(encoding="utf-8")
            items.append(
                {
                    "argv": ["analyze", str(path), "--output", "structured"],
                    "works": len(parse_workflow(text).works),
                    "expect": dict(references["fixtures"][name], kind="fixture"),
                }
            )
        return items

    canonical = ladder_graph() if workload == "ladder" else dense_graph()
    text, canonical_of = relabel(serialize_graph(canonical), seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}.mgw"
    path.write_text(text, encoding="utf-8")
    argv = ["analyze", str(path), "--output", "structured"]
    reference = references[workload]
    if workload == "dense-one":
        target = widest_target(parse_workflow(text))
        if canonical_of[target] != reference["target"]:
            raise SystemExit(
                f"dense-one picked {canonical_of[target]}, reference pins "
                f"{reference['target']}"
            )
        argv += ["--target", target]
    return [
        {
            "argv": argv,
            "works": len(canonical.works),
            "expect": dict(reference, kind="pinned", canonical_of=canonical_of),
        }
    ]


def canonical_digest(stdout: str, canonical_of: dict[str, str]) -> str:
    """Digest of structured output with every name mapped back to canonical.

    Relabelling keeps the sort order of names, so the output order is
    part of what the digest pins.
    """
    lines = []
    for line in stdout.splitlines():
        rec = json.loads(line)
        subject = rec["subject"]
        canon = canonical_of.get(subject, subject)
        rec["content"] = rec["content"].replace(f"Work {subject}", f"Work {canon}")
        rec["subject"] = canon
        rec["target"] = canonical_of.get(rec["target"], rec["target"])
        lines.append(json.dumps(rec, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def output_matches(expect: dict, code: int, stdout: str) -> bool:
    """Whether one verdict's exit code and structured output match its reference."""
    if code != expect["exit"]:
        return False
    if expect["kind"] == "pinned":
        return (
            stdout.count("\n") == expect["reports"]
            and canonical_digest(stdout, expect["canonical_of"]) == expect["digest"]
        )
    codes: dict[str, Counter] = {}
    pairs: dict[str, Counter] = {}
    for line in stdout.splitlines():
        rec = json.loads(line)
        codes.setdefault(rec["target"], Counter())[rec["code"]] += 1
        pairs.setdefault(rec["target"], Counter())[f"{rec['code']} {rec['subject']}"] += 1
    if codes != {t: Counter(c) for t, c in expect["catalog"].items() if c}:
        return False
    return all(pairs.get(t) == Counter(p) for t, p in expect.get("subjects", {}).items())
