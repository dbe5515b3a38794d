"""Seeded random workflow graphs for the property tests.

Graphs built here always satisfy the structural rules enforced by the
graph API (arity, acyclicity, single producer) and use only plausible
type/form pairings, so property tests can focus on reasoning behavior.
The same seed always yields the same graph.
"""

from __future__ import annotations

import random

from licflow import (
    ActionInput,
    ActionKind,
    ActionNode,
    InputRole,
    PublishManner,
    Work,
    WorkflowGraph,
    WorkForm,
    WorkType,
    add_action,
    add_work,
)

LICENSE_POOL = [
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
]

# Licenses with exclusive terms: each reserves commercial use or restricts
# use, so a release under one raises the E7/E8 of the rulings behind it.
EXCLUSIVE_POOL = [
    "CC-BY-NC-4.0",
    "CC-BY-NC-SA-4.0",
    "Llama2",
    "MG-BY-NC",
    "MG-BY-RAI",
    "OpenRAIL-M",
]

# Copyleft licenses whose modification rulings carry E7/E8 candidates,
# each with a typing its rules match.
_FREEDOM_ROOTS = [
    ("AGPL-3.0", WorkType.SOFTWARE, WorkForm.CODE),
    ("GPL-3.0", WorkType.SOFTWARE, WorkForm.CODE),
    ("CC-BY-SA-4.0", WorkType.DATASET, WorkForm.TEXT),
    ("CC-BY-NC-SA-4.0", WorkType.DATASET, WorkForm.CORPUS),
]

_CONCRETE_FORMS = {
    WorkType.SOFTWARE: [WorkForm.CODE, WorkForm.EXE, WorkForm.SAAS, WorkForm.API],
    WorkType.MODEL: [WorkForm.WEIGHTS, WorkForm.EXE, WorkForm.SAAS, WorkForm.API],
    WorkType.DATASET: [WorkForm.CORPUS, WorkForm.TEXT, WorkForm.IMAGE, WorkForm.API],
    WorkType.MIXED: [
        WorkForm.CODE,
        WorkForm.WEIGHTS,
        WorkForm.CORPUS,
        WorkForm.TEXT,
        WorkForm.MIXED,
    ],
}

_BARE_FORMS = [WorkForm.RAW, WorkForm.BINARY, WorkForm.SERVICE]

_SINGLE_PRIMARY_KINDS = [
    ActionKind.COPY,
    ActionKind.MODIFY,
    ActionKind.AMALGAMATE,
    ActionKind.GENERATE,
    ActionKind.DISTILL,
    ActionKind.EMBED,
]


def _pick_typing(rng: random.Random) -> tuple[WorkType, WorkForm]:
    work_type = rng.choice(list(WorkType))
    if rng.random() < 0.15:
        return work_type, rng.choice(_BARE_FORMS)
    return work_type, rng.choice(_CONCRETE_FORMS[work_type])


def _pick_license(rng: random.Random) -> str | None:
    if rng.random() < 0.45:
        return None
    return rng.choice(LICENSE_POOL)


def _new_work(graph: WorkflowGraph, rng: random.Random, licensed: bool) -> str:
    wid = f"W{len(graph.works)}"
    work_type, form = _pick_typing(rng)
    add_work(
        graph,
        Work(
            id=wid,
            name=f"Work {wid}",
            work_type=work_type,
            form=form,
            license=_pick_license(rng) if licensed else None,
        ),
    )
    return wid


def _exclusive_releases(graph: WorkflowGraph, rng: random.Random, counter: int) -> None:
    """Modify a new copyleft root, mix the result into a drawn work, and
    publish both under licenses with exclusive terms."""
    mixed_in = rng.choice(sorted(graph.works))
    license_id, work_type, form = rng.choice(_FREEDOM_ROOTS)

    def step(kind, inputs, license=None, manner=None) -> str:
        nonlocal counter
        wid = f"W{len(graph.works)}"
        add_work(graph, Work(wid, f"Work {wid}", work_type, form, license=license))
        if kind is not None:
            counter += 1
            add_action(graph, ActionNode(
                id=f"A{counter}",
                kind=kind,
                inputs=[ActionInput(w) for w in inputs],
                output=wid,
                publish_manner=manner,
                publish_form=form if manner is not None else None,
            ))
        return wid

    root = step(None, [], license_id)
    derived = step(ActionKind.MODIFY, [root])
    mixed = step(ActionKind.COMBINE, [derived, mixed_in])
    for source in (derived, mixed):
        manner = rng.choice(list(PublishManner))
        step(ActionKind.PUBLISH, [source], rng.choice(EXCLUSIVE_POOL), manner)


def random_graph(seed: int, max_works: int = 6, exclusive: bool = False) -> WorkflowGraph:
    """A structurally valid random workflow, derived works created by actions.

    With `exclusive`, every published work is declared under a license of
    `EXCLUSIVE_POOL`, and `_exclusive_releases` adds two such releases that
    share a work ruled by a copyleft license. Without it, a seed draws the
    graph it always has. An exclusive graph cannot be written as `.mgw`:
    `parse_workflow` refuses a license declared on a published work.
    """
    rng = random.Random(seed)
    graph = WorkflowGraph()
    for _ in range(rng.randint(1, max(1, min(3, max_works - 2)))):
        _new_work(graph, rng, licensed=True)

    counter = 0
    while len(graph.works) < max_works - 1:
        counter += 1
        existing = sorted(graph.works)
        kind = rng.choice(
            _SINGLE_PRIMARY_KINDS
            + [
                ActionKind.COMBINE,
                ActionKind.TRAIN,
                ActionKind.PUBLISH,
                ActionKind.REGISTER_LICENSE,
            ]
        )
        inputs: list[ActionInput] = []
        copublish: set[str] = set()
        manner = None
        registered = None
        if kind in (ActionKind.PUBLISH, ActionKind.REGISTER_LICENSE):
            inputs = [ActionInput(rng.choice(existing))]
            if kind is ActionKind.PUBLISH:
                manner = rng.choice(list(PublishManner))
            else:
                registered = rng.choice(LICENSE_POOL)
        else:
            if kind is ActionKind.COMBINE:
                primaries = rng.sample(existing, rng.randint(1, min(3, len(existing))))
            else:
                primaries = [rng.choice(existing)]
            inputs = [ActionInput(w) for w in primaries]
            if kind is ActionKind.TRAIN:
                rest = [w for w in existing if w not in primaries]
                training = rng.sample(rest, min(len(rest), rng.randint(0, 2)))
                inputs += [ActionInput(w, InputRole.TRAINING_DATA) for w in training]
                copublish = {w for w in training if rng.random() < 0.5}
            taken = {inp.work for inp in inputs}
            spare = [w for w in existing if w not in taken]
            if spare and rng.random() < 0.3:
                inputs.append(ActionInput(rng.choice(spare), InputRole.AUXILIARY))

        output = _new_work(graph, rng, licensed=False)
        if exclusive and kind is ActionKind.PUBLISH:
            graph.works[output].license = rng.choice(EXCLUSIVE_POOL)
        add_action(
            graph,
            ActionNode(
                id=f"A{counter}",
                kind=kind,
                inputs=inputs,
                output=output,
                publish_manner=manner,
                publish_form=graph.works[output].form if manner is not None else None,
                license_to_register=registered,
                copublish=copublish,
            ),
        )

    has_publish = any(
        a.kind is ActionKind.PUBLISH for a in graph.actions.values()
    )
    if not has_publish:
        produced = {a.output for a in graph.actions.values()}
        interesting = sorted(produced) or sorted(graph.works)
        source = rng.choice(interesting)
        wid = f"W{len(graph.works)}"
        add_work(
            graph,
            Work(
                id=wid,
                name=f"Work {wid}",
                work_type=graph.works[source].work_type,
                form=graph.works[source].form,
                license=rng.choice(EXCLUSIVE_POOL) if exclusive else None,
            ),
        )
        add_action(
            graph,
            ActionNode(
                id=f"A{counter + 1}",
                kind=ActionKind.PUBLISH,
                inputs=[ActionInput(source)],
                output=wid,
                publish_manner=rng.choice(list(PublishManner)),
                publish_form=graph.works[wid].form,
            ),
        )
        counter += 1
    if exclusive:
        _exclusive_releases(graph, rng, counter)
    return graph
