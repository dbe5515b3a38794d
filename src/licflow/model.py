"""Typed workflow graphs for license-aware dependency analysis.

A workflow is a directed acyclic graph of works (code, datasets, models)
connected by actions (copy, combine, train, publish, ...). Each action
consumes one or more input works and produces exactly one output work.
The reasoner later attaches dependency edges, rulings and rights requests
to the same graph object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

from .reports import Report, ReportCode, render

if TYPE_CHECKING:
    from .reasoner import Licensing, RequestRecord, RulingRecord


class GraphError(ValueError):
    """Base class for graph construction and validation failures."""


class DuplicateId(GraphError):
    """A work or action id is already taken in this graph."""


class UnknownWork(GraphError):
    """An action references a work id that is not in the graph."""


class ArityViolation(GraphError):
    """An action's inputs or fields do not fit its kind."""


class DoubleProducer(GraphError):
    """Two actions claim the same output work."""


class CycleIntroduced(GraphError):
    """An action would make a work depend on itself."""


class InvalidWorkflow(GraphError):
    """Works whose declared type and form cannot go together; `reports` holds their E1s."""

    def __init__(self, reports: list[Report]) -> None:
        # The reports are the one argument, so a pickled copy is built again from them.
        super().__init__(reports)
        self.reports = reports

    def __str__(self) -> str:
        return "; ".join(f"work '{r.subject}': {r.content}" for r in self.reports)


class WorkType(Enum):
    # Members are singletons: identity hashing is exact and skips `Enum.__hash__`.
    __hash__ = object.__hash__
    SOFTWARE = "software"
    DATASET = "dataset"
    MODEL = "model"
    MIXED = "mixed"


class WorkForm(Enum):
    """Concrete distribution forms plus one bare placeholder per category."""

    __hash__ = object.__hash__
    CODE = "code"
    WEIGHTS = "weights"
    CORPUS = "corpus"
    TEXT = "text"
    IMAGE = "image"
    EXE = "exe"
    SAAS = "saas"
    API = "api"
    RAW = "raw"
    BINARY = "binary"
    SERVICE = "service"
    MIXED = "mixed"

    @property
    def category(self) -> WorkForm:
        """The bare form of the category this form belongs to."""
        return _FORM_CATEGORY[self]

    @property
    def is_bare(self) -> bool:
        """True for the category placeholders that carry no concrete label."""
        return self.category is self


class Origin(Enum):
    USER_DECLARED = "user_declared"
    DERIVED = "derived"


class ActionKind(Enum):
    __hash__ = object.__hash__
    COPY = "copy"
    COMBINE = "combine"
    MODIFY = "modify"
    AMALGAMATE = "amalgamate"
    TRAIN = "train"
    GENERATE = "generate"
    DISTILL = "distill"
    EMBED = "embed"
    PUBLISH = "publish"
    REGISTER_LICENSE = "register_license"


class InputRole(Enum):
    PRIMARY = "primary"
    AUXILIARY = "auxiliary"
    TRAINING_DATA = "training_data"


class PublishManner(Enum):
    __hash__ = object.__hash__
    INTERNAL = "internal"
    SHARE = "share"
    SELL = "sell"


class EdgeKind(Enum):
    __hash__ = object.__hash__
    MIXWORK = "mixwork"
    SUBWORK = "subwork"
    AUXWORK = "auxwork"
    PROVENANCE = "provenance"


_FORM_CATEGORY = {
    WorkForm.CODE: WorkForm.RAW,
    WorkForm.WEIGHTS: WorkForm.RAW,
    WorkForm.CORPUS: WorkForm.RAW,
    WorkForm.TEXT: WorkForm.RAW,
    WorkForm.IMAGE: WorkForm.RAW,
    WorkForm.EXE: WorkForm.BINARY,
    WorkForm.SAAS: WorkForm.SERVICE,
    WorkForm.API: WorkForm.SERVICE,
    WorkForm.RAW: WorkForm.RAW,
    WorkForm.BINARY: WorkForm.BINARY,
    WorkForm.SERVICE: WorkForm.SERVICE,
    WorkForm.MIXED: WorkForm.MIXED,
}

# Concrete forms each work type may take. Bare forms are always acceptable
# because they make no claim about the concrete artifact.
_VALID_FORMS = {
    WorkType.SOFTWARE: {WorkForm.CODE, WorkForm.EXE, WorkForm.SAAS, WorkForm.API},
    WorkType.MODEL: {WorkForm.WEIGHTS, WorkForm.EXE, WorkForm.SAAS, WorkForm.API},
    WorkType.DATASET: {WorkForm.CORPUS, WorkForm.TEXT, WorkForm.IMAGE, WorkForm.API},
}


@dataclass
class Work:
    id: str
    name: str
    work_type: WorkType
    form: WorkForm
    license: Optional[str] = None
    origin: Origin = Origin.USER_DECLARED


class ActionInput(NamedTuple):
    work: str
    role: InputRole = InputRole.PRIMARY


@dataclass
class ActionNode:
    id: str
    kind: ActionKind
    inputs: list[ActionInput]
    output: str
    publish_manner: Optional[PublishManner] = None
    publish_form: Optional[WorkForm] = None
    license_to_register: Optional[str] = None
    # Training-data inputs listed here are treated as co-published parts of
    # the trained model rather than discarded raw material.
    copublish: set[str] = field(default_factory=set)


class DependencyEdge(NamedTuple):
    """Edge from an ingredient work to the work that contains or uses it."""

    kind: EdgeKind
    source: str
    target: str


@dataclass
class WorkflowGraph:
    works: dict[str, Work] = field(default_factory=dict)
    actions: dict[str, ActionNode] = field(default_factory=dict)
    edges: list[DependencyEdge] = field(default_factory=list)
    rulings: list[RulingRecord] = field(default_factory=list)
    requests: list[RequestRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Derived from `actions` and kept current by `add_action`: each
        # work's producing action, and the outputs of the actions consuming it.
        self.producers: dict[str, ActionNode] = {}
        self.consumers: dict[str, list[str]] = {}
        # Each work's settled licensing, written by `determine_licenses`.
        self.licensing: dict[str, Licensing] = {}
        for action in self.actions.values():
            _link_action(self, action)


def _link_action(graph: WorkflowGraph, action: ActionNode) -> None:
    graph.producers[action.output] = action
    for work_id in dict.fromkeys(inp.work for inp in action.inputs):
        graph.consumers.setdefault(work_id, []).append(action.output)


def form_is_valid(work_type: WorkType, form: WorkForm) -> bool:
    """Check whether a concrete form is plausible for a work type."""
    if form.is_bare or work_type is WorkType.MIXED:
        return True
    return form in _VALID_FORMS[work_type]


def add_work(graph: WorkflowGraph, work: Work) -> None:
    if work.id in graph.works or work.id in graph.actions:
        raise DuplicateId(f"id {work.id!r} is already used in this graph")
    graph.works[work.id] = work


def edge_parents(
    graph: WorkflowGraph, kinds: tuple[EdgeKind, ...]
) -> dict[str, list[str]]:
    """Sources of the edges of the given kinds, by target, each list sorted."""
    parents: dict[str, list[str]] = {}
    for edge in graph.edges:
        if edge.kind in kinds:
            parents.setdefault(edge.target, []).append(edge.source)
    for sources in parents.values():
        sources.sort()
    return parents


def closure(start: str, parents: Mapping[str, Iterable[str]]) -> set[str]:
    """`start` plus every id reachable from it backwards through `parents`."""
    seen = {start}
    stack = [start]
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def _check_arity(graph: WorkflowGraph, action: ActionNode) -> None:
    roles = [inp.role for inp in action.inputs]
    primaries = roles.count(InputRole.PRIMARY)
    training = roles.count(InputRole.TRAINING_DATA)

    if training and action.kind is not ActionKind.TRAIN:
        raise ArityViolation(
            f"action {action.id!r}: training data inputs are only valid on train"
        )
    if action.kind in (ActionKind.PUBLISH, ActionKind.REGISTER_LICENSE):
        if len(action.inputs) != 1 or primaries != 1:
            raise ArityViolation(
                f"action {action.id!r}: {action.kind.value} takes exactly one primary input"
            )
    elif action.kind is ActionKind.COMBINE:
        if primaries < 1:
            raise ArityViolation(
                f"action {action.id!r}: combine needs at least one primary input"
            )
    else:
        if primaries != 1:
            raise ArityViolation(
                f"action {action.id!r}: {action.kind.value} takes exactly one primary input"
            )

    if action.kind is ActionKind.PUBLISH:
        if action.publish_manner is None:
            raise ArityViolation(f"action {action.id!r}: publish requires a manner")
    elif action.publish_manner is not None:
        raise ArityViolation(
            f"action {action.id!r}: publish manner is only valid on publish"
        )
    if action.publish_form is not None and action.kind is not ActionKind.PUBLISH:
        raise ArityViolation(
            f"action {action.id!r}: publish form is only valid on publish"
        )
    if action.kind is ActionKind.REGISTER_LICENSE:
        if not action.license_to_register:
            raise ArityViolation(
                f"action {action.id!r}: register_license requires a license id"
            )
    elif action.license_to_register is not None:
        raise ArityViolation(
            f"action {action.id!r}: a license can only be set by register_license"
        )
    if action.copublish:
        training_ids = {
            inp.work for inp in action.inputs if inp.role is InputRole.TRAINING_DATA
        }
        stray = action.copublish - training_ids
        if stray:
            raise ArityViolation(
                f"action {action.id!r}: copublish names non training data inputs: "
                + ", ".join(sorted(stray))
            )


def _feeds_any(graph: WorkflowGraph, output: str, inputs: list[str]) -> bool:
    """Whether `output` already feeds one of `inputs`, walking from both ends.

    Each side grows by one work in turn until they meet or either runs
    out, so the walk stays within twice the smaller side.
    """
    down, up = {output}, set(inputs)
    down_stack, up_stack = [output], list(up)
    while down_stack and up_stack:
        later = set(graph.consumers.get(down_stack.pop(), ())) - down
        if not later.isdisjoint(up):
            return True
        down |= later
        down_stack += later
        producer = graph.producers.get(up_stack.pop())
        earlier = set() if producer is None else {inp.work for inp in producer.inputs} - up
        if not earlier.isdisjoint(down):
            return True
        up |= earlier
        up_stack += earlier
    return False


def add_action(graph: WorkflowGraph, action: ActionNode) -> None:
    if action.id in graph.actions or action.id in graph.works:
        raise DuplicateId(f"id {action.id!r} is already used in this graph")
    for inp in action.inputs:
        if inp.work not in graph.works:
            raise UnknownWork(f"action {action.id!r}: unknown input work {inp.work!r}")
    if action.output not in graph.works:
        raise UnknownWork(f"action {action.id!r}: unknown output work {action.output!r}")
    _check_arity(graph, action)
    if action.output in graph.producers:
        raise DoubleProducer(
            f"work {action.output!r} is already produced by another action"
        )
    if action.publish_form is not None:
        declared = graph.works[action.output].form
        if action.publish_form is not declared:
            raise ArityViolation(
                f"action {action.id!r}: publish form {action.publish_form.value!r} "
                f"does not match output form {declared.value!r}"
            )
    input_ids = [inp.work for inp in action.inputs]
    if action.output in input_ids:
        raise CycleIntroduced(f"action {action.id!r}: output is also an input")
    if _feeds_any(graph, action.output, input_ids):
        work_id = next(w for w in input_ids if w in closure(action.output, graph.consumers))
        raise CycleIntroduced(
            f"action {action.id!r}: output {action.output!r} already feeds "
            f"input {work_id!r}"
        )
    graph.actions[action.id] = action
    _link_action(graph, action)


def toposort_actions(graph: WorkflowGraph) -> list[ActionNode]:
    """Actions in dependency order, level by level (Kahn), ties broken by id."""
    producers = graph.producers
    waiting = {
        aid: len({inp.work for inp in action.inputs if inp.work in producers})
        for aid, action in graph.actions.items()
    }
    level = sorted(aid for aid, count in waiting.items() if not count)
    ordered: list[ActionNode] = []
    while level:
        released = []
        for aid in level:
            action = graph.actions[aid]
            ordered.append(action)
            for output in graph.consumers.get(action.output, ()):
                consumer = producers[output].id
                waiting[consumer] -= 1
                if not waiting[consumer]:
                    released.append(consumer)
        level = sorted(released)
    if len(ordered) < len(graph.actions):
        raise CycleIntroduced("action graph contains a cycle")
    return ordered


def generalize_output_typing(
    types: Sequence[WorkType], forms: Sequence[WorkForm]
) -> tuple[WorkType, WorkForm]:
    """Pick the output type and form for an action that merges several works.

    Identical labels survive, labels that only agree on their category
    collapse to the bare category form, and anything else becomes mixed.
    """
    if not types or not forms:
        raise ValueError("generalize_output_typing needs at least one input")
    type_set = set(types)
    out_type = type_set.pop() if len(type_set) == 1 else WorkType.MIXED
    form_set = set(forms)
    if len(form_set) == 1:
        out_form = form_set.pop()
    else:
        categories = {f.category for f in form_set}
        if len(categories) == 1:
            out_form = categories.pop()
        else:
            out_form = WorkForm.MIXED
    return out_type, out_form


def validate_graph(graph: WorkflowGraph) -> list[Report]:
    """Report every work whose declared type and form cannot go together."""
    return [
        Report(ReportCode.E1, wid, wid, render(ReportCode.E1, work.name))
        for wid, work in sorted(graph.works.items())
        if not form_is_valid(work.work_type, work.form)
    ]
