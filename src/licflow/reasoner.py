"""Forward chaining reasoner over workflow graphs.

Three derivation stages run in order. The compositional stage turns
actions into dependency edges. The ruling stage matches license rules
against every action and every work it relies on, interleaved with
license determination until a fixpoint is reached. The request stage
derives the usage rights each action needs from the works it touches.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .kb import (
    KnowledgeBase,
    OutputDefinition,
    RelicensePolicy,
    Requirement,
    UnknownLicense,
    Usage,
    match_rules,
    usage_requirement,
)
from .model import (
    ActionInput,
    ActionKind,
    ActionNode,
    ArityViolation,
    DependencyEdge,
    EdgeKind,
    InputRole,
    InvalidWorkflow,
    Origin,
    PublishManner,
    Work,
    WorkflowGraph,
    closure,
    edge_parents,
    toposort_actions,
    validate_graph,
)

# Works whose licensing was never settled default to a public domain
# standing rather than blocking the analysis.
DEFAULT_LICENSE = "Unlicense"

# Builds a record from a tuple of its fields, skipping its Python `__new__`.
_new = tuple.__new__


class RulingRecord(NamedTuple):
    """One license rule that fired for a work, via one relied-upon input."""

    work: str
    relied_work: str
    rule: str
    output_def: OutputDefinition

    @property
    def id(self) -> str:
        return f"rul:{self.work}:{self.relied_work}:{self.rule}"


class RequestRecord(NamedTuple):
    """One usage right an action needs from one work it depends on."""

    action: str
    source_work: str
    target_work: str
    usage: Usage

    @property
    def id(self) -> str:
        return f"req:{self.action}:{self.source_work}:{self.target_work}:{self.usage.value}"


@dataclass(frozen=True)
class DeferredConflict:
    """A work whose rulings could not be licensed consistently."""

    work: str
    implicated: tuple[str, ...]


class Licensing(NamedTuple):
    """One work's licensing as `determine_licenses` settled it; works share equal sets."""

    license: str  # the license settlement picked; a declared one stands
    conflict: Optional[DeferredConflict]
    members: frozenset[str]  # the licenses that speak for the work
    admitted: Optional[frozenset[str]]  # what its rulings admit, None if unconstrained


@dataclass
class FixpointStats:
    iterations: int = 0
    records_created: int = 0


_IDENTITY_KINDS = {ActionKind.COPY, ActionKind.PUBLISH}

_KIND_USAGES = {
    ActionKind.COPY: (Usage.USE,),
    ActionKind.COMBINE: (Usage.USE,),
    ActionKind.GENERATE: (Usage.USE,),
    ActionKind.DISTILL: (Usage.USE,),
    ActionKind.EMBED: (Usage.USE,),
    ActionKind.MODIFY: (Usage.USE, Usage.MODIFY),
    ActionKind.AMALGAMATE: (Usage.USE, Usage.MODIFY),
    ActionKind.TRAIN: (Usage.USE, Usage.MODIFY),
    ActionKind.REGISTER_LICENSE: (),
}

_MANNER_USAGES = {
    PublishManner.INTERNAL: (Usage.USE,),
    PublishManner.SHARE: (Usage.USE, Usage.REDISTRIBUTE),
    PublishManner.SELL: (Usage.USE, Usage.REDISTRIBUTE, Usage.COMMERCIAL, Usage.SUBLICENSE),
}


def action_usages(action: ActionNode) -> tuple[Usage, ...]:
    """Usage rights one action requires from the works it consumes."""
    if action.kind is ActionKind.PUBLISH:
        if action.publish_manner is None:
            raise ArityViolation(f"action {action.id!r}: publish requires a manner")
        return _MANNER_USAGES[action.publish_manner]
    return _KIND_USAGES[action.kind]


_AUXILIARY_KINDS = (ActionKind.GENERATE, ActionKind.DISTILL, ActionKind.EMBED)


def _edge_kind(action: ActionNode, inp: ActionInput) -> EdgeKind:
    """How one input of a structurally valid action goes into its output."""
    if action.kind is ActionKind.REGISTER_LICENSE:
        return EdgeKind.PROVENANCE
    if inp.role is InputRole.TRAINING_DATA:
        return EdgeKind.SUBWORK if inp.work in action.copublish else EdgeKind.AUXWORK
    if inp.role is InputRole.AUXILIARY or action.kind in _AUXILIARY_KINDS:
        return EdgeKind.AUXWORK
    return EdgeKind.MIXWORK


def derive_compositional(graph: WorkflowGraph) -> WorkflowGraph:
    """Attach one dependency edge per action input, typed by action kind."""
    edges = {
        DependencyEdge(_edge_kind(action, inp), inp.work, action.output)
        for action in graph.actions.values()
        for inp in action.inputs
    }
    graph.edges = sorted(edges, key=lambda e: (e.kind.value, e.source, e.target))
    return graph


def base_license(work: Work, produced: bool) -> Optional[str]:
    """The license a work starts reasoning with: a derived one is derived again.

    The reasoner derives every produced work's license but gives a root
    only the default, so any other license on a root was stated by hand.
    """
    if work.origin is Origin.DERIVED and (produced or work.license == DEFAULT_LICENSE):
        return None
    return work.license


def _declared_license(work: Work) -> Optional[str]:
    """The license a user gave the work, None if it is unset or derived."""
    return work.license if work.origin is Origin.USER_DECLARED else None


def _normalized_kind(action: ActionNode) -> ActionKind:
    # Combining a single work adds nothing of its own; treat it as a copy.
    if action.kind is ActionKind.COMBINE:
        primaries = sum(1 for inp in action.inputs if inp.role is InputRole.PRIMARY)
        if primaries == 1:
            return ActionKind.COPY
    return action.kind


def _relied_sources(
    action: ActionNode,
    action_kind: ActionKind,
    mix_parents: dict[str, list[str]],
    through: dict[str, ActionKind],
) -> list[tuple[str, ActionKind]]:
    """Every work this action relies on, with the kind that shaped it.

    Each direct input is relied upon. Works without a license of their
    own are transparent: whatever they mix in is relied upon as well,
    following Mixwork edges only. Copies and publications pass material
    through unchanged, so the transforming step nearest the action sets
    the kind; over pure pass-throughs the step nearest the relied work
    does. Walking backwards, a state keeps its kind unless that kind is a
    copy or publish, in which case the producer's kind replaces it. Each
    (work, kind) state is visited once. `action_kind` is the action's own;
    `through` maps each produced work without a declared license to the
    kind of its producer.
    """
    stack = [(inp.work, action_kind) for inp in action.inputs]
    seen: set[tuple[str, ActionKind]] = set()
    results: list[tuple[str, ActionKind]] = []
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        results.append(state)
        work_id, kind = state
        producer_kind = through.get(work_id)
        if producer_kind is None:
            continue
        if kind in _IDENTITY_KINDS:
            kind = producer_kind
        for parent in mix_parents.get(work_id, ()):
            stack.append((parent, kind))
    return results


# A work's none-allowed and compatible-only licenses.
_Held = tuple[set[str], set[str]]


def _licensing(
    work: Work, producer: Optional[ActionNode], held: _Held, kb: KnowledgeBase
) -> Licensing:
    """The licensing of a work holding these none-allowed and compatible-only licenses.

    Each held license pins the work. A none-allowed one admits itself
    alone, a compatible-only one every license compatible with it, and
    the work admits what all of them admit (None if nothing is held).
    A declared license stands and speaks alone, then a registered one.
    Otherwise the smallest admitted license wins, a pinned one before
    any other. With nothing admitted the first pinned copyleft license,
    or else the first pinned license, stands in and the work is in
    conflict. A derived work answers to every license it is pinned to,
    as any of them could claim it.
    """
    none_allowed, compat_only = held
    pinned = none_allowed | compat_only
    admitted = None
    if pinned:
        terms = [{license_id} for license_id in none_allowed]
        terms += (kb.profile(license_id).compatible_with for license_id in sorted(compat_only))
        admitted = frozenset(set.intersection(*terms))
    license_id = _declared_license(work)
    if license_id is not None:
        return _new(Licensing, (license_id, None, frozenset({license_id}), admitted))
    conflict = None
    # Only a register_license action carries a license to register.
    if producer is not None and producer.license_to_register is not None:
        license_id = producer.license_to_register
    elif admitted is None:
        license_id = DEFAULT_LICENSE
    elif admitted:
        license_id = min(admitted & pinned or admitted)
    else:
        implicated = sorted(pinned)
        copyleft = [lid for lid in implicated if kb.profile(lid).copyleft]
        license_id = (copyleft or implicated)[0]
        conflict = DeferredConflict(work.id, tuple(implicated))
    return _new(Licensing, (license_id, conflict, frozenset({license_id, *pinned}), admitted))


def _pin_round(
    pins: dict[str, _Held], rulings: Iterable[RulingRecord], kb: KnowledgeBase
) -> list[str]:
    """Add the license each ruling pins its work to; the works whose held sets grew."""
    grown: dict[str, None] = {}
    for record in rulings:
        held, rule = pins.get(record.work), kb.rules.get(record.rule)
        if held is None or rule is None:
            continue
        if rule.relicense is RelicensePolicy.NONE_ALLOWED:
            licenses = held[0]
        elif rule.relicense is RelicensePolicy.COMPATIBLE_ONLY:
            licenses = held[1]
        else:
            continue
        if rule.license not in licenses:
            licenses.add(rule.license)
            grown[record.work] = None
    return list(grown)


def _ruling_fixpoint(graph: WorkflowGraph, kb: KnowledgeBase, fuzz: bool) -> int:
    """Accumulate rulings until neither rulings nor licenses move.

    A relied-upon work is matched under the kind of the transforming step
    nearest the action or, over copies and publications alone, the step
    nearest the work (see `_relied_sources`). Rulings are never retracted,
    and a work's license and members depend only on the licenses its
    rulings pin it to, so each relied work holds those, adds each round's
    new rulings to them and is settled again only when they grow. It is
    matched once per license it answers to, and each distinct (license,
    kind, forms) match is made once per run.
    """
    mix_parents = edge_parents(graph, (EdgeKind.MIXWORK,))
    kinds = {a.output: _normalized_kind(a) for a in graph.actions.values()}
    through = {w: k for w, k in kinds.items() if _declared_license(graph.works[w]) is None}
    # Per relied work: the index of each distinct (kind, output form) group,
    # and the output and group index of each action relying on it, in order.
    relied_by: dict[str, tuple[dict, list[tuple[str, int]]]] = {}
    for action in toposort_actions(graph):
        out_form = graph.works[action.output].form
        relied = _relied_sources(action, kinds[action.output], mix_parents, through)
        for source, kind in relied:
            groups, outputs = relied_by.get(source) or relied_by.setdefault(source, ({}, []))
            group = groups.setdefault((kind, out_form), len(groups))
            outputs.append((action.output, group))
    pins = {source: (set(), set()) for source in relied_by}
    _pin_round(pins, graph.rulings, kb)
    known = {(r.work, r.relied_work, r.rule) for r in graph.rulings}
    matched: dict[str, set[str]] = {source: set() for source in relied_by}
    # The rules each (license, kind, input form, output form) fires.
    match = functools.cache(lambda *key: match_rules(kb, *key, fuzz))
    changed: Iterable[str] = relied_by
    iterations = 0
    # Each round but the last adds a new (work, relied work, rule) key,
    # and there are finitely many, so the loop ends.
    while True:
        iterations += 1
        fresh: list[RulingRecord] = []
        for source in sorted(changed):
            work = graph.works[source]
            members = _licensing(work, graph.producers.get(source), pins[source], kb).members
            unmatched = members.intersection(kb.licenses) - matched[source]
            matched[source] |= unmatched
            groups, outputs = relied_by[source]
            for license_id in sorted(unmatched):
                hits = [match(license_id, kind, work.form, out) for kind, out in groups]
                if not any(hits):
                    continue
                for output, group in outputs:
                    for rule in hits[group]:
                        key = (output, source, rule.id)
                        if key not in known:
                            known.add(key)
                            fresh.append(
                                RulingRecord(output, source, rule.id, rule.output_def)
                            )
        if not fresh:
            return iterations
        graph.rulings.extend(fresh)
        changed = _pin_round(pins, fresh, kb)


def derive_rulings(
    graph: WorkflowGraph, kb: KnowledgeBase, fuzz: bool = True
) -> WorkflowGraph:
    """Run the ruling stage to its fixpoint. Licenses are left unwritten."""
    _ruling_fixpoint(graph, kb, fuzz)
    return graph


def determine_licenses(
    graph: WorkflowGraph, kb: KnowledgeBase
) -> tuple[WorkflowGraph, list[DeferredConflict]]:
    """Write each work's license, keeping declared ones; conflicts in work-id order.

    Each work's `Licensing` goes to `graph.licensing`, which later stages
    read. Licenses derived by an earlier run are derived again.
    """
    pins = {wid: (set(), set()) for wid in graph.works}
    _pin_round(pins, graph.rulings, kb)
    shared: dict[frozenset[str], frozenset[str]] = {}
    graph.licensing = {}
    for wid, work in sorted(graph.works.items()):
        license_id, conflict, members, admitted = _licensing(
            work, graph.producers.get(wid), pins[wid], kb
        )
        if _declared_license(work) is None:
            work.license, work.origin = license_id, Origin.DERIVED
        if admitted is not None:
            admitted = shared.setdefault(admitted, admitted)
        members = shared.setdefault(members, members)
        graph.licensing[wid] = _new(Licensing, (license_id, conflict, members, admitted))
    records = graph.licensing.values()
    return graph, [record.conflict for record in records if record.conflict is not None]


def settled_licensing(graph: WorkflowGraph) -> dict[str, Licensing]:
    """Each work's `Licensing`; ValueError if its licenses were never determined."""
    if not graph.works.keys() <= graph.licensing.keys():
        raise ValueError("licenses not determined: run run_all or determine_licenses first")
    return graph.licensing


def derive_requests(graph: WorkflowGraph, kb: KnowledgeBase) -> WorkflowGraph:
    """Replace `graph.requests` with the rights each action needs, licenses settled."""
    mix_parents = edge_parents(graph, (EdgeKind.MIXWORK,))
    licensing = settled_licensing(graph)
    # Each consumed work's sorted Mixwork closure, and whether every license
    # speaking for a work waives sublicensing, are settled once per work.
    closures = {wid: sorted(closure(wid, mix_parents)) for wid in graph.consumers}
    waived: dict[str, bool] = {}
    for wid in graph.works:
        answers = [
            usage_requirement(kb, license_id, Usage.SUBLICENSE)
            for license_id in licensing[wid].members.intersection(kb.licenses)
        ]
        waived[wid] = bool(answers) and all(a is Requirement.WAIVED for a in answers)
    # Requests made here are distinct: each names its action and source.
    requests: list[RequestRecord] = []
    for action in toposort_actions(graph):
        usages = sorted(action_usages(action), key=lambda u: u.value)
        # The usages asked of a target, by whether it waives sublicensing.
        asked = (usages, [u for u in usages if u is not Usage.SUBLICENSE])
        for source in dict.fromkeys(inp.work for inp in action.inputs):
            for target in closures[source]:
                for usage in asked[waived[target]]:
                    requests.append(_new(RequestRecord, (action.id, source, target, usage)))
    graph.requests = requests
    return graph


def refuse_unknown_licenses(graph: WorkflowGraph, kb: KnowledgeBase) -> None:
    """Raise `UnknownLicense` naming each declared or registered id `kb` lacks."""
    unknown = [
        f"work '{wid}' declares unknown license '{work.license}'"
        for wid, work in sorted(graph.works.items())
        if work.license is not None and work.license not in kb.licenses
    ]
    unknown += [
        f"action '{aid}' registers unknown license '{action.license_to_register}'"
        for aid, action in sorted(graph.actions.items())
        if action.license_to_register is not None
        and action.license_to_register not in kb.licenses
    ]
    if unknown:
        raise UnknownLicense("; ".join(unknown))


def run_all(
    graph: WorkflowGraph, kb: KnowledgeBase, fuzz: bool = True
) -> tuple[WorkflowGraph, FixpointStats]:
    """Run every derivation stage on a copy of the graph; unknown ids, then E1s, raise."""
    # The stages skip unknown ids, which would drop every finding they bear,
    # and a workflow with an E1 has no findings but its E1s.
    refuse_unknown_licenses(graph, kb)
    if structural := validate_graph(graph):
        raise InvalidWorkflow(structural)
    # Derived records and licenses are dropped; the graph maps are rebuilt.
    works = {
        wid: Work(wid, w.name, w.work_type, w.form, base_license(w, wid in graph.producers))
        for wid, w in graph.works.items()
    }
    actions = {
        aid: ActionNode(aid, a.kind, list(a.inputs), a.output, a.publish_manner,
                        a.publish_form, a.license_to_register, set(a.copublish))
        for aid, a in graph.actions.items()
    }
    result = WorkflowGraph(works=works, actions=actions)
    derive_compositional(result)
    iterations = _ruling_fixpoint(result, kb, fuzz)
    determine_licenses(result, kb)
    derive_requests(result, kb)
    return result, FixpointStats(iterations, len(result.rulings) + len(result.requests))
