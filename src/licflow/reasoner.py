"""Forward chaining reasoner over workflow graphs.

Three derivation stages run in order. The compositional stage turns
actions into dependency edges. The ruling stage matches license rules
against every action and every work it relies on, interleaved with
license determination until a fixpoint is reached. The request stage
derives the usage rights each action needs from the works it touches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .kb import (
    KnowledgeBase,
    OutputDefinition,
    RelicensePolicy,
    Requirement,
    Usage,
    are_compatible,
    match_rules,
    usage_requirement,
)
from .model import (
    ActionKind,
    ActionNode,
    ArityViolation,
    DependencyEdge,
    EdgeKind,
    InputRole,
    Origin,
    PublishManner,
    Work,
    WorkflowGraph,
    closure,
    edge_parents,
    toposort_actions,
)

# Works whose licensing was never settled default to a public domain
# standing rather than blocking the analysis.
DEFAULT_LICENSE = "Unlicense"


@dataclass(frozen=True, slots=True)
class RulingRecord:
    """One license rule that fired for a work, via one relied-upon input."""

    work: str
    relied_work: str
    rule: str
    output_def: OutputDefinition

    @property
    def id(self) -> str:
        return f"rul:{self.work}:{self.relied_work}:{self.rule}"


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One usage right an action needs from one work it depends on."""

    action: str
    source_work: str
    target_work: str
    usage: Usage

    @property
    def id(self) -> str:
        return (
            f"req:{self.action}:{self.source_work}:"
            f"{self.target_work}:{self.usage.value}"
        )


@dataclass(frozen=True)
class DeferredConflict:
    """A work whose rulings could not be licensed consistently."""

    work: str
    implicated: tuple[str, ...]


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
    PublishManner.SELL: (
        Usage.USE,
        Usage.REDISTRIBUTE,
        Usage.COMMERCIAL,
        Usage.SUBLICENSE,
    ),
}


def action_usages(action: ActionNode) -> tuple[Usage, ...]:
    """Usage rights one action requires from the works it consumes."""
    if action.kind is ActionKind.PUBLISH:
        if action.publish_manner is None:
            raise ArityViolation(f"action {action.id!r}: publish requires a manner")
        return _MANNER_USAGES[action.publish_manner]
    return _KIND_USAGES[action.kind]


def derive_compositional(graph: WorkflowGraph) -> WorkflowGraph:
    """Attach one dependency edge per action input, typed by action kind."""
    edges: set[DependencyEdge] = set()
    for action in graph.actions.values():
        out = action.output
        primary = next(
            inp.work for inp in action.inputs if inp.role is InputRole.PRIMARY
        )
        if action.kind is ActionKind.REGISTER_LICENSE:
            edges.add(DependencyEdge(EdgeKind.PROVENANCE, primary, out))
            continue
        if action.kind is ActionKind.COMBINE:
            for inp in action.inputs:
                if inp.role is InputRole.PRIMARY:
                    edges.add(DependencyEdge(EdgeKind.MIXWORK, inp.work, out))
        elif action.kind in (ActionKind.GENERATE, ActionKind.DISTILL, ActionKind.EMBED):
            edges.add(DependencyEdge(EdgeKind.AUXWORK, primary, out))
        else:
            edges.add(DependencyEdge(EdgeKind.MIXWORK, primary, out))
        if action.kind is ActionKind.TRAIN:
            for inp in action.inputs:
                if inp.role is InputRole.TRAINING_DATA:
                    kind = (
                        EdgeKind.SUBWORK
                        if inp.work in action.copublish
                        else EdgeKind.AUXWORK
                    )
                    edges.add(DependencyEdge(kind, inp.work, out))
        for inp in action.inputs:
            if inp.role is InputRole.AUXILIARY:
                edges.add(DependencyEdge(EdgeKind.AUXWORK, inp.work, out))
    graph.edges = sorted(edges, key=lambda e: (e.kind.value, e.source, e.target))
    return graph


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
    graph: WorkflowGraph,
    action: ActionNode,
    mix_parents: dict[str, list[str]],
    kinds: dict[str, ActionKind],
) -> list[tuple[str, ActionKind]]:
    """Every work this action relies on, with the kind that shaped it.

    Each direct input is relied upon. Works without a license of their
    own are transparent: whatever they mix in is relied upon as well,
    following Mixwork edges only. Copies and publications pass material
    through unchanged, so the transforming step nearest the action sets
    the kind; over pure pass-throughs the step nearest the relied work
    does. Walking backwards, a state keeps its kind unless that kind is a
    copy or publish, in which case the producer's kind replaces it. Each
    (work, kind) state is visited once.
    """
    stack = [(inp.work, kinds[action.id]) for inp in action.inputs]
    seen: set[tuple[str, ActionKind]] = set()
    results: list[tuple[str, ActionKind]] = []
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        results.append(state)
        work_id, kind = state
        producer = graph.producers.get(work_id)
        if _declared_license(graph.works[work_id]) is not None or producer is None:
            continue
        if kind in _IDENTITY_KINDS:
            kind = kinds[producer.id]
        for parent in mix_parents.get(work_id, ()):
            stack.append((parent, kind))
    return results


def relicense_constraints(
    rulings: Iterable[RulingRecord], kb: KnowledgeBase
) -> tuple[set[str], set[str]]:
    """Licenses a work's rulings pin it to, and those that only admit compatibles.

    The first set holds the licenses of rules that allow no relicensing,
    the second those of rules that allow compatible licenses only.
    """
    none_allowed: set[str] = set()
    compat_only: set[str] = set()
    for record in rulings:
        rule = kb.rules.get(record.rule)
        if rule is None:
            continue
        if rule.relicense is RelicensePolicy.NONE_ALLOWED:
            none_allowed.add(rule.license)
        elif rule.relicense is RelicensePolicy.COMPATIBLE_ONLY:
            compat_only.add(rule.license)
    return none_allowed, compat_only


def settle_license(
    work: Work,
    producer: Optional[ActionNode],
    rulings: Iterable[RulingRecord],
    kb: KnowledgeBase,
) -> tuple[str, Optional[DeferredConflict]]:
    """The license a work ends up under, and its conflict if it has one.

    A declared license stands, then a registered one. Otherwise the
    work's own rulings force a license on it, or record a conflict.
    """
    declared = _declared_license(work)
    if declared is not None:
        return declared, None
    if (
        producer is not None
        and producer.kind is ActionKind.REGISTER_LICENSE
        and producer.license_to_register is not None
    ):
        return producer.license_to_register, None
    none_allowed, compat_only = relicense_constraints(rulings, kb)

    def conflicted() -> tuple[str, DeferredConflict]:
        implicated = tuple(sorted(none_allowed | compat_only))
        copyleft = [
            lic
            for lic in implicated
            if lic in kb.licenses and kb.licenses[lic].copyleft
        ]
        chosen = copyleft[0] if copyleft else implicated[0]
        return chosen, DeferredConflict(work.id, implicated)

    if not none_allowed and not compat_only:
        return DEFAULT_LICENSE, None
    if none_allowed:
        if len(none_allowed) > 1:
            return conflicted()
        keeper = next(iter(none_allowed))
        if compat_only:
            if are_compatible(kb, keeper, compat_only) != keeper:
                return conflicted()
        return keeper, None
    preferred = min(compat_only)
    result = are_compatible(kb, preferred, compat_only)
    if result is None:
        return conflicted()
    return result, None


def members_of(
    work: Work,
    license_id: Optional[str],
    rulings: Iterable[RulingRecord],
    kb: KnowledgeBase,
) -> set[str]:
    """Licenses that can speak for a work under `license_id`, given its own rulings.

    A declared license speaks alone. A derived work answers to its
    license plus every license whose non-waiving rules fired on it,
    because any of those could still claim the work.
    """
    members = set() if license_id is None else {license_id}
    if _declared_license(work) is None:
        for record in rulings:
            rule = kb.rules.get(record.rule)
            if rule is not None and rule.relicense is not RelicensePolicy.ANY:
                members.add(rule.license)
    return members


def rulings_by_work(graph: WorkflowGraph) -> dict[str, list[RulingRecord]]:
    by_work: dict[str, list[RulingRecord]] = {}
    for record in graph.rulings:
        by_work.setdefault(record.work, []).append(record)
    return by_work


def _ruling_fixpoint(graph: WorkflowGraph, kb: KnowledgeBase, fuzz: bool) -> int:
    """Accumulate rulings until neither rulings nor licenses move.

    A relied-upon work is matched under the kind of the transforming step
    nearest the action or, over copies and publications alone, the step
    nearest the work (see `_relied_sources`). Rulings are never
    retracted, and a work's license and members depend only on its own
    rulings, so each round settles only the works that gained rulings in
    the round before. Matching depends only on the license, the kind and
    the forms, so each relied work is matched once per license it answers
    to and per (kind, output form) of the actions relying on it.
    """
    mix_parents = edge_parents(graph, (EdgeKind.MIXWORK,))
    kinds = {aid: _normalized_kind(action) for aid, action in graph.actions.items()}
    # Per relied work: its distinct (kind, output form) groups, and the
    # output and group index of each action relying on it, in action order.
    relied_by: dict[str, tuple[list, list[tuple[str, int]]]] = {}
    for action in toposort_actions(graph):
        out_form = graph.works[action.output].form
        for source, kind in _relied_sources(graph, action, mix_parents, kinds):
            groups, outputs = relied_by.setdefault(source, ([], []))
            if (kind, out_form) not in groups:
                groups.append((kind, out_form))
            outputs.append((action.output, groups.index((kind, out_form))))
    by_work = rulings_by_work(graph)
    known = {(r.work, r.relied_work, r.rule) for r in graph.rulings}
    matched: dict[str, set[str]] = {source: set() for source in relied_by}
    changed: Iterable[str] = relied_by
    iterations = 0
    # Each round but the last adds a new (work, relied work, rule) key,
    # and there are finitely many, so the loop ends.
    while True:
        iterations += 1
        fresh: list[RulingRecord] = []
        for source in sorted(changed):
            work, rulings = graph.works[source], by_work.get(source, [])
            settled, _ = settle_license(work, graph.producers.get(source), rulings, kb)
            members = members_of(work, settled, rulings, kb)
            unmatched = members.intersection(kb.licenses) - matched[source]
            matched[source] |= unmatched
            groups, outputs = relied_by[source]
            for license_id in sorted(unmatched):
                hits = [
                    match_rules(kb, license_id, kind, work.form, out_form, fuzz)
                    for kind, out_form in groups
                ]
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
        for record in fresh:
            by_work.setdefault(record.work, []).append(record)
        changed = {record.work for record in fresh}.intersection(relied_by)


def derive_rulings(
    graph: WorkflowGraph, kb: KnowledgeBase, fuzz: bool = True
) -> WorkflowGraph:
    """Run the ruling stage to its fixpoint. Licenses are left unwritten."""
    _ruling_fixpoint(graph, kb, fuzz)
    return graph


def determine_licenses(
    graph: WorkflowGraph, kb: KnowledgeBase
) -> tuple[WorkflowGraph, list[DeferredConflict]]:
    """Write each work's license, keeping declared ones; conflicts in work-id order."""
    by_work = rulings_by_work(graph)
    conflicts: list[DeferredConflict] = []
    for wid, work in sorted(graph.works.items()):
        license_id, conflict = settle_license(
            work, graph.producers.get(wid), by_work.get(wid, []), kb
        )
        if conflict is not None:
            conflicts.append(conflict)
        if work.license is None:
            work.license = license_id
            work.origin = Origin.DERIVED
    return graph, conflicts


def derive_requests(graph: WorkflowGraph, kb: KnowledgeBase) -> WorkflowGraph:
    """Derive the usage rights each action needs, licenses already settled."""
    mix_parents = edge_parents(graph, (EdgeKind.MIXWORK,))
    by_work = rulings_by_work(graph)
    # Each consumed work's sorted Mixwork closure, and whether every license
    # speaking for a work waives sublicensing, are settled once per work.
    closures = {wid: sorted(closure(wid, mix_parents)) for wid in graph.consumers}
    waived: dict[str, bool] = {}
    for wid, work in graph.works.items():
        members = members_of(work, work.license, by_work.get(wid, []), kb)
        answers = [
            usage_requirement(kb, license_id, Usage.SUBLICENSE)
            for license_id in members.intersection(kb.licenses)
        ]
        waived[wid] = bool(answers) and all(a is Requirement.WAIVED for a in answers)
    # Keys made here are distinct, so only requests already held can repeat.
    known = {
        (r.action, r.source_work, r.target_work, r.usage) for r in graph.requests
    }
    for action in toposort_actions(graph):
        usages = sorted(action_usages(action), key=lambda u: u.value)
        for source in dict.fromkeys(inp.work for inp in action.inputs):
            for target in closures[source]:
                for usage in usages:
                    if usage is Usage.SUBLICENSE and waived[target]:
                        continue
                    if known and (action.id, source, target, usage) in known:
                        continue
                    graph.requests.append(
                        RequestRecord(action.id, source, target, usage)
                    )
    return graph


def run_all(
    graph: WorkflowGraph, kb: KnowledgeBase, fuzz: bool = True
) -> tuple[WorkflowGraph, FixpointStats]:
    """Run every derivation stage on a copy of the graph."""
    # Derived records and licenses are dropped; the graph maps are rebuilt.
    works = {wid: replace(work) for wid, work in graph.works.items()}
    for work in works.values():
        if work.origin is Origin.DERIVED:
            work.license, work.origin = None, Origin.USER_DECLARED
    actions = {
        aid: replace(act, inputs=list(act.inputs), copublish=set(act.copublish))
        for aid, act in graph.actions.items()
    }
    result = WorkflowGraph(works=works, actions=actions)
    derive_compositional(result)
    iterations = _ruling_fixpoint(result, kb, fuzz)
    determine_licenses(result, kb)
    derive_requests(result, kb)
    stats = FixpointStats(
        iterations=iterations,
        records_created=len(result.rulings) + len(result.requests),
    )
    return result, stats
