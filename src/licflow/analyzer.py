"""Compliance analysis of published works in a reasoned workflow graph.

Every check is scoped to the dependency closure of one published work:
the works reachable backwards over containment and usage edges. Checks
never mutate the graph; analysis is a pure function of graph, knowledge
base, and target.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .kb import (
    KnowledgeBase,
    LicenseFramework,
    LicenseProfile,
    Requirement,
    Restriction,
    Revocability,
    Rule,
    Usage,
    usage_requirement,
)
from .model import (
    ActionKind,
    ActionNode,
    EdgeKind,
    PublishManner,
    WorkflowGraph,
    closure,
    edge_parents,
)
from .reasoner import (
    DeferredConflict,
    RequestRecord,
    RulingRecord,
    members_of,
    relicense_constraints,
    rulings_by_work,
    settle_license,
)
from .reports import Report, ReportCode, Severity, make_report, sort_reports


class NotPublished(ValueError):
    """Raised when the analysis target is not the output of a Publish."""


class ExitClass(Enum):
    """Worst severity of a result; each value is the matching CLI exit code."""

    CLEAN = 0
    WARNINGS = 1
    ERRORS = 2


@dataclass
class AnalysisResult:
    target: str
    reports: list[Report]
    deferred_conflicts: list[DeferredConflict]
    exit_class: ExitClass


_FULL_KINDS = (EdgeKind.MIXWORK, EdgeKind.SUBWORK, EdgeKind.AUXWORK)
_MS_KINDS = (EdgeKind.MIXWORK, EdgeKind.SUBWORK)

# Restrictions that render directly as notices or warnings. The rest
# gate the conflict and sale checks instead.
_PUBLISH_RESTRICTION_CODES = {
    Restriction.INCLUDE_LICENSE: ReportCode.N1,
    Restriction.INCLUDE_NOTICE: ReportCode.N2,
    Restriction.STATE_CHANGES: ReportCode.N3,
    Restriction.IMPACT_REPORT: ReportCode.N4,
    Restriction.DISCLOSE_SELF: ReportCode.W5,
    Restriction.DISCLOSE_UNMODIFIED: ReportCode.W6,
}
_USE_RESTRICTION_CODES = {
    Restriction.USE_BEHAVIOR: ReportCode.W7,
    Restriction.RUNTIME_CONTROL: ReportCode.W8,
}

_DERIVING_KINDS = {
    ActionKind.MODIFY,
    ActionKind.AMALGAMATE,
    ActionKind.TRAIN,
    ActionKind.COMBINE,
    ActionKind.DISTILL,
    ActionKind.EMBED,
}


def dependency_closure(
    graph: WorkflowGraph, work_id: str, kinds: tuple[EdgeKind, ...]
) -> set[str]:
    """The work plus everything reachable backwards over the given edges."""
    return closure(work_id, edge_parents(graph, kinds))


def published_targets(graph: WorkflowGraph) -> list[str]:
    """Outputs of Publish actions, in stable order."""
    return sorted(
        action.output
        for action in graph.actions.values()
        if action.kind is ActionKind.PUBLISH
    )


class AnalysisIndex:
    """Whole-graph facts of one reasoned graph, grouped once for every target.

    A work's license profiles, conflict and rights verdicts depend on the
    work alone, so each is settled on first use and kept for later targets.
    """

    def __init__(self, graph: WorkflowGraph, kb: KnowledgeBase) -> None:
        self.graph = graph
        self.kb = kb
        self.full_parents = edge_parents(graph, _FULL_KINDS)
        self.ms_parents = edge_parents(graph, _MS_KINDS)
        self.rulings = rulings_by_work(graph)
        # Requests by the output of the action that makes them.
        self.requests: dict[str, list[RequestRecord]] = {}
        for record in graph.requests:
            output = graph.actions[record.action].output
            self.requests.setdefault(output, []).append(record)
        self._profiles: dict[str, list[LicenseProfile]] = {}
        self._conflicts: dict[str, Optional[DeferredConflict]] = {}
        self._rights: dict[str, list[tuple[ReportCode, str]]] = {}

    def profiles(self, work_id: str) -> list[LicenseProfile]:
        """Known profiles of the licenses that speak for a work."""
        if work_id not in self._profiles:
            work, kb = self.graph.works[work_id], self.kb
            rulings = self.rulings.get(work_id, [])
            self._profiles[work_id] = [
                kb.licenses[lic]
                for lic in members_of(work, work.license, rulings, kb)
                if lic in kb.licenses
            ]
        return self._profiles[work_id]

    def conflict(self, work_id: str) -> Optional[DeferredConflict]:
        if work_id not in self._conflicts:
            self._conflicts[work_id] = settle_license(
                self.graph.works[work_id],
                self.graph.producers.get(work_id),
                self.rulings.get(work_id, []),
                self.kb,
            )[1]
        return self._conflicts[work_id]

    def rights(self, work_id: str) -> list[tuple[ReportCode, str]]:
        """(code, subject) of E2/E4 and W4 for the requests that make the work."""
        if work_id not in self._rights:
            found = []
            for record in self.requests.get(work_id, ()):
                requirements = {
                    usage_requirement(self.kb, profile.id, record.usage)
                    for profile in self.profiles(record.target_work)
                }
                if Requirement.RESERVED in requirements:
                    sublicense = record.usage is Usage.SUBLICENSE
                    code = ReportCode.E4 if sublicense else ReportCode.E2
                    found.append((code, record.target_work))
                if Requirement.NOT_STATED in requirements:
                    found.append((ReportCode.W4, record.target_work))
            self._rights[work_id] = found
        return self._rights[work_id]


@dataclass
class _Facts:
    """One target's closure, read through the index of its reasoned graph."""

    index: AnalysisIndex
    target: str
    manner: PublishManner
    full: set[str]
    contained: set[str]
    actions: list[ActionNode]
    conflicts: list[DeferredConflict]


def _facts(index: AnalysisIndex, published: str) -> _Facts:
    graph = index.graph
    if published not in graph.works:
        raise NotPublished(f"unknown work '{published}'")
    publisher = graph.producers.get(published)
    if (
        publisher is None
        or publisher.kind is not ActionKind.PUBLISH
        or publisher.publish_manner is None
    ):
        raise NotPublished(f"work '{published}' is not the output of a publish action")
    full = closure(published, index.full_parents)
    settled = (index.conflict(wid) for wid in sorted(full))
    return _Facts(
        index=index,
        target=published,
        manner=publisher.publish_manner,
        full=full,
        contained=closure(published, index.ms_parents),
        actions=[graph.producers[wid] for wid in full if wid in graph.producers],
        conflicts=[conflict for conflict in settled if conflict is not None],
    )


def _report(facts: _Facts, code: ReportCode, subject: str) -> Report:
    name = facts.index.graph.works[subject].name
    return make_report(code, subject, name, facts.target)


def _scoped_rulings(
    facts: _Facts, scope: set[str]
) -> Iterator[tuple[RulingRecord, Rule]]:
    """(ruling, rule) for every ruling on a work in scope whose rule is known."""
    for wid in scope:
        for record in facts.index.rulings.get(wid, ()):
            rule = facts.index.kb.rules.get(record.rule)
            if rule is not None:
                yield record, rule


def check_nonstandard_licensing(facts: _Facts) -> list[Report]:
    """W1 when a work sits under a license not meant for its material type."""
    reports = []
    for wid in facts.full:
        work_type = facts.index.graph.works[wid].work_type
        if any(
            profile.framework is not LicenseFramework.PUBLIC_DOMAIN_LIKE
            and work_type not in profile.intended_types
            for profile in facts.index.profiles(wid)
        ):
            reports.append(_report(facts, ReportCode.W1, wid))
    return reports


def check_revocability(facts: _Facts) -> list[Report]:
    """W2 under revocable licenses, W3 where revocability is unstated."""
    reports = []
    for wid in facts.full:
        stances = {profile.revocable for profile in facts.index.profiles(wid)}
        if Revocability.YES in stances:
            reports.append(_report(facts, ReportCode.W2, wid))
        if Revocability.UNSTATED in stances:
            reports.append(_report(facts, ReportCode.W3, wid))
    return reports


def _rights_reports(facts: _Facts) -> list[Report]:
    """E2/E4 for reserved rights, W4 for rights the license never mentions."""
    return [
        _report(facts, code, subject)
        for wid in facts.full
        for code, subject in facts.index.rights(wid)
    ]


def check_publish_restrictions(facts: _Facts) -> list[Report]:
    """Notices and warnings carried by the rulings behind a publication.

    Restrictions conditioned on publication stay silent for internal
    releases; restrictions on use apply regardless.
    """
    manner = facts.manner
    reports = []
    for record, rule in _scoped_rulings(facts, facts.contained):
        subject = record.relied_work
        if manner is not PublishManner.INTERNAL:
            for restriction in rule.publish_restrictions:
                code = _PUBLISH_RESTRICTION_CODES.get(restriction)
                if code is not None:
                    reports.append(_report(facts, code, subject))
        for restriction in rule.use_restrictions:
            code = _USE_RESTRICTION_CODES.get(restriction)
            if code is not None:
                reports.append(_report(facts, code, subject))
            elif (
                restriction is Restriction.NON_COMMERCIAL_OUTPUT
                and manner is PublishManner.SELL
            ):
                reports.append(_report(facts, ReportCode.E5, subject))
        if not rule.allow_sharing and manner in (
            PublishManner.SHARE,
            PublishManner.SELL,
        ):
            reports.append(_report(facts, ReportCode.E3, subject))
    return reports


def _exclusive_members(facts: _Facts, work_id: str) -> bool:
    """Whether the work's licensing adds exclusive terms of its own."""
    return any(
        profile.framework is not LicenseFramework.PUBLIC_DOMAIN_LIKE
        and (
            Usage.COMMERCIAL in profile.reserved
            or any(rule.use_restrictions for rule in profile.rules)
        )
        for profile in facts.index.profiles(work_id)
    )


def _relicense_forbidden(facts: _Facts, work_id: str, new_license: str) -> bool:
    """Whether the terms the work answers to forbid registering `new_license`."""
    kb = facts.index.kb
    none_allowed, compat_only = relicense_constraints(
        facts.index.rulings.get(work_id, ()), kb
    )
    if none_allowed - {new_license}:
        return True
    if any(
        new_license not in kb.licenses[license_id].compatible_with
        for license_id in compat_only
        if license_id in kb.licenses
    ):
        return True
    return any(
        Usage.RELICENSE in profile.reserved for profile in facts.index.profiles(work_id)
    )


def check_conflicts(facts: _Facts) -> list[Report]:
    """Relicensing, exclusivity, and copyleft-collision errors (E6 to E10)."""
    graph, full = facts.index.graph, facts.full
    reports = []
    for action in facts.actions:
        if (
            action.kind is ActionKind.REGISTER_LICENSE
            and action.license_to_register is not None
            and _relicense_forbidden(
                facts, action.inputs[0].work, action.license_to_register
            )
        ):
            reports.append(_report(facts, ReportCode.E6, action.output))

    if _exclusive_members(facts, facts.target):
        for record, rule in _scoped_rulings(facts, facts.contained):
            if Restriction.GNU_FREEDOM in rule.publish_restrictions:
                reports.append(_report(facts, ReportCode.E7, record.relied_work))
            if Restriction.CC_FREEDOM in rule.publish_restrictions:
                reports.append(_report(facts, ReportCode.E8, record.relied_work))

    for conflict in facts.conflicts:
        reports.append(_report(facts, ReportCode.E10, conflict.work))
    for record, rule in _scoped_rulings(facts, full):
        if Restriction.LLAMA_EXCLUSIVE in rule.use_restrictions:
            # Each deriving action inside the closure that consumes the work.
            for output in graph.consumers.get(record.work, ()):
                if (
                    output in full
                    and graph.producers[output].kind in _DERIVING_KINDS
                    and graph.works[output].license != rule.license
                ):
                    reports.append(_report(facts, ReportCode.E9, record.work))
        if (
            Restriction.EXCLUSIVE_TERMS in rule.publish_restrictions
            and graph.works[record.work].license != rule.license
        ):
            reports.append(_report(facts, ReportCode.E10, record.work))
    return reports


def exit_class_of(reports: list[Report]) -> ExitClass:
    severities = {report.severity for report in reports}
    if Severity.ERROR in severities:
        return ExitClass.ERRORS
    if Severity.WARNING in severities:
        return ExitClass.WARNINGS
    return ExitClass.CLEAN


def analyze_publication(
    graph: WorkflowGraph,
    kb: KnowledgeBase,
    published: str,
    index: Optional[AnalysisIndex] = None,
) -> AnalysisResult:
    """Run every compliance check against one published work.

    Pass the same `AnalysisIndex` of `graph` to every target of one
    verdict; without one, the call builds its own.
    """
    facts = _facts(index or AnalysisIndex(graph, kb), published)
    reports: list[Report] = []
    reports.extend(check_nonstandard_licensing(facts))
    reports.extend(check_revocability(facts))
    reports.extend(_rights_reports(facts))
    reports.extend(check_publish_restrictions(facts))
    reports.extend(check_conflicts(facts))
    # Reports with equal sort keys are equal, so the order the checks
    # emit them in never shows.
    reports = sort_reports(reports)
    return AnalysisResult(
        target=published,
        reports=reports,
        deferred_conflicts=facts.conflicts,
        exit_class=exit_class_of(reports),
    )
