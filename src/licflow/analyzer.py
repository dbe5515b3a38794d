"""Compliance analysis of published works in a reasoned workflow graph.

Every check is scoped to the dependency closure of one published work:
the works reachable backwards over containment and usage edges. Checks
never mutate the graph; analysis is a pure function of graph, knowledge
base, and target.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Optional

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
    EdgeKind,
    PublishManner,
    WorkflowGraph,
    closure,
    edge_parents,
)
from .reasoner import (
    RequestRecord,
    RulingRecord,
    members_of,
    relicense_constraints,
    rulings_by_work,
    settle_license,
)
from .reports import Report, ReportCode, render


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
_FREEDOM = {Restriction.GNU_FREEDOM: ReportCode.E7, Restriction.CC_FREEDOM: ReportCode.E8}
_REVOCABLE = {Revocability.YES: ReportCode.W2, Revocability.UNSTATED: ReportCode.W3}

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


# (code.rank, subject, code, content) of a (code, subject) pair, one tuple per
# pair and index: tuples sort in report order, and equal findings are one object.
Finding = tuple[tuple[int, int], str, ReportCode, str]


def _settled(compute: Callable[..., Any]) -> Callable[..., Any]:
    """Settle `compute(index, *key)` on first use and keep it for later targets."""

    @functools.wraps(compute)
    def lookup(index: AnalysisIndex, *key: object) -> Any:
        try:
            return index._memo[(compute, *key)]
        except KeyError:
            value = index._memo[(compute, *key)] = compute(index, *key)
            return value

    return lookup


class AnalysisIndex:
    """Whole-graph facts of one reasoned graph, grouped once for every target.

    What the checks find for a work does not depend on the target whose
    closure holds it, so each work's findings are settled on first use and
    kept for later targets. Only E9 is decided per target.
    """

    def __init__(self, graph: WorkflowGraph, kb: KnowledgeBase) -> None:
        self.graph = graph
        self.kb = kb
        self.full_parents = edge_parents(graph, _FULL_KINDS)
        self.ms_parents = edge_parents(graph, _MS_KINDS)
        self.rulings = rulings_by_work(graph)
        # Requests by the output of the action that makes them.
        self.requests: dict[str, list[RequestRecord]] = {}
        for request in graph.requests:
            output = graph.actions[request.action].output
            self.requests.setdefault(output, []).append(request)
        self._memo: dict[tuple, Any] = {}
        # (ruling, rule) of each ruling whose rule is known, by work; and per
        # work under a Llama-exclusive ruling, each deriving output that
        # consumes it under another license, once per such ruling.
        self.ruled: dict[str, list[tuple[RulingRecord, Rule]]] = {}
        self.llama_uses: dict[str, list[str]] = {}
        for record in graph.rulings:
            rule = kb.rules.get(record.rule)
            if rule is None:
                continue
            self.ruled.setdefault(record.work, []).append((record, rule))
            if Restriction.LLAMA_EXCLUSIVE in rule.use_restrictions:
                self.llama_uses.setdefault(record.work, []).extend(
                    out
                    for out in graph.consumers.get(record.work, ())
                    if graph.producers[out].kind in _DERIVING_KINDS
                    and graph.works[out].license != rule.license
                )

    @_settled
    def finding(self, code: ReportCode, subject: str) -> Finding:
        """The one tuple of a (code, subject) pair, its wording rendered once."""
        return (code.rank, subject, code, render(code, self.graph.works[subject].name))

    def _about(self, subject: str, codes: Iterable) -> list[Finding]:
        """The findings of each code about one subject; a None code finds nothing."""
        return [self.finding(code, subject) for code in codes if code is not None]

    @_settled
    def profiles(self, work_id: str) -> list[LicenseProfile]:
        """Known profiles of the licenses that speak for a work."""
        work, kb = self.graph.works[work_id], self.kb
        rulings = self.rulings.get(work_id, [])
        members = members_of(work, work.license, rulings, kb)
        return [kb.licenses[lic] for lic in members if lic in kb.licenses]

    @_settled
    def nonstandard(self, work_id: str) -> list[Finding]:
        """W1 when the work sits under a license not meant for its material type."""
        work_type = self.graph.works[work_id].work_type
        misfit = any(
            profile.framework is not LicenseFramework.PUBLIC_DOMAIN_LIKE
            and work_type not in profile.intended_types
            for profile in self.profiles(work_id)
        )
        return self._about(work_id, [ReportCode.W1] if misfit else [])

    @_settled
    def revocability(self, work_id: str) -> list[Finding]:
        """W2 under a revocable license, W3 where revocability is unstated."""
        stances = {profile.revocable for profile in self.profiles(work_id)}
        return self._about(work_id, map(_REVOCABLE.get, stances))

    @_settled
    def rights(self, work_id: str) -> list[Finding]:
        """E2/E4 and W4 for the requests of the action that makes the work."""
        return [
            finding
            for record in self.requests.get(work_id, ())
            for finding in self._answers(record.target_work, record.usage)
        ]

    @_settled
    def _answers(self, work_id: str, usage: Usage) -> list[Finding]:
        """E2/E4 if a license of the work reserves the usage, W4 if one omits it."""
        requirements = {
            usage_requirement(self.kb, profile.id, usage)
            for profile in self.profiles(work_id)
        }
        codes = []
        if Requirement.RESERVED in requirements:
            codes.append(ReportCode.E4 if usage is Usage.SUBLICENSE else ReportCode.E2)
        if Requirement.NOT_STATED in requirements:
            codes.append(ReportCode.W4)
        return self._about(work_id, codes)

    @_settled
    def publish(self, work_id: str, manner: PublishManner) -> list[Finding]:
        """Notices, warnings and errors the work's rulings carry into a release.

        Restrictions conditioned on publication stay silent for internal
        releases; restrictions on use apply regardless.
        """
        sharing = manner in (PublishManner.SHARE, PublishManner.SELL)
        found = []
        for record, rule in self.ruled.get(work_id, ()):
            codes = [_USE_RESTRICTION_CODES.get(r) for r in rule.use_restrictions]
            if manner is not PublishManner.INTERNAL:
                codes += map(_PUBLISH_RESTRICTION_CODES.get, rule.publish_restrictions)
            if (
                Restriction.NON_COMMERCIAL_OUTPUT in rule.use_restrictions
                and manner is PublishManner.SELL
            ):
                codes.append(ReportCode.E5)
            if sharing and not rule.allow_sharing:
                codes.append(ReportCode.E3)
            found += self._about(record.relied_work, codes)
        return found

    @_settled
    def freedom(self, work_id: str) -> list[Finding]:
        """E7/E8 for the work's rulings, raised when the target adds exclusive terms."""
        found = []
        for record, rule in self.ruled.get(work_id, ()):
            codes = map(_FREEDOM.get, rule.publish_restrictions)
            found += self._about(record.relied_work, codes)
        return found

    @_settled
    def exclusive(self, work_id: str) -> bool:
        """Whether the work's licensing adds exclusive terms of its own."""
        return any(
            profile.framework is not LicenseFramework.PUBLIC_DOMAIN_LIKE
            and (
                Usage.COMMERCIAL in profile.reserved
                or any(rule.use_restrictions for rule in profile.rules)
            )
            for profile in self.profiles(work_id)
        )

    def _relicense_forbidden(self, work_id: str, new_license: str) -> bool:
        """Whether the terms the work answers to forbid registering `new_license`."""
        kb, rulings = self.kb, self.rulings.get(work_id, ())
        none_allowed, compat_only = relicense_constraints(rulings, kb)
        if none_allowed - {new_license}:
            return True
        if any(
            new_license not in kb.licenses[license_id].compatible_with
            for license_id in compat_only
            if license_id in kb.licenses
        ):
            return True
        return any(Usage.RELICENSE in p.reserved for p in self.profiles(work_id))

    @_settled
    def conflicts(self, work_id: str) -> list[Finding]:
        """E6 for a forbidden registration making the work, E10 for its conflict
        and for each exclusive-terms ruling whose license it is not under."""
        work, producer = self.graph.works[work_id], self.graph.producers.get(work_id)
        codes = [
            ReportCode.E10
            for _, rule in self.ruled.get(work_id, ())
            if Restriction.EXCLUSIVE_TERMS in rule.publish_restrictions
            and work.license != rule.license
        ]
        rulings = self.rulings.get(work_id, [])
        if settle_license(work, producer, rulings, self.kb)[1] is not None:
            codes.append(ReportCode.E10)
        if (
            producer is not None
            and producer.kind is ActionKind.REGISTER_LICENSE
            and producer.license_to_register is not None
            and self._relicense_forbidden(
                producer.inputs[0].work, producer.license_to_register
            )
        ):
            codes.append(ReportCode.E6)
        return self._about(work_id, codes)


@dataclass
class _Facts:
    """One target's closure, read through the index of its reasoned graph."""

    index: AnalysisIndex
    target: str
    manner: PublishManner
    full: set[str]
    contained: set[str]


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
    return _Facts(
        index=index,
        target=published,
        manner=publisher.publish_manner,
        full=closure(published, index.full_parents),
        contained=closure(published, index.ms_parents),
    )


def check_nonstandard_licensing(facts: _Facts) -> list[Finding]:
    """W1 when a work sits under a license not meant for its material type."""
    return [f for wid in facts.full for f in facts.index.nonstandard(wid)]


def check_revocability(facts: _Facts) -> list[Finding]:
    """W2 under revocable licenses, W3 where revocability is unstated."""
    return [f for wid in facts.full for f in facts.index.revocability(wid)]


def check_publish_restrictions(facts: _Facts) -> list[Finding]:
    """Notices and warnings carried by the rulings behind a publication."""
    index, manner = facts.index, facts.manner
    return [f for wid in facts.contained for f in index.publish(wid, manner)]


def check_conflicts(facts: _Facts) -> list[Finding]:
    """Relicensing, exclusivity, and copyleft-collision errors (E6 to E10)."""
    index, full = facts.index, facts.full
    found = [f for wid in full for f in index.conflicts(wid)]
    if index.exclusive(facts.target):
        found += (f for wid in facts.contained for f in index.freedom(wid))
    # E9 once per Llama-exclusive ruling and deriving output in the closure.
    found += (
        index.finding(ReportCode.E9, wid)
        for wid in full
        for output in index.llama_uses.get(wid, ())
        if output in full
    )
    return found


def exit_class_of(reports: list[Report]) -> ExitClass:
    # Severity ranks run from errors (0) to notices (2), exit classes back.
    return ExitClass(2 - min((r.code.rank for r in reports), default=(2, 0))[0])


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
    findings = check_nonstandard_licensing(facts) + check_revocability(facts)
    findings += (f for wid in facts.full for f in facts.index.rights(wid))
    findings += check_publish_restrictions(facts) + check_conflicts(facts)
    # Equal findings are one tuple and sort next to each other, so each run
    # of them becomes one Report, repeated.
    reports: list[Report] = []
    for (_, subject, code, content), run in itertools.groupby(sorted(findings)):
        reports += [Report(code, subject, published, content)] * len(list(run))
    return AnalysisResult(
        target=published,
        reports=reports,
        # Sorted reports put the worst first.
        exit_class=exit_class_of(reports[:1]),
    )
