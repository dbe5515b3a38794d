"""Compliance analysis of published works in a reasoned workflow graph.

Every check is scoped to the dependency closure of one published work:
the works reachable backwards over containment and usage edges. Checks
never mutate the graph; analysis is a pure function of graph, knowledge
base, and target.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import groupby
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

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
    Work,
    WorkflowGraph,
    closure,
    edge_parents,
)
from .reasoner import RequestRecord, RulingRecord, settled_licensing
from .reports import Report, ReportCode, render


class NotPublished(ValueError):
    """Raised when the analysis target is not the output of a Publish."""


class ExitClass(Enum):
    """Worst severity of a result; each value is the matching CLI exit code."""

    CLEAN = 0
    WARNINGS = 1
    ERRORS = 2


class AnalysisResult(NamedTuple):
    target: str
    reports: list[Report]
    exit_class: ExitClass
    __hash__ = None  # not hashable, as a mutable record is not


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
_SALE_RESTRICTION_CODES = {Restriction.NON_COMMERCIAL_OUTPUT: ReportCode.E5}
_FREEDOM = {Restriction.GNU_FREEDOM: ReportCode.E7, Restriction.CC_FREEDOM: ReportCode.E8}
_REVOCABLE = {Revocability.YES: ReportCode.W2, Revocability.UNSTATED: ReportCode.W3}
# The code each answer to a request raises, by usage: a reserved sublicense is E4.
_ANSWER_CODES = {
    u: {Requirement.NOT_STATED: ReportCode.W4, Requirement.RESERVED: ReportCode.E2} for u in Usage
}
_ANSWER_CODES[Usage.SUBLICENSE][Requirement.RESERVED] = ReportCode.E4

_DERIVING_KINDS = {
    ActionKind.MODIFY,
    ActionKind.AMALGAMATE,
    ActionKind.TRAIN,
    ActionKind.COMBINE,
    ActionKind.DISTILL,
    ActionKind.EMBED,
}

# Members read once per record, bound once (see `model._PRIMARY`).
_PUBLISH, _REGISTER = ActionKind.PUBLISH, ActionKind.REGISTER_LICENSE
_INTERNAL, _SELL = PublishManner.INTERNAL, PublishManner.SELL
_W1, _E3, _E6 = ReportCode.W1, ReportCode.E3, ReportCode.E6
_E9, _E10 = ReportCode.E9, ReportCode.E10
_RELICENSE, _COMMERCIAL = Usage.RELICENSE, Usage.COMMERCIAL
_EXCLUSIVE, _PUBLIC_DOMAIN_LIKE = Restriction.EXCLUSIVE_TERMS, LicenseFramework.PUBLIC_DOMAIN_LIKE


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
        if action.kind is _PUBLISH
    )


# (code.rank, subject, code, content) of a (code, subject) pair, one tuple per
# pair and index: tuples sort in report order, and equal findings are equal.
Finding = tuple[tuple[int, int], str, ReportCode, str]


class _Findings(dict):
    """The finding of each (code, subject) pair, its wording rendered on first use."""

    def __init__(self, works: dict[str, Work]) -> None:
        self.works = works

    def __missing__(self, key: tuple[ReportCode, str]) -> Finding:
        code, subject = key
        self[key] = found = (code.rank, subject, code, render(code, self.works[subject].name))
        return found


def _release_codes(rule: Rule, manner: PublishManner) -> tuple[ReportCode, ...]:
    """Codes a ruling by `rule` carries into a release in the given manner.

    Restrictions conditioned on publication stay silent for internal
    releases; restrictions on use apply regardless.
    """
    codes = [_USE_RESTRICTION_CODES.get(r) for r in rule.use_restrictions]
    if manner is not _INTERNAL:
        codes += map(_PUBLISH_RESTRICTION_CODES.get, rule.publish_restrictions)
        codes.append(None if rule.allow_sharing else _E3)
    if manner is _SELL:
        codes += map(_SALE_RESTRICTION_CODES.get, rule.use_restrictions)
    return tuple(code for code in codes if code is not None)


class _Settled(NamedTuple):
    """What the checks find for one work, whichever target's closure holds it."""

    nonstandard: list[Finding]  # W1
    revocability: list[Finding]  # W2, W3
    rights: list[Finding]  # E2, E4, W4 for the requests of the action making it
    conflicts: list[Finding]  # E6 and both kinds of E10
    # (code, subject) of each E7/E8, raised when the target adds exclusive terms.
    freedom: list[tuple[ReportCode, str]]
    exclusive: bool  # whether the work's licensing adds exclusive terms of its own


class AnalysisIndex:
    """Whole-graph facts of one reasoned graph, grouped once for every target.

    What the checks find for a work does not depend on the target whose
    closure holds it, so each work is settled in one call on its first use
    and read by later targets. Only E9 is decided per target. A graph whose
    licenses were never determined has no licensing to read: ValueError.
    """

    def __init__(self, graph: WorkflowGraph, kb: KnowledgeBase) -> None:
        self.graph = graph
        self.kb = kb
        self.full_parents = edge_parents(graph, _FULL_KINDS)
        self.ms_parents = edge_parents(graph, _MS_KINDS)
        self.licensing = settled_licensing(graph)
        # The rulings are copied, as callers edit them in place; later stages replace theirs.
        self.derived = (list(graph.rulings), self.licensing, graph.requests)
        # Requests by the output of the action that makes them, a run of one action at a time.
        self.requests: dict[str, list[RequestRecord]] = {}
        for action_id, run in groupby(graph.requests, attrgetter("action")):
            self.requests.setdefault(graph.actions[action_id].output, []).extend(run)
        self.findings = _Findings(graph.works)
        self.settled: dict[str, _Settled] = {}
        self._profiles: dict[str, list[LicenseProfile]] = {}
        self._answers: dict[tuple[str, Usage], list[Finding]] = {}
        # The codes a ruling carries into a release, by manner and rule id.
        self.release = {manner: {} for manner in PublishManner}
        # (ruling, rule) of each ruling whose rule is known, by work; and per
        # work under a Llama-exclusive ruling, each deriving output that
        # consumes it under another license, once per such ruling.
        self.ruled: dict[str, list[tuple[RulingRecord, Rule]]] = {}
        self.llama_uses: dict[str, list[str]] = {}
        sold, llama = self.release[_SELL], Restriction.LLAMA_EXCLUSIVE
        for record in graph.rulings:
            rule = kb.rules.get(record.rule)
            if rule is None:
                continue
            self.ruled.setdefault(record.work, []).append((record, rule))
            if rule.id not in sold:
                for manner, codes in self.release.items():
                    codes[rule.id] = _release_codes(rule, manner)
            if llama in rule.use_restrictions:
                self.llama_uses.setdefault(record.work, []).extend(
                    out
                    for out in graph.consumers.get(record.work, ())
                    if graph.producers[out].kind in _DERIVING_KINDS
                    and graph.works[out].license != rule.license
                )

    def _about(self, subject: str, codes: Iterable) -> list[Finding]:
        """The findings of each code about one subject; a None code finds nothing."""
        return [self.findings[code, subject] for code in codes if code is not None]

    def profiles(self, work_id: str) -> list[LicenseProfile]:
        """Known profiles of the licenses that speak for a work, read once."""
        if work_id not in self._profiles:
            members, kb = self.licensing[work_id].members, self.kb
            self._profiles[work_id] = [kb.licenses[m] for m in members if m in kb.licenses]
        return self._profiles[work_id]

    def settle(self, work_id: str) -> _Settled:
        """Everything the checks find for a work but its publish findings."""
        if work_id in self.settled:
            return self.settled[work_id]
        work, producer = self.graph.works[work_id], self.graph.producers.get(work_id)
        profiles, ruled = self.profiles(work_id), self.ruled.get(work_id, ())
        # Public-domain-like licenses fit any work and add no terms of their own.
        binding = [p for p in profiles if p.framework is not _PUBLIC_DOMAIN_LIKE]
        # E10 for each exclusive-terms ruling whose license the work is not
        # under and for its conflict, E6 for a forbidden registration making it.
        conflicts = [
            _E10
            for _, rule in ruled
            if _EXCLUSIVE in rule.publish_restrictions and work.license != rule.license
        ]
        if self.licensing[work_id].conflict:
            conflicts.append(_E10)
        if (producer is not None and producer.kind is _REGISTER
                and producer.license_to_register is not None):
            source, new = producer.inputs[0].work, producer.license_to_register
            admitted = self.licensing[source].admitted
            if (admitted is not None and new not in admitted) or any(
                _RELICENSE in p.reserved for p in self.profiles(source)
            ):
                conflicts.append(_E6)
        misfit = any(work.work_type not in p.intended_types for p in binding)
        settled = self.settled[work_id] = _Settled(
            nonstandard=self._about(work_id, [_W1] if misfit else []),
            revocability=self._about(work_id, {_REVOCABLE.get(p.revocable) for p in profiles}),
            rights=[
                finding
                for record in self.requests.get(work_id, ())
                for finding in self._rights(record.target_work, record.usage)
            ],
            conflicts=self._about(work_id, conflicts),
            freedom=[
                (_FREEDOM[r], record.relied_work)
                for record, rule in ruled
                for r in rule.publish_restrictions
                if r in _FREEDOM
            ],
            exclusive=any(
                _COMMERCIAL in p.reserved or any(r.use_restrictions for r in p.rules)
                for p in binding
            ),
        )
        return settled

    def _rights(self, work_id: str, usage: Usage) -> list[Finding]:
        """E2/E4 if a license of the work reserves the usage, W4 if one omits it."""
        if (work_id, usage) not in self._answers:
            profiles = self.profiles(work_id)
            answers = {usage_requirement(self.kb, p.id, usage) for p in profiles}
            codes = map(_ANSWER_CODES[usage].get, answers)
            self._answers[work_id, usage] = self._about(work_id, codes)
        return self._answers[work_id, usage]


def check_nonstandard_licensing(full: dict[str, _Settled]) -> list[Finding]:
    """W1 when a work sits under a license not meant for its material type."""
    return [f for work in full.values() for f in work.nonstandard]


def check_revocability(full: dict[str, _Settled]) -> list[Finding]:
    """W2 under revocable licenses, W3 where revocability is unstated."""
    return [f for work in full.values() for f in work.revocability]


def check_publish_restrictions(
    index: AnalysisIndex, contained: set[str], manner: PublishManner
) -> list[Finding]:
    """Notices, warnings and errors the rulings on the contained works carry into a release."""
    codes, findings = index.release[manner], index.findings
    return [
        findings[code, record.relied_work]
        for wid in contained
        for record, rule in index.ruled.get(wid, ())
        for code in codes[rule.id]
    ]


def check_conflicts(
    index: AnalysisIndex, target: str, full: dict[str, _Settled], contained: set[str]
) -> list[Finding]:
    """Relicensing, exclusivity, and copyleft-collision errors (E6 to E10)."""
    findings = index.findings
    found = [f for work in full.values() for f in work.conflicts]
    if full[target].exclusive:
        found += (findings[key] for wid in contained for key in full[wid].freedom)
    # E9 once per Llama-exclusive ruling and deriving output in the closure.
    found += (
        findings[_E9, wid]
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

    Pass the same `AnalysisIndex` of `graph` and `kb` to every target of
    one verdict; without one, the call builds its own. An index of another
    graph or knowledge base raises ValueError, as does one built before the
    rulings changed or the licenses or requests were derived to other values.
    """
    if index is None:
        index = AnalysisIndex(graph, kb)
    elif index.graph is not graph:
        raise ValueError("the analysis index was built for another graph")
    elif index.kb is not kb:
        raise ValueError("the analysis index was built for another knowledge base")
    elif index.derived != (graph.rulings, graph.licensing, graph.requests):
        raise ValueError("the graph's rulings, licenses or requests changed after its index")
    if published not in graph.works:
        raise NotPublished(f"unknown work '{published}'")
    publisher = graph.producers.get(published)
    if publisher is None or publisher.kind is not _PUBLISH or publisher.publish_manner is None:
        raise NotPublished(f"work '{published}' is not the output of a publish action")
    # Each work of the full closure, settled, and the Mixwork/Subwork closure.
    full = {wid: index.settle(wid) for wid in closure(published, index.full_parents)}
    contained = closure(published, index.ms_parents)
    findings = check_nonstandard_licensing(full) + check_revocability(full)
    findings += (f for work in full.values() for f in work.rights)
    findings += check_publish_restrictions(index, contained, publisher.publish_manner)
    findings += check_conflicts(index, published, full, contained)
    # Equal findings are equal tuples: count them, sort the distinct ones,
    # and repeat each one's Report as often as it was found.
    reports: list[Report] = []
    for (_, subject, code, content), count in sorted(Counter(findings).items()):
        reports += [Report(code, subject, published, content)] * count
    # Sorted reports put the worst first.
    return AnalysisResult(published, reports, exit_class_of(reports[:1]))
