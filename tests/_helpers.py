"""Shared builders for the test suite.

Small factory functions keep the tests focused on the scenario being
exercised instead of on record plumbing. Micro knowledge bases built
here let a test isolate one license feature without dragging in the
whole bundled rule set.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from typing import Iterable, Iterator, Optional

from licflow import (
    ActionInput,
    ActionKind,
    ActionNode,
    InputRole,
    KnowledgeBase,
    LicenseFramework,
    LicenseProfile,
    Origin,
    OutputDefinition,
    PublishManner,
    RelicensePolicy,
    Report,
    Restriction,
    Revocability,
    Rule,
    RulingRecord,
    Usage,
    Work,
    WorkflowGraph,
    WorkForm,
    WorkType,
    add_action,
    add_work,
    analyze_publication,
    run_all,
)

from oracleutil import naive_reports

# ---------------------------------------------------------------------------
# Graph builders
# ---------------------------------------------------------------------------


def work(
    work_id: str,
    work_type: WorkType = WorkType.MODEL,
    form: WorkForm = WorkForm.WEIGHTS,
    license: Optional[str] = None,
    name: Optional[str] = None,
    origin: Origin = Origin.USER_DECLARED,
) -> Work:
    return Work(
        id=work_id,
        name=name if name is not None else f"Work {work_id}",
        work_type=work_type,
        form=form,
        license=license,
        origin=origin,
    )


def inputs_of(
    primaries: Iterable[str] = (),
    training: Iterable[str] = (),
    auxiliary: Iterable[str] = (),
) -> list[ActionInput]:
    parts = [ActionInput(w, InputRole.PRIMARY) for w in primaries]
    parts += [ActionInput(w, InputRole.TRAINING_DATA) for w in training]
    parts += [ActionInput(w, InputRole.AUXILIARY) for w in auxiliary]
    return parts


def action(
    action_id: str,
    kind: ActionKind,
    inputs: Iterable[str] | list[ActionInput],
    output: str,
    manner: Optional[PublishManner] = None,
    publish_form: Optional[WorkForm] = None,
    license_to_register: Optional[str] = None,
    copublish: Iterable[str] = (),
) -> ActionNode:
    built: list[ActionInput] = []
    for item in inputs:
        built.append(item if isinstance(item, ActionInput) else ActionInput(item))
    return ActionNode(
        id=action_id,
        kind=kind,
        inputs=built,
        output=output,
        publish_manner=manner,
        publish_form=publish_form,
        license_to_register=license_to_register,
        copublish=set(copublish),
    )


def graph_of(works: Iterable[Work], actions: Iterable[ActionNode] = ()) -> WorkflowGraph:
    graph = WorkflowGraph()
    for w in works:
        add_work(graph, w)
    for a in actions:
        add_action(graph, a)
    return graph


def publish(
    action_id: str,
    source: str,
    output: str,
    manner: PublishManner = PublishManner.SHARE,
    publish_form: WorkForm = WorkForm.WEIGHTS,
) -> ActionNode:
    return action(
        action_id,
        ActionKind.PUBLISH,
        [source],
        output,
        manner=manner,
        publish_form=publish_form,
    )


def code_work(work_id: str, license: Optional[str] = None) -> Work:
    return work(work_id, WorkType.SOFTWARE, WorkForm.CODE, license=license)


def copy_chain(steps: int, license: str) -> WorkflowGraph:
    """A licensed code work `C0000` copied `steps` times in a row."""
    ids = [f"C{i:04d}" for i in range(steps + 1)]
    return graph_of(
        [code_work(ids[0], license)] + [code_work(wid) for wid in ids[1:]],
        [
            action(f"copy{i:04d}", ActionKind.COPY, [ids[i - 1]], ids[i])
            for i in range(1, steps + 1)
        ],
    )


def diamond_ladder(rungs: int, license: str = "GPL-3.0") -> WorkflowGraph:
    """Rungs that each modify the top twice and combine both, then a publish.

    The producer paths from the publish back to the licensed root double
    with every rung.
    """
    works, actions = [code_work("R00", license)], []
    top = "R00"
    for i in range(1, rungs + 1):
        left, right, joined = f"L{i:02d}", f"M{i:02d}", f"R{i:02d}"
        works += [code_work(left), code_work(right), code_work(joined)]
        actions += [
            action(f"left{i:02d}", ActionKind.MODIFY, [top], left),
            action(f"right{i:02d}", ActionKind.MODIFY, [top], right),
            action(f"join{i:02d}", ActionKind.COMBINE, [left, right], joined),
        ]
        top = joined
    works.append(code_work("OUT"))
    actions.append(publish("pub", top, "OUT", publish_form=WorkForm.CODE))
    return graph_of(works, actions)


# ---------------------------------------------------------------------------
# Micro knowledge bases
# ---------------------------------------------------------------------------

ALL_USAGES = frozenset(Usage)


def profile(
    license_id: str,
    framework: LicenseFramework = LicenseFramework.MODEL_LICENSE,
    intended_types: Iterable[WorkType] = (WorkType.MODEL,),
    copyleft: bool = False,
    revocable: Revocability = Revocability.NO,
    granted: Iterable[Usage] = ALL_USAGES,
    reserved: Iterable[Usage] = (),
    sublicense_waived: bool = False,
    compatible_with: Iterable[str] = (),
    rules: Iterable[Rule] = (),
    name: Optional[str] = None,
) -> LicenseProfile:
    compat = set(compatible_with) | {license_id}
    return LicenseProfile(
        id=license_id,
        name=name if name is not None else license_id,
        framework=framework,
        intended_types=set(intended_types),
        copyleft=copyleft,
        permissive=not copyleft,
        revocable=revocable,
        granted=set(granted) - set(reserved),
        reserved=set(reserved),
        sublicense_waived_by_auto_relicense=sublicense_waived,
        compatible_with=compat,
        rules=list(rules),
    )


def rule(
    rule_id: str,
    license_id: str,
    actions: Iterable[ActionKind],
    in_forms: Iterable[WorkForm] = (WorkForm.RAW,),
    out_forms: Iterable[WorkForm] = (WorkForm.RAW,),
    output_def: OutputDefinition = OutputDefinition.DERIVATIVE,
    relicense: RelicensePolicy = RelicensePolicy.ANY,
    publish_restrictions: Iterable[Restriction] = (),
    use_restrictions: Iterable[Restriction] = (),
    allow_sharing: bool = True,
    fuzz_only: bool = False,
) -> Rule:
    return Rule(
        id=rule_id,
        license=license_id,
        trigger_actions=set(actions),
        trigger_input_forms=set(in_forms),
        trigger_output_forms=set(out_forms),
        output_def=output_def,
        relicense=relicense,
        publish_restrictions=set(publish_restrictions),
        use_restrictions=set(use_restrictions),
        allow_sharing=allow_sharing,
        fuzz_only=fuzz_only,
    )


def kb_of(*profiles: LicenseProfile) -> KnowledgeBase:
    kb = KnowledgeBase()
    for prof in profiles:
        kb.add_license(prof)
    return kb


def relicensing_kb(profiles: Iterable[LicenseProfile]) -> KnowledgeBase:
    """The profiles with one rule `<license>:<policy>` per relicensing policy.

    The rules trigger on no action; a test places their rulings by hand.
    """
    return kb_of(
        *(
            prof._replace(rules=[
                rule(f"{prof.id}:{policy.value}", prof.id, (), relicense=policy)
                for policy in RelicensePolicy
            ])
            for prof in profiles
        )
    )


# The rule policies one license's rulings may carry in a relicensing case.
_POLICY_MIXES = (("none",), ("compatible",), ("none", "compatible"), ("any",))


def relicensing_cases(kb: KnowledgeBase, most: int) -> Iterator[list[str]]:
    """Rule ids of a `relicensing_kb`: no rule, then every policy mix of every
    set of up to `most` licenses."""
    yield []
    for size in range(1, most + 1):
        for licenses in combinations(sorted(kb.licenses), size):
            for mixes in product(_POLICY_MIXES, repeat=size):
                yield [
                    f"{license_id}:{policy}"
                    for license_id, mix in zip(licenses, mixes)
                    for policy in mix
                ]


def placed_rulings(work_id: str, relied: str, rule_ids: Iterable[str]) -> list[RulingRecord]:
    """Hand-placed rulings of a work, one per rule id."""
    return [
        RulingRecord(work_id, relied, rule_id, OutputDefinition.DERIVATIVE)
        for rule_id in rule_ids
    ]


def plain_profile(license_id: str) -> LicenseProfile:
    """A license with every right granted and no rules at all."""
    return profile(license_id)


# ---------------------------------------------------------------------------
# Analysis shortcuts
# ---------------------------------------------------------------------------


def reason_and_analyze(
    graph: WorkflowGraph,
    kb: KnowledgeBase,
    published: str,
    fuzz: bool = True,
):
    reasoned, _ = run_all(graph, kb, fuzz=fuzz)
    result = analyze_publication(reasoned, kb, published)
    # Every hand-built scenario doubles as an analyzer oracle case.
    assert report_multiset(result.reports) == Counter(
        naive_reports(reasoned, kb, published)
    )
    return reasoned, result


def code_multiset(reports: Iterable[Report]) -> Counter:
    return Counter(r.code.name for r in reports)


def code_subject_multiset(reports: Iterable[Report]) -> Counter:
    return Counter((r.code.name, r.subject) for r in reports)


def report_multiset(reports: Iterable[Report]) -> Counter:
    return Counter((r.code.name, r.subject, r.target) for r in reports)


def ruling_tuples(graph: WorkflowGraph) -> set[tuple[str, str, str]]:
    return {(r.work, r.relied_work, r.rule) for r in graph.rulings}


def request_tuples(graph: WorkflowGraph) -> set[tuple[str, str, str, str]]:
    return {
        (r.action, r.source_work, r.target_work, r.usage.value)
        for r in graph.requests
    }


def is_submultiset(small: Counter, big: Counter) -> bool:
    return all(big[key] >= count for key, count in small.items())
