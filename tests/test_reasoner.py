"""Derivation stages: structure, rulings, licenses, and requests."""

from __future__ import annotations

import copy
import inspect
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from licflow import (
    DEFAULT_LICENSE,
    ActionInput,
    ActionKind,
    ArityViolation,
    DependencyEdge,
    EdgeKind,
    InputRole,
    Origin,
    OutputDefinition,
    PublishManner,
    RelicensePolicy,
    RequestRecord,
    RulingRecord,
    Usage,
    WorkForm,
    WorkType,
    derive_compositional,
    run_all,
)
from licflow import reasoner
from licflow.reasoner import (
    action_usages,
    derive_requests,
    derive_rulings,
    determine_licenses,
    members_of,
    rulings_by_work,
)

from _helpers import (
    action,
    copy_chain,
    diamond_ladder,
    graph_of,
    inputs_of,
    kb_of,
    profile,
    publish,
    request_tuples,
    rule,
    ruling_tuples,
    work,
)


def _edge_triples(graph):
    return [(e.kind, e.source, e.target) for e in graph.edges]


# ---------------------------------------------------------------------------
# Compositional structure
# ---------------------------------------------------------------------------


def test_copy_modify_amalgamate_publish_mix_their_primary():
    for kind in (ActionKind.COPY, ActionKind.MODIFY, ActionKind.AMALGAMATE):
        graph = graph_of(
            [work("A", license="MIT"), work("B")],
            [action("act", kind, ["A"], "B")],
        )
        derive_compositional(graph)
        assert _edge_triples(graph) == [(EdgeKind.MIXWORK, "A", "B")]
    graph = graph_of(
        [work("A", license="MIT"), work("B")],
        [publish("act", "A", "B")],
    )
    derive_compositional(graph)
    assert _edge_triples(graph) == [(EdgeKind.MIXWORK, "A", "B")]


def test_combine_mixes_every_primary():
    graph = graph_of(
        [work("A", license="MIT"), work("B", license="MIT"), work("C")],
        [action("mix", ActionKind.COMBINE, ["A", "B"], "C")],
    )
    derive_compositional(graph)
    assert _edge_triples(graph) == [
        (EdgeKind.MIXWORK, "A", "C"),
        (EdgeKind.MIXWORK, "B", "C"),
    ]


def test_generate_distill_embed_keep_their_source_auxiliary():
    for kind in (ActionKind.GENERATE, ActionKind.DISTILL, ActionKind.EMBED):
        graph = graph_of(
            [work("A", license="MIT"), work("B", WorkType.DATASET, WorkForm.TEXT)],
            [action("act", kind, ["A"], "B")],
        )
        derive_compositional(graph)
        assert _edge_triples(graph) == [(EdgeKind.AUXWORK, "A", "B")]


def test_train_splits_training_data_by_copublish():
    graph = graph_of(
        [
            work("M"),
            work("D1", WorkType.DATASET, WorkForm.TEXT, license="CC-BY-4.0"),
            work("D2", WorkType.DATASET, WorkForm.TEXT, license="CC-BY-4.0"),
            work("T"),
        ],
        [
            action(
                "fit",
                ActionKind.TRAIN,
                inputs_of(["M"], training=["D1", "D2"]),
                "T",
                copublish=["D1"],
            )
        ],
    )
    derive_compositional(graph)
    assert _edge_triples(graph) == [
        (EdgeKind.AUXWORK, "D2", "T"),
        (EdgeKind.MIXWORK, "M", "T"),
        (EdgeKind.SUBWORK, "D1", "T"),
    ]


def test_auxiliary_inputs_always_stay_auxiliary():
    graph = graph_of(
        [work("A", license="MIT"), work("H", license="MIT"), work("B")],
        [action("act", ActionKind.MODIFY, inputs_of(["A"], auxiliary=["H"]), "B")],
    )
    derive_compositional(graph)
    assert _edge_triples(graph) == [
        (EdgeKind.AUXWORK, "H", "B"),
        (EdgeKind.MIXWORK, "A", "B"),
    ]


def test_register_license_leaves_a_provenance_trail():
    graph = graph_of(
        [work("A", license="MIT"), work("B")],
        [action("reg", ActionKind.REGISTER_LICENSE, ["A"], "B",
                license_to_register="Apache-2.0")],
    )
    derive_compositional(graph)
    assert _edge_triples(graph) == [(EdgeKind.PROVENANCE, "A", "B")]


def test_edges_are_deduplicated_and_sorted():
    graph = graph_of(
        [work("A", license="MIT"), work("B", license="MIT"), work("C"), work("D")],
        [
            action("mix", ActionKind.COMBINE, ["B", "A"], "C"),
            publish("pub", "C", "D"),
        ],
    )
    derive_compositional(graph)
    derive_compositional(graph)
    assert _edge_triples(graph) == [
        (EdgeKind.MIXWORK, "A", "C"),
        (EdgeKind.MIXWORK, "B", "C"),
        (EdgeKind.MIXWORK, "C", "D"),
    ]


# ---------------------------------------------------------------------------
# Rulings and reliance
# ---------------------------------------------------------------------------


def _modify_rule_kb(**kwargs):
    return kb_of(
        profile(
            "L",
            rules=[
                rule(
                    "L-on-modify",
                    "L",
                    [ActionKind.MODIFY],
                    in_forms=[WorkForm.WEIGHTS],
                    out_forms=[WorkForm.RAW],
                    **kwargs,
                )
            ],
        )
    )


def test_rule_fires_on_direct_reliance():
    kb = _modify_rule_kb()
    graph = graph_of(
        [work("A", license="L"), work("B")],
        [action("tune", ActionKind.MODIFY, ["A"], "B")],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)
    assert ruling_tuples(graph) == {("B", "A", "L-on-modify")}
    record = graph.rulings[0]
    assert record.output_def is OutputDefinition.DERIVATIVE
    assert record.id == "rul:B:A:L-on-modify"


def test_unlicensed_intermediate_is_transparent():
    kb = _modify_rule_kb()
    graph = graph_of(
        [work("A", license="L"), work("B"), work("C")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            action("ship", ActionKind.COPY, ["B"], "C"),
        ],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)
    assert ("C", "A", "L-on-modify") in ruling_tuples(graph)


def test_declared_license_stops_the_walk():
    kb = _modify_rule_kb()
    graph = graph_of(
        [work("A", license="L"), work("B", license="MIT"), work("C")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            action("ship", ActionKind.COPY, ["B"], "C"),
        ],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)
    relied_for_c = {r.relied_work for r in graph.rulings if r.work == "C"}
    assert "A" not in relied_for_c


def test_copies_downstream_keep_the_deriving_kind():
    # The last transforming step on a reliance path decides which rules
    # fire, so plain copies of a modified work still count as modify.
    kb = _modify_rule_kb()
    graph = graph_of(
        [work("A", license="L"), work("B"), work("C"), work("D")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            action("ship", ActionKind.COPY, ["B"], "C"),
            publish("pub", "C", "D"),
        ],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)
    assert {("B", "A", "L-on-modify"), ("C", "A", "L-on-modify"),
            ("D", "A", "L-on-modify")} <= ruling_tuples(graph)


def test_single_primary_combine_counts_as_copy():
    kb = kb_of(
        profile(
            "L",
            rules=[
                rule("L-on-combine", "L", [ActionKind.COMBINE]),
                rule("L-on-copy", "L", [ActionKind.COPY]),
            ],
        )
    )
    graph = graph_of(
        [work("A", license="L"), work("B")],
        [action("solo", ActionKind.COMBINE, ["A"], "B")],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)
    assert ruling_tuples(graph) == {("B", "A", "L-on-copy")}

    graph = graph_of(
        [work("A", license="L"), work("A2", license="L"), work("B")],
        [action("duo", ActionKind.COMBINE, ["A", "A2"], "B")],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)
    assert ruling_tuples(graph) == {
        ("B", "A", "L-on-combine"),
        ("B", "A2", "L-on-combine"),
    }


def test_rulings_cascade_through_derived_licenses():
    # A's rule pins B to L; the same rule then fires again for B's own
    # modification, so the chain keeps extending one license hop at a time.
    kb = kb_of(
        profile(
            "L",
            rules=[
                rule(
                    "L-sticky",
                    "L",
                    [ActionKind.MODIFY],
                    relicense=RelicensePolicy.NONE_ALLOWED,
                )
            ],
        )
    )
    graph = graph_of(
        [work("A", license="L"), work("B"), work("C")],
        [
            action("one", ActionKind.MODIFY, ["A"], "B"),
            action("two", ActionKind.MODIFY, ["B"], "C"),
        ],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)
    assert ruling_tuples(graph) == {
        ("B", "A", "L-sticky"),
        ("C", "A", "L-sticky"),
        ("C", "B", "L-sticky"),
    }


def test_unknown_member_licenses_are_skipped():
    kb = _modify_rule_kb()
    graph = graph_of(
        [work("A", license="Proprietary-1"), work("B")],
        [action("tune", ActionKind.MODIFY, ["A"], "B")],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)
    assert graph.rulings == []


# ---------------------------------------------------------------------------
# License determination
# ---------------------------------------------------------------------------


def _determined(graph, kb):
    derive_compositional(graph)
    derive_rulings(graph, kb)
    return determine_licenses(graph, kb)


def test_no_rulings_means_the_default_license():
    kb = kb_of(profile("L"))
    graph = graph_of(
        [work("A", license="L"), work("B")],
        [action("gen", ActionKind.GENERATE, ["A"], "B")],
    )
    _determined(graph, kb)
    assert graph.works["B"].license == DEFAULT_LICENSE
    assert graph.works["B"].origin is Origin.DERIVED
    assert graph.works["A"].license == "L"
    assert graph.works["A"].origin is Origin.USER_DECLARED


def test_relicense_any_rulings_leave_the_default():
    kb = _modify_rule_kb(relicense=RelicensePolicy.ANY)
    graph = graph_of(
        [work("A", license="L"), work("B")],
        [action("tune", ActionKind.MODIFY, ["A"], "B")],
    )
    graph, conflicts = _determined(graph, kb)
    assert graph.works["B"].license == DEFAULT_LICENSE
    assert conflicts == []


def test_none_allowed_ruling_pins_the_license():
    kb = _modify_rule_kb(relicense=RelicensePolicy.NONE_ALLOWED)
    graph = graph_of(
        [work("A", license="L"), work("B")],
        [action("tune", ActionKind.MODIFY, ["A"], "B")],
    )
    graph, conflicts = _determined(graph, kb)
    assert graph.works["B"].license == "L"
    assert conflicts == []


def test_two_none_allowed_licenses_conflict():
    kb = kb_of(
        profile("L1", copyleft=True,
                rules=[rule("L1-r", "L1", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
        profile("L2",
                rules=[rule("L2-r", "L2", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
    )
    graph = graph_of(
        [work("A", license="L1"), work("B", license="L2"), work("C")],
        [action("mix", ActionKind.COMBINE, ["A", "B"], "C")],
    )
    graph, conflicts = _determined(graph, kb)
    assert len(conflicts) == 1
    assert conflicts[0].work == "C"
    assert conflicts[0].implicated == ("L1", "L2")
    assert graph.works["C"].license == "L1"


def test_conflict_fallback_prefers_the_smallest_copyleft():
    kb = kb_of(
        profile("L1",
                rules=[rule("L1-r", "L1", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
        profile("L2", copyleft=True,
                rules=[rule("L2-r", "L2", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
    )
    graph = graph_of(
        [work("A", license="L1"), work("B", license="L2"), work("C")],
        [action("mix", ActionKind.COMBINE, ["A", "B"], "C")],
    )
    graph, _ = _determined(graph, kb)
    assert graph.works["C"].license == "L2"


def test_compatible_candidates_settle_on_the_strictest(seed_kb):
    graph = graph_of(
        [
            work("A", WorkType.SOFTWARE, WorkForm.CODE, license="GPL-3.0"),
            work("B", WorkType.SOFTWARE, WorkForm.CODE, license="AGPL-3.0"),
            work("C", WorkType.SOFTWARE, WorkForm.CODE),
        ],
        [action("mix", ActionKind.COMBINE, ["A", "B"], "C")],
    )
    graph, conflicts = _determined(graph, seed_kb)
    assert graph.works["C"].license == "AGPL-3.0"
    assert conflicts == []


def test_pinned_license_rejects_incompatible_companions():
    kb = kb_of(
        profile("L1",
                rules=[rule("L1-r", "L1", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
        profile("L2",
                rules=[rule("L2-r", "L2", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.COMPATIBLE_ONLY)]),
    )
    graph = graph_of(
        [work("A", license="L1"), work("B", license="L2"), work("C")],
        [action("mix", ActionKind.COMBINE, ["A", "B"], "C")],
    )
    graph, conflicts = _determined(graph, kb)
    assert [c.work for c in conflicts] == ["C"]
    assert conflicts[0].implicated == ("L1", "L2")


def test_pinned_license_accepts_a_compatible_companion():
    kb = kb_of(
        profile("L1",
                rules=[rule("L1-r", "L1", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
        profile("L2", compatible_with={"L2", "L1"},
                rules=[rule("L2-r", "L2", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.COMPATIBLE_ONLY)]),
    )
    graph = graph_of(
        [work("A", license="L1"), work("B", license="L2"), work("C")],
        [action("mix", ActionKind.COMBINE, ["A", "B"], "C")],
    )
    graph, conflicts = _determined(graph, kb)
    assert graph.works["C"].license == "L1"
    assert conflicts == []


def test_registered_license_wins_over_the_default(seed_kb):
    graph = graph_of(
        [work("A", license="MIT"), work("B")],
        [action("reg", ActionKind.REGISTER_LICENSE, ["A"], "B",
                license_to_register="Apache-2.0")],
    )
    graph, conflicts = _determined(graph, seed_kb)
    assert graph.works["B"].license == "Apache-2.0"
    assert conflicts == []


def test_conflicts_come_back_in_work_id_order():
    kb = kb_of(
        profile("L1",
                rules=[rule("L1-r", "L1", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
        profile("L2",
                rules=[rule("L2-r", "L2", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
    )
    graph = graph_of(
        [work("A", license="L1"), work("B", license="L2"), work("Z"), work("C")],
        [
            action("mix", ActionKind.COMBINE, ["A", "B"], "Z"),
            action("remix", ActionKind.COMBINE, ["Z", "A"], "C"),
        ],
    )
    _, conflicts = _determined(graph, kb)
    # Work-id order, not the dependency order Z, C.
    assert [c.work for c in conflicts] == ["C", "Z"]


def test_license_determination_needs_no_action_order(monkeypatch):
    kb = kb_of(
        profile("L1",
                rules=[rule("L1-r", "L1", [ActionKind.MODIFY],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
    )
    graph = graph_of(
        [work("A", license="L1"), work("B")],
        [action("tune", ActionKind.MODIFY, ["A"], "B")],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)

    def unordered(graph):
        raise AssertionError("license determination sorted the actions")

    monkeypatch.setattr(reasoner, "toposort_actions", unordered)
    _, conflicts = determine_licenses(graph, kb)
    assert conflicts == []
    assert graph.works["B"].license == "L1"


def _members(graph, kb, work_id):
    work = graph.works[work_id]
    return members_of(work, work.license, rulings_by_work(graph).get(work_id, []), kb)


def test_work_members_combine_assignment_and_claimants():
    kb = kb_of(
        profile("L1",
                rules=[rule("L1-r", "L1", [ActionKind.MODIFY],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
    )
    graph = graph_of(
        [work("A", license="L1"), work("B")],
        [action("tune", ActionKind.MODIFY, ["A"], "B")],
    )
    _determined(graph, kb)
    assert _members(graph, kb, "A") == {"L1"}
    assert _members(graph, kb, "B") == {"L1"}


def test_a_declared_license_speaks_alone_over_its_rulings():
    kb = kb_of(
        profile("L1",
                rules=[rule("L1-r", "L1", [ActionKind.MODIFY],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
        profile("L2"),
    )
    graph = graph_of(
        [work("A", license="L1"), work("B", license="L2")],
        [action("tune", ActionKind.MODIFY, ["A"], "B")],
    )
    _determined(graph, kb)
    assert [r.rule for r in graph.rulings] == ["L1-r"]
    assert _members(graph, kb, "B") == {"L2"}


def test_relicense_any_rules_never_claim_membership():
    kb = _modify_rule_kb(relicense=RelicensePolicy.ANY)
    graph = graph_of(
        [work("A", license="L"), work("B")],
        [action("tune", ActionKind.MODIFY, ["A"], "B")],
    )
    _determined(graph, kb)
    assert _members(graph, kb, "B") == {DEFAULT_LICENSE}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def test_usage_sets_follow_the_action_kind(seed_kb):
    graph = graph_of(
        [work("A", license="MIT"), work("B"),
         work("D", WorkType.DATASET, WorkForm.TEXT)],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            action("gen", ActionKind.GENERATE, ["B"], "D"),
        ],
    )
    derive_compositional(graph)
    derive_rulings(graph, seed_kb)
    determine_licenses(graph, seed_kb)
    derive_requests(graph, seed_kb)
    per_action = {}
    for record in graph.requests:
        per_action.setdefault((record.action, record.target_work), set()).add(
            record.usage
        )
    assert per_action[("tune", "A")] == {Usage.USE, Usage.MODIFY}
    assert per_action[("gen", "B")] == {Usage.USE}
    assert per_action[("gen", "A")] == {Usage.USE}


def test_publish_manner_scales_the_rights_asked(seed_kb):
    for manner, expected in [
        (PublishManner.INTERNAL, {Usage.USE}),
        (PublishManner.SHARE, {Usage.USE, Usage.REDISTRIBUTE}),
        (PublishManner.SELL,
         {Usage.USE, Usage.REDISTRIBUTE, Usage.COMMERCIAL, Usage.SUBLICENSE}),
    ]:
        graph = graph_of(
            [work("A", license="Llama2"), work("P")],
            [publish("pub", "A", "P", manner)],
        )
        derive_compositional(graph)
        derive_rulings(graph, seed_kb)
        determine_licenses(graph, seed_kb)
        derive_requests(graph, seed_kb)
        usages = {r.usage for r in graph.requests if r.target_work == "A"}
        assert usages == expected, manner


def test_requests_reach_through_mixwork_ancestors(seed_kb):
    graph = graph_of(
        [work("A", license="MIT"), work("B", license="MIT"), work("C"), work("P")],
        [
            action("mix", ActionKind.COMBINE, ["A", "B"], "C"),
            publish("pub", "C", "P", PublishManner.INTERNAL),
        ],
    )
    derive_compositional(graph)
    derive_rulings(graph, seed_kb)
    determine_licenses(graph, seed_kb)
    derive_requests(graph, seed_kb)
    targeted = {r.target_work for r in graph.requests if r.action == "pub"}
    assert targeted == {"A", "B", "C"}


def test_each_request_is_derived_once(seed_kb):
    graph = graph_of(
        [work("A", license="MIT"), work("C"), work("P")],
        [
            action("mix", ActionKind.COMBINE, ["A", "A"], "C"),
            publish("pub", "C", "P", PublishManner.SELL),
        ],
    )
    reasoned, _ = run_all(graph, seed_kb)
    first = list(reasoned.requests)
    assert len(set(first)) == len(first)
    assert ("mix", "A", "A", "use") in request_tuples(reasoned)
    # Requests the graph already holds are not derived again.
    derive_requests(reasoned, seed_kb)
    assert reasoned.requests == first


def test_auxiliary_ancestors_are_not_asked(seed_kb):
    graph = graph_of(
        [work("A", license="Llama2"),
         work("D", WorkType.DATASET, WorkForm.TEXT),
         work("P", WorkType.DATASET, WorkForm.TEXT)],
        [
            action("gen", ActionKind.GENERATE, ["A"], "D"),
            publish("pub", "D", "P", PublishManner.SHARE,
                    publish_form=WorkForm.TEXT),
        ],
    )
    derive_compositional(graph)
    derive_rulings(graph, seed_kb)
    determine_licenses(graph, seed_kb)
    derive_requests(graph, seed_kb)
    targeted = {r.target_work for r in graph.requests if r.action == "pub"}
    assert targeted == {"D"}


def test_waiving_members_suppress_the_sublicense_ask():
    kb = kb_of(
        profile("Waiver", sublicense_waived=True, reserved={Usage.SUBLICENSE}),
        profile("Keeper", reserved={Usage.SUBLICENSE}),
    )
    graph = graph_of(
        [work("A", license="Waiver"), work("B", license="Keeper"),
         work("PA"), work("PB")],
        [
            publish("pa", "A", "PA", PublishManner.SELL),
            publish("pb", "B", "PB", PublishManner.SELL),
        ],
    )
    derive_compositional(graph)
    derive_rulings(graph, kb)
    determine_licenses(graph, kb)
    derive_requests(graph, kb)
    asked_a = {r.usage for r in graph.requests if r.target_work == "A"}
    asked_b = {r.usage for r in graph.requests if r.target_work == "B"}
    assert Usage.SUBLICENSE not in asked_a
    assert Usage.SUBLICENSE in asked_b


def test_register_license_asks_for_nothing(seed_kb):
    graph = graph_of(
        [work("A", license="MIT"), work("B")],
        [action("reg", ActionKind.REGISTER_LICENSE, ["A"], "B",
                license_to_register="Apache-2.0")],
    )
    derive_compositional(graph)
    derive_rulings(graph, seed_kb)
    determine_licenses(graph, seed_kb)
    derive_requests(graph, seed_kb)
    assert graph.requests == []


def test_request_ids_are_readable(seed_kb):
    graph = graph_of(
        [work("A", license="MIT"), work("P")],
        [publish("pub", "A", "P", PublishManner.SHARE)],
    )
    reasoned, _ = run_all(graph, seed_kb)
    record = next(r for r in reasoned.requests if r.usage is Usage.USE)
    assert record.id == "req:pub:A:A:use"


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------


def test_run_all_leaves_the_input_graph_alone(seed_kb):
    graph = graph_of(
        [work("A", license="GPL-3.0", work_type=WorkType.SOFTWARE,
              form=WorkForm.CODE),
         work("B", WorkType.SOFTWARE, WorkForm.CODE), work("P",
              WorkType.SOFTWARE, WorkForm.CODE)],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P", PublishManner.SHARE,
                    publish_form=WorkForm.CODE),
        ],
    )
    snapshot = copy.deepcopy(graph)
    reasoned, stats = run_all(graph, seed_kb)
    assert graph == snapshot
    assert reasoned is not graph
    assert stats.iterations >= 1
    assert stats.records_created == len(reasoned.rulings) + len(reasoned.requests)
    assert reasoned.works["B"].license is not None
    # The result shares no mutable part with its input.
    for copied in reasoned.works.values():
        copied.license, copied.name = "MIT", "changed"
    for act in reasoned.actions.values():
        act.inputs.append(act.inputs[0])
        act.copublish.add("A")
        act.output = "changed"
    reasoned.producers.clear()
    reasoned.consumers["A"].append("changed")
    assert graph == snapshot
    assert graph.producers["B"] is graph.actions["tune"]
    assert graph.consumers == {"A": ["B"], "B": ["P"]}


def test_run_all_is_idempotent_on_its_own_output(seed_kb):
    graph = graph_of(
        [work("A", license="Llama2"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P", PublishManner.SELL),
        ],
    )
    once, _ = run_all(graph, seed_kb)
    twice, _ = run_all(once, seed_kb)
    assert ruling_tuples(once) == ruling_tuples(twice)
    assert request_tuples(once) == request_tuples(twice)
    assert {w: work.license for w, work in once.works.items()} == {
        w: work.license for w, work in twice.works.items()
    }


def test_run_all_resets_previously_derived_licenses(seed_kb):
    graph = graph_of(
        [work("A", license="MIT"), work("B")],
        [action("tune", ActionKind.MODIFY, ["A"], "B")],
    )
    graph.works["B"].license = "Llama2"
    graph.works["B"].origin = Origin.DERIVED
    reasoned, _ = run_all(graph, seed_kb)
    assert reasoned.works["B"].license != "Llama2"


def _copy_rule_kb():
    return kb_of(
        profile("L1",
                rules=[rule("L1-copy", "L1", [ActionKind.COPY],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
    )


def test_deep_copy_chains_reason_without_recursion():
    kb = _copy_rule_kb()
    graph = copy_chain(250, license="L1")
    limit = sys.getrecursionlimit()
    # Far fewer spare frames than the chain has steps, so a walk that
    # recursed once per step would overflow.
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        reasoned, _ = run_all(graph, kb)
    finally:
        sys.setrecursionlimit(limit)
    assert reasoned.works["C0250"].license == "L1"
    assert "C0000" in {r.relied_work for r in reasoned.rulings if r.work == "C0250"}


def _counted_match_rules(monkeypatch):
    original = reasoner.match_rules
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(reasoner, "match_rules", counted)
    return calls


def test_the_fixpoint_matches_each_relied_license_once(monkeypatch):
    calls = _counted_match_rules(monkeypatch)
    reasoned, stats = run_all(copy_chain(60, license="L1"), _copy_rule_kb())
    # C(j) is relied on by the 60 - j copies after it, all copies to code,
    # under L1 once: C0000 in round 1, every other C(j) in round 2 once its
    # ruling lands. One match serves every copy relying on C(j).
    assert len(calls) == 60
    assert len(reasoned.rulings) == 60 * 61 // 2
    assert stats.iterations == 3


def test_the_fixpoint_matches_once_per_output_form(monkeypatch):
    calls = _counted_match_rules(monkeypatch)
    graph = graph_of(
        [
            work("A", WorkType.SOFTWARE, WorkForm.CODE, license="L1"),
            work("B", WorkType.SOFTWARE, WorkForm.CODE),
            work("C", WorkType.SOFTWARE, WorkForm.CODE),
            work("X", WorkType.SOFTWARE, WorkForm.EXE),
        ],
        [
            action("toB", ActionKind.COPY, ["A"], "B"),
            action("toC", ActionKind.COPY, ["A"], "C"),
            action("toX", ActionKind.COPY, ["A"], "X"),
        ],
    )
    run_all(graph, _copy_rule_kb())
    # A feeds code twice and an executable once: two (kind, output form).
    assert sorted(call[4].value for call in calls) == ["code", "exe"]


def test_diamond_ladders_reason_in_polynomial_time(seed_kb):
    # 2**16 producer paths lead from the publish back to the root; listing
    # them one by one takes tens of seconds.
    start = time.perf_counter()
    reasoned, _ = run_all(diamond_ladder(16), seed_kb)
    assert time.perf_counter() - start < 5.0
    assert reasoned.works["OUT"].license == "GPL-3.0"
    assert "R00" in {r.relied_work for r in reasoned.rulings if r.work == "OUT"}


def test_publish_without_a_manner_is_an_arity_violation():
    bare = action("pub", ActionKind.PUBLISH, ["A"], "B")
    with pytest.raises(ArityViolation, match="publish requires a manner"):
        action_usages(bare)


@pytest.mark.parametrize(
    "record",
    [
        RulingRecord("B", "A", "r", OutputDefinition.DERIVATIVE),
        RequestRecord("act", "A", "B", Usage.SUBLICENSE),
        DependencyEdge(EdgeKind.SUBWORK, "A", "B"),
        ActionInput("A", InputRole.TRAINING_DATA),
    ],
)
def test_slotted_records_survive_copy_and_pickle(record):
    assert not hasattr(record, "__dict__")
    twins = [copy.copy(record), copy.deepcopy(record)]
    twins += [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in twins:
        assert twin == record
        assert hash(twin) == hash(record)


_ORDER_SCRIPT = """
import json
from licflow import bundled_rules_dir, load_kb, run_all
from _helpers import diamond_ladder
from graphgen import random_graph

kb = load_kb([bundled_rules_dir()])
lists = []
for graph in (random_graph(5, 13), random_graph(39, 13), diamond_ladder(4)):
    reasoned, _ = run_all(graph, kb)
    lists += [[r.id for r in reasoned.rulings], [r.id for r in reasoned.requests]]
print(json.dumps(lists))
"""


def test_derived_record_order_does_not_follow_the_hash_seed():
    # The CLI sorts what it prints, so only the record lists themselves
    # show an order that follows set or dict hashing.
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert all(outputs[0].count(f'"{kind}:') > 10 for kind in ("rul", "req"))


def test_records_are_hashable_values():
    ruling = RulingRecord("B", "A", "r", OutputDefinition.DERIVATIVE)
    assert ruling == RulingRecord("B", "A", "r", OutputDefinition.DERIVATIVE)
    request = RequestRecord("act", "A", "A", Usage.USE)
    assert len({ruling, ruling}) == 1
    assert len({request, request}) == 1
