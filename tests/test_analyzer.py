"""Compliance checks: every report code, scoping, and exit classes."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from licflow import (
    ActionKind,
    DependencyEdge,
    EdgeKind,
    ExitClass,
    NotPublished,
    PublishManner,
    RelicensePolicy,
    Restriction,
    Revocability,
    Usage,
    WorkForm,
    WorkType,
    analyze_publication,
    bundled_rules_dir,
    dependency_closure,
    derive_compositional,
    load_kb,
    parse_workflow,
    published_targets,
    run_all,
)
from licflow import analyzer
from licflow.reasoner import derive_requests, derive_rulings, determine_licenses

from _helpers import (
    action,
    code_multiset,
    code_subject_multiset,
    graph_of,
    inputs_of,
    kb_of,
    profile,
    publish,
    reason_and_analyze,
    report_multiset,
    rule,
    work,
)
from graphgen import random_graph
from oracleutil import naive_reports


# ---------------------------------------------------------------------------
# Closures and targets
# ---------------------------------------------------------------------------


def test_dependency_closure_follows_only_the_requested_kinds():
    graph = graph_of(
        [work(w) for w in ("A", "B", "C", "D", "E")]
    )
    graph.edges = [
        DependencyEdge(EdgeKind.MIXWORK, "A", "E"),
        DependencyEdge(EdgeKind.SUBWORK, "B", "E"),
        DependencyEdge(EdgeKind.AUXWORK, "C", "E"),
        DependencyEdge(EdgeKind.PROVENANCE, "D", "E"),
    ]
    full = dependency_closure(
        graph, "E", (EdgeKind.MIXWORK, EdgeKind.SUBWORK, EdgeKind.AUXWORK)
    )
    narrow = dependency_closure(graph, "E", (EdgeKind.MIXWORK, EdgeKind.SUBWORK))
    assert full == {"E", "A", "B", "C"}
    assert narrow == {"E", "A", "B"}


def test_published_targets_lists_publish_outputs_sorted():
    graph = graph_of(
        [work("A", license="MG0"), work("P2"), work("P1")],
        [
            publish("pub-b", "A", "P2"),
            publish("pub-a", "A", "P1"),
        ],
    )
    assert published_targets(graph) == ["P1", "P2"]


def test_analyzing_an_unpublished_work_raises(seed_kb):
    graph = graph_of(
        [work("A", license="MG0"), work("P")],
        [publish("pub", "A", "P")],
    )
    reasoned, _ = run_all(graph, seed_kb)
    with pytest.raises(NotPublished):
        analyze_publication(reasoned, seed_kb, "A")
    with pytest.raises(NotPublished):
        analyze_publication(reasoned, seed_kb, "missing")


# ---------------------------------------------------------------------------
# W1: license and material type disagree
# ---------------------------------------------------------------------------


def test_w1_flags_a_license_outside_its_intended_types(seed_kb):
    graph = graph_of(
        [work("A", WorkType.MODEL, WorkForm.WEIGHTS, license="MIT"), work("P")],
        [publish("pub", "A", "P")],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("W1", "A")] == 1


def test_w1_exempts_public_domain_dedications(seed_kb):
    graph = graph_of(
        [work("A", WorkType.MODEL, WorkForm.WEIGHTS, license="Unlicense"),
         work("P")],
        [publish("pub", "A", "P")],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    assert code_multiset(result.reports)["W1"] == 0


def test_w1_fires_once_per_work_even_with_two_bad_members():
    kb = kb_of(
        profile("L1", intended_types=[WorkType.DATASET],
                rules=[rule("L1-r", "L1", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
        profile("L2", intended_types=[WorkType.DATASET],
                rules=[rule("L2-r", "L2", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
    )
    graph = graph_of(
        [work("A", WorkType.DATASET, WorkForm.TEXT, license="L1"),
         work("B", WorkType.DATASET, WorkForm.TEXT, license="L2"),
         work("C"), work("P")],
        [
            action("mix", ActionKind.COMBINE, ["A", "B"], "C"),
            publish("pub", "C", "P"),
        ],
    )
    _, result = reason_and_analyze(graph, kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("W1", "C")] == 1
    assert counts[("W1", "P")] == 1
    assert counts[("W1", "A")] == 0


# ---------------------------------------------------------------------------
# W2 / W3: revocability
# ---------------------------------------------------------------------------


def test_w2_for_revocable_and_w3_for_unstated_members(seed_kb):
    graph = graph_of(
        [work("A", license="Llama2"),
         work("B", WorkType.SOFTWARE, WorkForm.CODE, license="MIT"),
         work("PA"), work("PB", WorkType.SOFTWARE, WorkForm.CODE)],
        [
            publish("pa", "A", "PA"),
            publish("pb", "B", "PB", publish_form=WorkForm.CODE),
        ],
    )
    _, for_a = reason_and_analyze(graph, seed_kb, "PA")
    _, for_b = reason_and_analyze(graph, seed_kb, "PB")
    assert code_subject_multiset(for_a.reports)[("W2", "A")] == 1
    assert code_multiset(for_a.reports)["W3"] == 0
    assert code_subject_multiset(for_b.reports)[("W3", "B")] == 1
    assert code_multiset(for_b.reports)["W2"] == 0


def test_one_work_can_warn_for_both_revocability_kinds():
    kb = kb_of(
        profile("Rev", revocable=Revocability.YES,
                rules=[rule("Rev-r", "Rev", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
        profile("Unk", revocable=Revocability.UNSTATED,
                rules=[rule("Unk-r", "Unk", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
    )
    graph = graph_of(
        [work("A", license="Rev"), work("B", license="Unk"),
         work("C"), work("P")],
        [
            action("mix", ActionKind.COMBINE, ["A", "B"], "C"),
            publish("pub", "C", "P"),
        ],
    )
    _, result = reason_and_analyze(graph, kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("W2", "C")] == 1
    assert counts[("W3", "C")] == 1


# ---------------------------------------------------------------------------
# E2 / E4 / W4: rights the dependencies do not grant
# ---------------------------------------------------------------------------


def test_e2_when_a_needed_right_is_reserved():
    kb = kb_of(profile("L", reserved={Usage.MODIFY}))
    graph = graph_of(
        [work("A", license="L"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P"),
        ],
    )
    _, result = reason_and_analyze(graph, kb, "P")
    assert code_subject_multiset(result.reports)[("E2", "A")] == 1


def test_e2_counts_every_offending_request():
    kb = kb_of(profile("L", reserved={Usage.MODIFY}))
    graph = graph_of(
        [work("A", license="L"), work("B"), work("C"), work("D"), work("P")],
        [
            action("tune1", ActionKind.MODIFY, ["A"], "B"),
            action("tune2", ActionKind.MODIFY, ["A"], "C"),
            action("mix", ActionKind.COMBINE, ["B", "C"], "D"),
            publish("pub", "D", "P"),
        ],
    )
    _, result = reason_and_analyze(graph, kb, "P")
    assert code_subject_multiset(result.reports)[("E2", "A")] == 2


def test_e4_when_publishing_for_sale_needs_sublicensing(seed_kb):
    graph = graph_of(
        [work("A", license="Llama2"), work("P")],
        [publish("pub", "A", "P", PublishManner.SELL)],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("E4", "A")] == 1
    assert counts[("W4", "A")] == 1
    assert counts[("E2", "A")] == 0


def test_waived_sublicensing_never_reaches_e4(seed_kb):
    graph = graph_of(
        [work("A", WorkType.SOFTWARE, WorkForm.CODE, license="GPL-3.0"),
         work("P", WorkType.SOFTWARE, WorkForm.CODE)],
        [publish("pub", "A", "P", PublishManner.SELL,
                 publish_form=WorkForm.CODE)],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    assert code_multiset(result.reports)["E4"] == 0


# ---------------------------------------------------------------------------
# Notices and warnings carried by rulings
# ---------------------------------------------------------------------------


def test_notice_codes_follow_the_publish_restrictions(seed_kb):
    # The modify step rules on its output, and the unlicensed output is
    # transparent, so the published copy picks up a second ruling. Each
    # ruling repeats the license's notices.
    graph = graph_of(
        [work("A", license="AI2-ImpACT-LR"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P"),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("N1", "A")] == 2
    assert counts[("N2", "A")] == 2
    assert counts[("N4", "A")] == 2


def test_gnu_terms_bring_state_changes_and_disclosure(seed_kb):
    graph = graph_of(
        [work("A", WorkType.SOFTWARE, WorkForm.CODE, license="GPL-3.0"),
         work("B", WorkType.SOFTWARE, WorkForm.CODE),
         work("P", WorkType.SOFTWARE, WorkForm.CODE)],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P", publish_form=WorkForm.CODE),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("N1", "A")] == 2
    assert counts[("N2", "A")] == 2
    assert counts[("N3", "A")] == 2
    assert counts[("W5", "A")] == 2


def test_w6_and_w8_come_from_their_restrictions():
    kb = kb_of(
        profile(
            "L",
            rules=[
                rule(
                    "L-r",
                    "L",
                    [ActionKind.MODIFY],
                    publish_restrictions=[Restriction.DISCLOSE_UNMODIFIED],
                    use_restrictions=[Restriction.RUNTIME_CONTROL],
                )
            ],
        )
    )
    graph = graph_of(
        [work("A", license="L"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P"),
        ],
    )
    _, result = reason_and_analyze(graph, kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("W6", "A")] == 2
    assert counts[("W8", "A")] == 2


def test_internal_release_keeps_use_terms_but_drops_publish_terms(seed_kb):
    graph = graph_of(
        [work("A", license="Llama2"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P", PublishManner.INTERNAL),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    counts = code_multiset(result.reports)
    assert counts["W7"] >= 1
    assert counts["N1"] == 0
    assert counts["N2"] == 0


def test_use_terms_survive_a_shared_release_too(seed_kb):
    graph = graph_of(
        [work("A", license="Llama2"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P", PublishManner.SHARE),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("W7", "A")] >= 1
    assert counts[("N1", "A")] == 2


def test_published_generated_output_keeps_use_terms_only(seed_kb):
    # Generated text is held at arm's length from the model, yet the
    # ruling on the text itself still carries the use policy. The rule
    # attaches no notices, so nothing else surfaces for the licensor.
    graph = graph_of(
        [work("L", license="Llama2"),
         work("G", WorkType.DATASET, WorkForm.TEXT),
         work("P", WorkType.DATASET, WorkForm.TEXT)],
        [
            action("gen", ActionKind.GENERATE, ["L"], "G"),
            publish("pub", "G", "P", publish_form=WorkForm.TEXT),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("W7", "L")] == 1
    assert counts[("W2", "L")] == 1
    assert code_multiset(result.reports)["N1"] == 0


def test_one_index_answers_each_manner_of_the_same_work():
    # One derived work released three ways: the index must not hand the
    # findings of one manner to another, whichever release comes first.
    kb = kb_of(
        profile(
            "L",
            rules=[
                rule(
                    "L-r",
                    "L",
                    [ActionKind.MODIFY],
                    publish_restrictions=[
                        Restriction.INCLUDE_LICENSE,
                        Restriction.INCLUDE_NOTICE,
                        Restriction.STATE_CHANGES,
                        Restriction.IMPACT_REPORT,
                        Restriction.DISCLOSE_SELF,
                        Restriction.DISCLOSE_UNMODIFIED,
                    ],
                    use_restrictions=[
                        Restriction.USE_BEHAVIOR,
                        Restriction.NON_COMMERCIAL_OUTPUT,
                    ],
                    allow_sharing=False,
                )
            ],
        )
    )
    graph = graph_of(
        [work("A", license="L"), work("B"),
         work("PI"), work("PS"), work("PL")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("internal", "B", "PI", PublishManner.INTERNAL),
            publish("share", "B", "PS", PublishManner.SHARE),
            publish("sell", "B", "PL", PublishManner.SELL),
        ],
    )
    reasoned, _ = run_all(graph, kb)
    targets = published_targets(reasoned)
    assert targets == ["PI", "PL", "PS"]
    for order in (targets, targets[::-1]):
        index = analyzer.AnalysisIndex(reasoned, kb)
        codes = {}
        for target in order:
            result = analyze_publication(reasoned, kb, target, index)
            assert report_multiset(result.reports) == Counter(
                naive_reports(reasoned, kb, target)
            ), (order, target)
            codes[target] = code_multiset(result.reports)
        silent = ("N1", "N2", "N3", "N4", "W5", "W6")
        assert all(codes["PI"][code] == 0 for code in silent), order
        assert all(codes[t][code] > 0 for t in ("PS", "PL") for code in silent)
        assert codes["PI"]["W7"] > 0 and codes["PS"]["W7"] > 0
        assert [codes[t]["E5"] > 0 for t in ("PI", "PS", "PL")] == [False, False, True]
        assert [codes[t]["E3"] > 0 for t in ("PI", "PS", "PL")] == [False, True, True]


# ---------------------------------------------------------------------------
# E3 / E5: sharing bans and non-commercial terms
# ---------------------------------------------------------------------------


def test_e3_blocks_sharing_a_no_derivatives_build(seed_kb):
    # The no-derivatives ruling repeats on the published copy, so the
    # block is raised once for the tuned work and once for the release.
    for manner, expected in [
        (PublishManner.INTERNAL, 0),
        (PublishManner.SHARE, 2),
        (PublishManner.SELL, 2),
    ]:
        graph = graph_of(
            [work("A", license="MG-BY-ND"), work("B"), work("P")],
            [
                action("tune", ActionKind.MODIFY, ["A"], "B"),
                publish("pub", "B", "P", manner),
            ],
        )
        _, result = reason_and_analyze(graph, seed_kb, "P")
        assert code_subject_multiset(result.reports)[("E3", "A")] == expected, manner


def test_e5_blocks_selling_non_commercial_output(seed_kb):
    # As with E3, the ruling repeats on the published copy under SELL.
    for manner, expected in [
        (PublishManner.SHARE, 0),
        (PublishManner.SELL, 2),
    ]:
        graph = graph_of(
            [work("A", WorkType.DATASET, WorkForm.TEXT, license="CC-BY-NC-4.0"),
             work("B", WorkType.DATASET, WorkForm.TEXT),
             work("P", WorkType.DATASET, WorkForm.TEXT)],
            [
                action("tune", ActionKind.MODIFY, ["A"], "B"),
                publish("pub", "B", "P", manner, publish_form=WorkForm.TEXT),
            ],
        )
        _, result = reason_and_analyze(graph, seed_kb, "P")
        assert code_subject_multiset(result.reports)[("E5", "A")] == expected, manner


# ---------------------------------------------------------------------------
# E6: registering a license the terms forbid
# ---------------------------------------------------------------------------


def _register_pipeline(source_license, new_license, prep_kind=None):
    works = [work("A", license=source_license), work("C"), work("P")]
    actions = []
    source = "A"
    if prep_kind is not None:
        works.insert(1, work("B"))
        actions.append(action("prep", prep_kind, ["A"], "B"))
        source = "B"
    actions.append(
        action("reg", ActionKind.REGISTER_LICENSE, [source], "C",
               license_to_register=new_license)
    )
    actions.append(publish("pub", "C", "P"))
    return graph_of(works, actions)


def test_e6_when_a_pinned_license_is_overwritten(seed_kb):
    graph = _register_pipeline("MG-BY-ND", "MG0", prep_kind=ActionKind.MODIFY)
    _, result = reason_and_analyze(graph, seed_kb, "P")
    assert code_subject_multiset(result.reports)[("E6", "C")] == 1


def test_e6_when_the_new_license_is_incompatible(seed_kb):
    graph = graph_of(
        [work("A", WorkType.SOFTWARE, WorkForm.CODE, license="GPL-3.0"),
         work("A2", WorkType.SOFTWARE, WorkForm.CODE, license="GPL-3.0"),
         work("B", WorkType.SOFTWARE, WorkForm.CODE),
         work("C", WorkType.SOFTWARE, WorkForm.CODE),
         work("P", WorkType.SOFTWARE, WorkForm.CODE)],
        [
            action("mix", ActionKind.COMBINE, ["A", "A2"], "B"),
            action("reg", ActionKind.REGISTER_LICENSE, ["B"], "C",
                   license_to_register="MIT"),
            publish("pub", "C", "P", publish_form=WorkForm.CODE),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    assert code_subject_multiset(result.reports)[("E6", "C")] == 1


def test_compatible_registration_passes():
    # The source license limits relicensing to its compatibility circle
    # but does not reserve the right outright, so registering a license
    # inside the circle is fine and one outside it is blocked.
    kb = kb_of(
        profile(
            "Strict-Share",
            compatible_with=("Open-Kin",),
            rules=(
                rule("Strict-Share-rule", "Strict-Share",
                     (ActionKind.MODIFY,),
                     relicense=RelicensePolicy.COMPATIBLE_ONLY),
            ),
        ),
        profile("Open-Kin"),
        profile("Far-Off"),
    )
    for new_license, expected in [("Open-Kin", 0), ("Far-Off", 1)]:
        graph = graph_of(
            [work("A", license="Strict-Share"), work("B"), work("C"),
             work("P")],
            [
                action("tune", ActionKind.MODIFY, ["A"], "B"),
                action("reg", ActionKind.REGISTER_LICENSE, ["B"], "C",
                       license_to_register=new_license),
                publish("pub", "C", "P"),
            ],
        )
        _, result = reason_and_analyze(graph, kb, "P")
        assert code_multiset(result.reports)["E6"] == expected, new_license


def test_e6_when_a_member_reserves_relicensing(seed_kb):
    graph = graph_of(
        [work("A", WorkType.DATASET, WorkForm.TEXT, license="CC-BY-4.0"),
         work("C", WorkType.DATASET, WorkForm.TEXT),
         work("P", WorkType.DATASET, WorkForm.TEXT)],
        [
            action("reg", ActionKind.REGISTER_LICENSE, ["A"], "C",
                   license_to_register="MG0"),
            publish("pub", "C", "P", publish_form=WorkForm.TEXT),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    assert code_subject_multiset(result.reports)[("E6", "C")] == 1


def test_relicensing_an_unconstrained_work_passes(seed_kb):
    graph = _register_pipeline("MG0", "Apache-2.0")
    _, result = reason_and_analyze(graph, seed_kb, "P")
    assert code_multiset(result.reports)["E6"] == 0


# ---------------------------------------------------------------------------
# E7 / E8: freedom guarantees meeting exclusive terms
# ---------------------------------------------------------------------------


def _freedom_kb(freedom_restriction, exclusive: bool = True):
    return kb_of(
        profile(
            "Free-1",
            copyleft=True,
            rules=[
                rule(
                    "Free-1-r",
                    "Free-1",
                    [ActionKind.COMBINE],
                    relicense=RelicensePolicy.COMPATIBLE_ONLY,
                    publish_restrictions=[freedom_restriction],
                )
            ],
        ),
        profile(
            "Strict-1",
            reserved={Usage.COMMERCIAL} if exclusive else set(),
            rules=[
                rule(
                    "Strict-1-r",
                    "Strict-1",
                    [ActionKind.COMBINE],
                    relicense=RelicensePolicy.NONE_ALLOWED,
                )
            ],
        ),
    )


def _freedom_graph(manner: PublishManner = PublishManner.SHARE):
    return graph_of(
        [work("A", license="Free-1"), work("X", license="Strict-1"),
         work("B"), work("P")],
        [
            action("mix", ActionKind.COMBINE, ["A", "X"], "B"),
            publish("pub", "B", "P", manner),
        ],
    )


def test_e7_when_copyleft_freedom_meets_exclusive_terms():
    # The freedom guarantee fires twice: once for the ruling on the mix
    # itself and once for the ruling the transparent mix passes on to
    # the published copy. Both unresolved works report E10.
    kb = _freedom_kb(Restriction.GNU_FREEDOM)
    _, result = reason_and_analyze(_freedom_graph(), kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("E7", "A")] == 2
    assert counts[("E10", "B")] == 1
    assert counts[("E10", "P")] == 1


def test_e8_is_the_free_content_twin():
    kb = _freedom_kb(Restriction.CC_FREEDOM)
    _, result = reason_and_analyze(_freedom_graph(), kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("E8", "A")] == 2
    assert counts[("E7", "A")] == 0


def test_freedom_codes_need_an_exclusive_publication():
    kb = _freedom_kb(Restriction.GNU_FREEDOM, exclusive=False)
    _, result = reason_and_analyze(_freedom_graph(), kb, "P")
    assert code_multiset(result.reports)["E7"] == 0


def test_freedom_codes_ignore_the_publish_manner():
    kb = _freedom_kb(Restriction.GNU_FREEDOM)
    _, result = reason_and_analyze(_freedom_graph(PublishManner.INTERNAL), kb, "P")
    assert code_multiset(result.reports)["E7"] == 2


# ---------------------------------------------------------------------------
# E9: exclusive improvement clauses
# ---------------------------------------------------------------------------


def test_e9_when_generated_output_improves_another_model(seed_kb, setting_paths):
    graph = parse_workflow(setting_paths["llama"].read_text(encoding="utf-8"))
    reasoned, _ = run_all(graph, seed_kb)
    result = analyze_publication(reasoned, seed_kb, "P")
    counts = code_subject_multiset(result.reports)
    assert counts[("E9", "G")] == 1
    assert counts[("W2", "L")] == 1
    assert sum(counts.values()) == 2


def test_e9_clears_when_the_output_adopts_that_license(seed_kb):
    graph = graph_of(
        [work("L", license="Llama2"),
         work("G", WorkType.DATASET, WorkForm.TEXT),
         work("M"), work("T", license="Llama2"), work("P")],
        [
            action("gen", ActionKind.GENERATE, ["L"], "G"),
            action("fit", ActionKind.TRAIN,
                   inputs_of(["M"], training=["G"]), "T"),
            publish("pub", "T", "P"),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    assert code_multiset(result.reports)["E9"] == 0


# ---------------------------------------------------------------------------
# E10: unresolved and exclusive terms
# ---------------------------------------------------------------------------


def test_e10_for_an_exclusive_terms_ruling_without_that_license():
    kb = kb_of(
        profile(
            "L",
            rules=[
                rule("L-r", "L", [ActionKind.MODIFY],
                     relicense=RelicensePolicy.ANY,
                     publish_restrictions=[Restriction.EXCLUSIVE_TERMS])
            ],
        )
    )
    graph = graph_of(
        [work("A", license="L"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P"),
        ],
    )
    _, result = reason_and_analyze(graph, kb, "P")
    assert code_subject_multiset(result.reports)[("E10", "B")] >= 1


def test_exclusive_terms_settle_when_the_license_sticks():
    kb = kb_of(
        profile(
            "L",
            rules=[
                rule("L-r", "L", [ActionKind.MODIFY],
                     relicense=RelicensePolicy.NONE_ALLOWED,
                     publish_restrictions=[Restriction.EXCLUSIVE_TERMS])
            ],
        )
    )
    graph = graph_of(
        [work("A", license="L"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P"),
        ],
    )
    _, result = reason_and_analyze(graph, kb, "P")
    assert code_multiset(result.reports)["E10"] == 0


# ---------------------------------------------------------------------------
# Scoping, rewriting, exit classes
# ---------------------------------------------------------------------------


def test_unrelated_pipelines_stay_out_of_the_report(seed_kb):
    graph = graph_of(
        [work("A", license="MG0"), work("PA"),
         work("B", license="Llama2"), work("PB")],
        [
            publish("pa", "A", "PA"),
            publish("pb", "B", "PB", PublishManner.SELL),
        ],
    )
    _, clean = reason_and_analyze(graph, seed_kb, "PA")
    _, dirty = reason_and_analyze(graph, seed_kb, "PB")
    assert clean.reports == []
    assert clean.exit_class is ExitClass.CLEAN
    assert dirty.exit_class is ExitClass.ERRORS


def test_analysis_settles_only_the_target_closure(seed_kb, monkeypatch):
    graph = graph_of(
        [work("A", license="MG-BY-ND"), work("B"), work("C"), work("PA"),
         work("X", license="Llama2"), work("Y"), work("PX")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            action("reg", ActionKind.REGISTER_LICENSE, ["B"], "C",
                   license_to_register="MG0"),
            publish("pa", "C", "PA"),
            action("retune", ActionKind.MODIFY, ["X"], "Y"),
            publish("px", "Y", "PX", PublishManner.SELL),
        ],
    )
    reasoned, _ = run_all(graph, seed_kb)
    read = []

    class Recording(dict):
        def __getitem__(self, work_id):
            read.append(work_id)
            return dict.__getitem__(self, work_id)

    reasoned.licensing = Recording(reasoned.licensing)
    index = analyzer.AnalysisIndex(reasoned, seed_kb)
    result = analyze_publication(reasoned, seed_kb, "PA", index)
    full = dependency_closure(
        reasoned, "PA", (EdgeKind.MIXWORK, EdgeKind.SUBWORK, EdgeKind.AUXWORK)
    )
    assert index.settled.keys() == full
    # Settled records are read on demand, and E6 may read the registered
    # work's input from behind its provenance edge.
    assert full <= set(read) <= full | {"B"}
    assert code_subject_multiset(result.reports)[("E6", "C")] == 1
    # A later analysis on the same index reads and settles nothing again.
    asked, reads = [], len(read)
    monkeypatch.setattr(analyzer, "usage_requirement", lambda *args: asked.append(args))
    analyze_publication(reasoned, seed_kb, "PA", index)
    assert index.settled.keys() == full
    assert len(read) == reads
    assert asked == []


def test_an_index_of_another_graph_or_knowledge_base_is_refused(
    seed_kb, setting_paths
):
    first, third = (
        run_all(parse_workflow(setting_paths[name].read_text(encoding="utf-8")), seed_kb)[0]
        for name in ("i", "iii")
    )
    own = analyze_publication(third, seed_kb, "E", analyzer.AnalysisIndex(third, seed_kb))
    assert sorted(code_multiset(own.reports).elements()) == ["N1", "N2", "W5"]
    with pytest.raises(ValueError, match="another graph"):
        analyze_publication(third, seed_kb, "E", analyzer.AnalysisIndex(first, seed_kb))
    # An equal knowledge base loaded again is still another one.
    other_kb = load_kb([bundled_rules_dir()])
    with pytest.raises(ValueError, match="another knowledge base"):
        analyze_publication(third, seed_kb, "E", analyzer.AnalysisIndex(third, other_kb))


def test_an_index_of_a_graph_whose_licenses_were_never_determined_is_refused(
    seed_kb, setting_paths
):
    text = setting_paths["i"].read_text(encoding="utf-8")
    graph = derive_rulings(derive_compositional(parse_workflow(text)), seed_kb)
    for unsettled in (lambda: analyzer.AnalysisIndex(graph, seed_kb),
                      lambda: derive_requests(graph, seed_kb)):
        with pytest.raises(ValueError, match="determine_licenses"):
            unsettled()
    determine_licenses(graph, seed_kb)
    derive_requests(graph, seed_kb)
    reasoned, _ = run_all(parse_workflow(text), seed_kb)
    for target in ("E", "F"):
        assert analyze_publication(graph, seed_kb, target) == (
            analyze_publication(reasoned, seed_kb, target)
        )
    # A work added after license determination has no settled licensing.
    graph.works["Z"] = work("Z")
    with pytest.raises(ValueError, match="determine_licenses"):
        analyzer.AnalysisIndex(graph, seed_kb)


def test_an_index_answers_as_a_fresh_run_or_refuses_after_rulings_are_edited(seed_kb):
    # A library caller edits the rulings of a reasoned graph, in place or
    # by a new list, then runs none, the last or both of the license and
    # request stages again. An index built before the edit must answer as
    # a fresh run does or refuse.
    answered = refused = 0
    for seed in range(200):
        reasoned, _ = run_all(random_graph(seed, max_works=6 + seed % 20), seed_kb)
        targets = published_targets(reasoned)
        index = analyzer.AnalysisIndex(reasoned, seed_kb)
        for target in targets:
            analyze_publication(reasoned, seed_kb, target, index)
        rng = random.Random(seed)
        dropped = [r for r in reasoned.rulings if rng.random() < 0.5]
        if seed % 2:  # edited in place
            for ruling in dropped:
                reasoned.rulings.remove(ruling)
        else:
            reasoned.rulings = [r for r in reasoned.rulings if r not in dropped]
        stages = [determine_licenses, derive_requests][2 - seed % 3:]
        for stage in stages:
            stage(reasoned, seed_kb)
        for target in targets:
            fresh = analyze_publication(reasoned, seed_kb, target)
            try:
                assert analyze_publication(reasoned, seed_kb, target, index) == fresh, seed
                answered += 1
            except ValueError as err:
                assert "changed after its index" in str(err)
                refused += 1
    # An edit that changes no ruling, license or request leaves the index standing.
    assert answered > 0 and refused > 0, (answered, refused)


def test_one_index_renders_each_wording_once(seed_kb, monkeypatch):
    rendered = []

    def counting(code, name, original=analyzer.render):
        rendered.append((code, name))
        return original(code, name)

    monkeypatch.setattr(analyzer, "render", counting)
    for seed in range(40):
        # Generated works have distinct names, so a name stands for its work.
        reasoned, _ = run_all(random_graph(seed, max_works=10), seed_kb)
        index = analyzer.AnalysisIndex(reasoned, seed_kb)
        rendered.clear()
        reported = set()
        for _ in range(2):
            for target in published_targets(reasoned):
                result = analyze_publication(reasoned, seed_kb, target, index)
                reported |= {
                    (r.code, reasoned.works[r.subject].name) for r in result.reports
                }
        assert len(rendered) == len(set(rendered)), seed
        assert reported <= set(rendered), seed


def test_every_report_targets_the_published_work(seed_kb):
    graph = graph_of(
        [work("A", license="Llama2"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P", PublishManner.SELL),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    assert result.reports
    assert {r.target for r in result.reports} == {"P"}
    assert result.target == "P"


def test_reports_come_out_sorted_by_severity_then_code(seed_kb):
    graph = graph_of(
        [work("A", license="Llama2"), work("B"), work("P")],
        [
            action("tune", ActionKind.MODIFY, ["A"], "B"),
            publish("pub", "B", "P", PublishManner.SELL),
        ],
    )
    _, result = reason_and_analyze(graph, seed_kb, "P")
    severities = [r.severity.value for r in result.reports]
    order = {"error": 0, "warning": 1, "notice": 2}
    assert severities == sorted(severities, key=lambda s: order[s])


def test_exit_class_scales_with_the_worst_finding(seed_kb):
    graph = graph_of(
        [work("A", license="MIT"), work("P")],
        [publish("pub", "A", "P")],
    )
    _, warn = reason_and_analyze(graph, seed_kb, "P")
    assert warn.exit_class is ExitClass.WARNINGS
    assert code_multiset(warn.reports)["W3"] == 1


def test_deferred_conflicts_ride_along_with_the_result():
    kb = kb_of(
        profile("L1",
                rules=[rule("L1-r", "L1", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
        profile("L2",
                rules=[rule("L2-r", "L2", [ActionKind.COMBINE],
                            relicense=RelicensePolicy.NONE_ALLOWED)]),
    )
    graph = graph_of(
        [work("A", license="L1"), work("B", license="L2"),
         work("C"), work("P"), work("Q", license="L1"), work("PQ")],
        [
            action("mix", ActionKind.COMBINE, ["A", "B"], "C"),
            publish("pub", "C", "P"),
            publish("other", "Q", "PQ"),
        ],
    )
    _, conflicted = reason_and_analyze(graph, kb, "P")
    _, clean = reason_and_analyze(graph, kb, "PQ")
    assert ("E10", "C") in {(r.code.name, r.subject) for r in conflicted.reports}
    assert code_multiset(clean.reports)["E10"] == 0
