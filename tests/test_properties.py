"""Randomized cross-checks of the engine against naive re-derivations."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from licflow import (
    ActionKind,
    ExitClass,
    Severity,
    WorkForm,
    analyze_publication,
    parse_workflow,
    published_targets,
    run_all,
    serialize_graph,
)
from licflow.analyzer import AnalysisIndex
from licflow.reports import sort_reports

from _helpers import (
    action,
    code_work,
    diamond_ladder,
    graph_of,
    inputs_of,
    publish,
    ruling_tuples,
)
from graphgen import random_graph
from oracleutil import naive_edge_set, naive_requests, naive_rulings

SUBSET_SEEDS = range(100)
ORACLE_SEEDS = range(1000, 1100)
ROUND_TRIP_SEEDS = range(60)


def _code_counts(graph, kb, fuzz):
    reasoned, _ = run_all(graph, kb, fuzz)
    by_target = {}
    for target in published_targets(reasoned):
        result = analyze_publication(reasoned, kb, target)
        by_target[target] = Counter(
            (r.code.name, r.subject) for r in result.reports
        )
    return by_target


def test_fuzz_off_reports_are_a_subset_of_fuzz_on(seed_kb):
    for seed in SUBSET_SEEDS:
        graph = random_graph(seed, max_works=6)
        wide = _code_counts(graph, seed_kb, fuzz=True)
        narrow = _code_counts(graph, seed_kb, fuzz=False)
        assert set(narrow) == set(wide)
        for target, counts in narrow.items():
            for key, count in counts.items():
                assert count <= wide[target][key], (seed, target, key)


def _assert_matches_the_oracle(graph, kb, label):
    for fuzz in (True, False):
        reasoned, _ = run_all(graph, kb, fuzz)
        got_edges = {
            (e.kind.value, e.source, e.target) for e in reasoned.edges
        }
        assert got_edges == naive_edge_set(graph), (label, fuzz)
        expected_rulings = naive_rulings(graph, kb, fuzz)
        assert ruling_tuples(reasoned) == expected_rulings, (label, fuzz)
        got_requests = {
            (r.action, r.source_work, r.target_work, r.usage.value)
            for r in reasoned.requests
        }
        assert got_requests == naive_requests(
            graph, kb, expected_rulings
        ), (label, fuzz)


def test_the_engine_matches_the_naive_oracle(seed_kb):
    for seed in ORACLE_SEEDS:
        _assert_matches_the_oracle(random_graph(seed, max_works=5), seed_kb, seed)


def test_shared_ancestors_match_the_naive_oracle(seed_kb):
    # The root is relied upon through a modify (M) and, from the same
    # single-primary combine, through a plain copy (K): two kinds for one
    # work.
    diamond = graph_of(
        [code_work("R", "GPL-3.0")] + [code_work(w) for w in ("M", "K", "C", "P")],
        [
            action("tune", ActionKind.MODIFY, ["R"], "M"),
            action("dup", ActionKind.COPY, ["R"], "K"),
            action(
                "join",
                ActionKind.COMBINE,
                inputs_of(primaries=["M"], auxiliary=["K"]),
                "C",
            ),
            publish("pub", "C", "P", publish_form=WorkForm.CODE),
        ],
    )
    _assert_matches_the_oracle(diamond, seed_kb, "diamond")
    _assert_matches_the_oracle(diamond_ladder(5), seed_kb, "ladder")


def test_generated_graphs_round_trip_through_the_text_format():
    for seed in ROUND_TRIP_SEEDS:
        graph = random_graph(seed, max_works=6)
        text = serialize_graph(graph)
        assert parse_workflow(text) == graph, seed
        assert serialize_graph(parse_workflow(text)) == text, seed


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.integers(0, 10**6),
    st.integers(4, 12),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_a_shared_index_answers_every_target_as_a_fresh_one_does(
    seed_kb, seed, works, exclusive, rng
):
    # What the index settles for a work may not depend on which target
    # asked for it first. Over seeds 0-399 at 10 works, 1 of 479 targets
    # adds exclusive terms, which gate E7/E8; with `exclusive`, all 1,266
    # do, and 806 of them hold E7/E8 candidates, shared between targets.
    reasoned, _ = run_all(random_graph(seed, works, exclusive), seed_kb)
    targets = published_targets(reasoned)
    rng.shuffle(targets)
    shared = AnalysisIndex(reasoned, seed_kb)
    for target in targets:
        fresh = AnalysisIndex(reasoned, seed_kb)
        assert analyze_publication(reasoned, seed_kb, target, shared) == (
            analyze_publication(reasoned, seed_kb, target, fresh)
        ), (seed, works, target)


def test_reasoning_is_deterministic(seed_kb):
    for seed in range(30):
        graph = random_graph(seed, max_works=6)
        first, _ = run_all(graph, seed_kb)
        second, _ = run_all(graph, seed_kb)
        assert serialize_graph(first) == serialize_graph(second), seed
        for target in published_targets(first):
            one = analyze_publication(first, seed_kb, target).reports
            two = analyze_publication(second, seed_kb, target).reports
            assert one == two, (seed, target)


def test_reports_are_sorted_scoped_and_classified(seed_kb):
    rank = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.NOTICE: 2}
    for seed in ROUND_TRIP_SEEDS:
        graph = random_graph(seed, max_works=6)
        reasoned, _ = run_all(graph, seed_kb)
        for target in published_targets(reasoned):
            result = analyze_publication(reasoned, seed_kb, target)
            reports = result.reports
            assert reports == sort_reports(reports), (seed, target)
            ranks = [rank[r.severity] for r in reports]
            assert ranks == sorted(ranks), (seed, target)
            for report in reports:
                assert report.target == target
                assert report.subject in reasoned.works
                assert report.code.name[0] == {
                    Severity.NOTICE: "N",
                    Severity.WARNING: "W",
                    Severity.ERROR: "E",
                }[report.severity]
            if any(r.severity is Severity.ERROR for r in reports):
                expected = ExitClass.ERRORS
            elif reports:
                expected = ExitClass.WARNINGS
            else:
                expected = ExitClass.CLEAN
            assert result.exit_class is expected, (seed, target)
