"""Workflow graph construction, validation, and ordering."""

from __future__ import annotations

import hashlib
import itertools
import re
import time
from pathlib import Path

import pytest

from licflow import (
    ActionInput,
    ActionKind,
    ActionNode,
    ArityViolation,
    CycleIntroduced,
    DoubleProducer,
    DuplicateId,
    GraphError,
    InputRole,
    PublishManner,
    ReportCode,
    UnknownWork,
    WorkForm,
    WorkType,
    WorkflowGraph,
    add_action,
    add_work,
    generalize_output_typing,
    parse_workflow,
    serialize_graph,
    validate_graph,
)
from licflow.model import _feeds_any, closure, toposort_actions

from _helpers import (
    action,
    copy_chain,
    diamond_ladder,
    graph_of,
    inputs_of,
    publish,
    work,
)
from graphgen import random_graph
from oracleutil import naive_toposort


def _two_work_graph():
    return graph_of(
        [
            work("A", WorkType.MODEL, WorkForm.WEIGHTS, license="MIT"),
            work("B", WorkType.MODEL, WorkForm.WEIGHTS),
        ]
    )


# ---------------------------------------------------------------------------
# Form vocabulary
# ---------------------------------------------------------------------------


def test_bare_forms_are_the_category_placeholders():
    bare = {form for form in WorkForm if form.is_bare}
    assert bare == {WorkForm.RAW, WorkForm.BINARY, WorkForm.SERVICE, WorkForm.MIXED}


def test_every_form_maps_into_its_category():
    assert WorkForm.CODE.category is WorkForm.RAW
    assert WorkForm.WEIGHTS.category is WorkForm.RAW
    assert WorkForm.CORPUS.category is WorkForm.RAW
    assert WorkForm.TEXT.category is WorkForm.RAW
    assert WorkForm.IMAGE.category is WorkForm.RAW
    assert WorkForm.EXE.category is WorkForm.BINARY
    assert WorkForm.SAAS.category is WorkForm.SERVICE
    assert WorkForm.API.category is WorkForm.SERVICE
    for form in WorkForm:
        if form.is_bare:
            assert form.category is form


# ---------------------------------------------------------------------------
# Graph construction errors
# ---------------------------------------------------------------------------


def test_duplicate_work_id_rejected():
    graph = _two_work_graph()
    with pytest.raises(DuplicateId):
        add_work(graph, work("A"))


def test_action_id_may_not_shadow_a_work_id():
    graph = _two_work_graph()
    with pytest.raises(DuplicateId):
        add_action(graph, action("A", ActionKind.COPY, ["A"], "B"))


def test_action_with_unknown_input_rejected():
    graph = _two_work_graph()
    with pytest.raises(UnknownWork):
        add_action(graph, action("act", ActionKind.COPY, ["missing"], "B"))


def test_action_with_unknown_output_rejected():
    graph = _two_work_graph()
    with pytest.raises(UnknownWork):
        add_action(graph, action("act", ActionKind.COPY, ["A"], "missing"))


def test_second_producer_for_same_output_rejected():
    graph = _two_work_graph()
    add_action(graph, action("one", ActionKind.COPY, ["A"], "B"))
    with pytest.raises(DoubleProducer):
        add_action(graph, action("two", ActionKind.MODIFY, ["A"], "B"))


def test_direct_self_cycle_rejected():
    graph = _two_work_graph()
    with pytest.raises(CycleIntroduced):
        add_action(graph, action("act", ActionKind.MODIFY, ["A"], "A"))


def test_longer_cycle_rejected():
    graph = graph_of(
        [
            work("A", license="MIT"),
            work("B"),
            work("C"),
        ]
    )
    add_action(graph, action("one", ActionKind.MODIFY, ["A"], "B"))
    add_action(graph, action("two", ActionKind.MODIFY, ["B"], "C"))
    with pytest.raises(CycleIntroduced):
        add_action(graph, action("back", ActionKind.MODIFY, ["C"], "A"))


def test_a_cycle_three_steps_downstream_is_caught_with_its_input_named():
    graph = graph_of(
        [work("A", license="MIT"), work("B"), work("C"), work("D")],
        [
            action("one", ActionKind.MODIFY, ["A"], "B"),
            action("two", ActionKind.MODIFY, ["B"], "C"),
            action("three", ActionKind.MODIFY, ["C"], "D"),
        ],
    )
    message = "action 'back': output 'A' already feeds input 'D'"
    with pytest.raises(CycleIntroduced, match=re.escape(message)):
        add_action(graph, action("back", ActionKind.MODIFY, ["D"], "A"))


def test_a_graph_built_from_its_actions_keeps_checking_new_ones():
    built = _two_work_graph()
    graph = WorkflowGraph(
        works=built.works, actions={"one": action("one", ActionKind.COPY, ["A"], "B")}
    )
    with pytest.raises(DoubleProducer):
        add_action(graph, action("two", ActionKind.MODIFY, ["A"], "B"))
    with pytest.raises(CycleIntroduced, match="already feeds input 'B'"):
        add_action(graph, action("back", ActionKind.MODIFY, ["B"], "A"))


def test_a_long_chain_written_in_file_order_builds_in_linear_time():
    # Each action's output has no consumers yet, so its cycle check is O(1);
    # a check that walks the graph per action takes seconds here.
    start = time.perf_counter()
    graph = copy_chain(2000, "MIT")
    assert time.perf_counter() - start < 0.5
    assert len(graph.actions) == 2000


class _CountedLookups(dict):
    """A graph map that counts its `get` calls, which only cycle checks make."""

    calls = 0

    def get(self, key, default=None):
        _CountedLookups.calls += 1
        return super().get(key, default)


def test_a_chain_written_last_step_first_builds_in_linear_steps(monkeypatch):
    text = serialize_graph(copy_chain(2000, "MIT"))
    header, _, body = text.partition("\n\n")
    blocks = body.rstrip("\n").split("\n\n")
    reversed_text = header + "\n\n" + "\n\n".join(reversed(blocks)) + "\n"
    original_init = WorkflowGraph.__init__

    def counted_init(graph, *args, **kwargs):
        original_init(graph, *args, **kwargs)
        graph.producers = _CountedLookups()
        graph.consumers = _CountedLookups()

    monkeypatch.setattr(WorkflowGraph, "__init__", counted_init)
    monkeypatch.setattr(_CountedLookups, "calls", 0)
    # Each action's inputs have no producers yet, so its check stops after
    # one step; walking the output's downstream works would visit about
    # 2000 * 2001 / 2 of them in all.
    graph = parse_workflow(reversed_text)
    assert _CountedLookups.calls <= 4 * 2000
    assert serialize_graph(graph) == text


def test_the_two_sided_cycle_check_agrees_with_a_downstream_walk():
    graphs = [random_graph(seed, max_works=13) for seed in range(200)]
    graphs += [diamond_ladder(4), copy_chain(12, "MIT")]
    checked = found = 0
    for graph in graphs:
        ids = sorted(graph.works)
        for output in ids:
            downstream = closure(output, graph.consumers)
            others = [wid for wid in ids if wid != output]
            for inputs in [[wid] for wid in others] + [others[::2], others[1::2]]:
                expected = any(wid in downstream for wid in inputs)
                assert _feeds_any(graph, output, inputs) is expected
                checked += 1
                found += expected
    assert checked > 10_000 and found > 1_000


def test_a_cycle_names_the_first_fed_input_in_input_order():
    graph = graph_of(
        [work("A", license="MIT"), work("B"), work("C"), work("D", license="MIT")],
        [
            action("one", ActionKind.MODIFY, ["A"], "B"),
            action("two", ActionKind.MODIFY, ["B"], "C"),
        ],
    )
    message = "action 'back': output 'A' already feeds input 'C'"
    with pytest.raises(CycleIntroduced, match=re.escape(message)):
        add_action(graph, action("back", ActionKind.COMBINE, ["D", "C", "B"], "A"))


# ---------------------------------------------------------------------------
# Arity rules
# ---------------------------------------------------------------------------


def test_training_data_only_valid_on_train():
    graph = _two_work_graph()
    with pytest.raises(ArityViolation):
        add_action(
            graph,
            action("act", ActionKind.MODIFY, inputs_of(["A"], training=["A"]), "B"),
        )


def test_train_accepts_training_data_and_copublish():
    graph = graph_of(
        [
            work("M", WorkType.MODEL, WorkForm.WEIGHTS),
            work("D", WorkType.DATASET, WorkForm.TEXT, license="CC-BY-4.0"),
            work("T", WorkType.MODEL, WorkForm.WEIGHTS),
        ]
    )
    add_action(
        graph,
        action(
            "fit",
            ActionKind.TRAIN,
            inputs_of(["M"], training=["D"]),
            "T",
            copublish=["D"],
        ),
    )
    assert graph.actions["fit"].copublish == {"D"}


def test_copublish_must_name_training_inputs():
    graph = graph_of(
        [
            work("M"),
            work("D", WorkType.DATASET, WorkForm.TEXT),
            work("T"),
        ]
    )
    with pytest.raises(ArityViolation):
        add_action(
            graph,
            action(
                "fit",
                ActionKind.TRAIN,
                inputs_of(["M"], training=["D"]),
                "T",
                copublish=["M"],
            ),
        )


def test_modify_needs_exactly_one_primary():
    graph = graph_of([work("A"), work("B"), work("C")])
    with pytest.raises(ArityViolation):
        add_action(graph, action("act", ActionKind.MODIFY, ["A", "B"], "C"))


def test_combine_needs_at_least_one_primary():
    graph = graph_of([work("A"), work("B")])
    with pytest.raises(ArityViolation):
        add_action(
            graph,
            action("act", ActionKind.COMBINE, inputs_of(auxiliary=["A"]), "B"),
        )


def test_single_input_combine_is_legal():
    graph = _two_work_graph()
    add_action(graph, action("act", ActionKind.COMBINE, ["A"], "B"))
    assert "act" in graph.actions


def test_publish_takes_exactly_one_primary():
    graph = graph_of([work("A"), work("B"), work("C")])
    with pytest.raises(ArityViolation):
        add_action(
            graph,
            action(
                "pub",
                ActionKind.PUBLISH,
                ["A", "B"],
                "C",
                manner=PublishManner.SHARE,
            ),
        )


def test_publish_requires_a_manner():
    graph = _two_work_graph()
    with pytest.raises(ArityViolation):
        add_action(graph, action("pub", ActionKind.PUBLISH, ["A"], "B"))


def test_manner_is_publish_only():
    graph = _two_work_graph()
    with pytest.raises(ArityViolation):
        add_action(
            graph,
            action("act", ActionKind.COPY, ["A"], "B", manner=PublishManner.SHARE),
        )


def test_publish_form_is_publish_only():
    graph = _two_work_graph()
    with pytest.raises(ArityViolation):
        add_action(
            graph,
            action("act", ActionKind.COPY, ["A"], "B", publish_form=WorkForm.WEIGHTS),
        )


def test_publish_form_must_match_output_form():
    graph = graph_of(
        [
            work("A", WorkType.MODEL, WorkForm.WEIGHTS, license="MIT"),
            work("B", WorkType.MODEL, WorkForm.SAAS),
        ]
    )
    with pytest.raises(ArityViolation):
        add_action(
            graph,
            action(
                "pub",
                ActionKind.PUBLISH,
                ["A"],
                "B",
                manner=PublishManner.SHARE,
                publish_form=WorkForm.WEIGHTS,
            ),
        )


def test_register_license_requires_a_license_id():
    graph = _two_work_graph()
    with pytest.raises(ArityViolation):
        add_action(graph, action("reg", ActionKind.REGISTER_LICENSE, ["A"], "B"))


def test_license_to_register_is_register_only():
    graph = _two_work_graph()
    with pytest.raises(ArityViolation):
        add_action(
            graph,
            action("act", ActionKind.COPY, ["A"], "B", license_to_register="MIT"),
        )


def test_auxiliary_inputs_allowed_on_transforming_actions():
    graph = graph_of([work("A", license="MIT"), work("H"), work("B")])
    add_action(
        graph,
        action("act", ActionKind.MODIFY, inputs_of(["A"], auxiliary=["H"]), "B"),
    )
    roles = {inp.work: inp.role for inp in graph.actions["act"].inputs}
    assert roles == {"A": InputRole.PRIMARY, "H": InputRole.AUXILIARY}


# Computed by the checker that raised once per arity rule: any change of
# outcome, exception class, wording or rule precedence changes it.
_SHAPE_DIGEST = "6d971456da3c4bf6a4c34b515a6062f1c9dc3430fac56f9251c97053c04f7a56"


def test_every_action_shape_keeps_its_outcome_and_message():
    """10 kinds x 40 role lists x manner x form x license x copublish: 14,400 shapes."""
    works = {w.id: w for w in (
        work("I0"), work("I1"), work("I2"), work("X"),
        work("O", WorkType.SOFTWARE, WorkForm.CODE),
    )}
    role_lists = [
        roles for n in range(4) for roles in itertools.product(InputRole, repeat=n)
    ]
    digest = hashlib.sha256()
    for kind, roles, manner, form, license, copublish in itertools.product(
        ActionKind, role_lists, (None, PublishManner.SHARE), (None, WorkForm.CODE),
        (None, "", "MIT"), (frozenset(), frozenset({"I0"}), frozenset({"I1", "X"})),
    ):
        inputs = [ActionInput(f"I{i}", role) for i, role in enumerate(roles)]
        try:
            add_action(WorkflowGraph(works=works), ActionNode(
                "a", kind, inputs, "O", manner, form, license, copublish))
            outcome = None
        except GraphError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        shape = (kind.value, [r.value for r in roles], manner and manner.value,
                 form and form.value, license, sorted(copublish))
        digest.update(f"{shape} {outcome}\n".encode("utf-8"))
    assert digest.hexdigest() == _SHAPE_DIGEST


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


def test_toposort_orders_actions_by_dependency_then_id():
    graph = graph_of(
        [work("A", license="MIT"), work("B"), work("C"), work("D"), work("E")]
    )
    add_action(graph, action("z-first", ActionKind.COPY, ["A"], "B"))
    add_action(graph, action("m-second", ActionKind.MODIFY, ["B"], "C"))
    add_action(graph, action("a-third", ActionKind.MODIFY, ["C"], "D"))
    add_action(graph, action("b-leaf", ActionKind.COPY, ["A"], "E"))
    ordered = [a.id for a in toposort_actions(graph)]
    assert ordered.index("z-first") < ordered.index("m-second")
    assert ordered.index("m-second") < ordered.index("a-third")
    assert ordered[0] == "b-leaf"


def test_toposort_of_empty_graph_is_empty():
    assert toposort_actions(graph_of([])) == []


def _ids(actions):
    return [a.id for a in actions]


def test_toposort_agrees_with_the_level_by_level_oracle():
    graphs = [
        parse_workflow(path.read_text())
        for path in sorted((Path(__file__).parent / "fixtures").glob("*.mgw"))
        if path.name != "cyclic.mgw"  # parsing refuses it
    ]
    graphs += [random_graph(seed, max_works=13) for seed in range(200)]
    graphs += [diamond_ladder(rungs) for rungs in (1, 4, 12)]
    for graph in graphs:
        assert _ids(toposort_actions(graph)) == _ids(naive_toposort(graph))


def test_toposort_of_a_cyclic_graph_raises_like_the_oracle():
    # Built without add_action, which would refuse the closing action.
    actions = [
        action("a", ActionKind.COPY, ["A"], "B"),
        action("b", ActionKind.COMBINE, ["B", "D"], "C"),
        action("c", ActionKind.COPY, ["C"], "D"),
    ]
    graph = WorkflowGraph(
        works={w: work(w) for w in "ABCD"}, actions={a.id: a for a in actions}
    )
    with pytest.raises(CycleIntroduced) as expected:
        naive_toposort(graph)
    with pytest.raises(CycleIntroduced) as raised:
        toposort_actions(graph)
    assert str(raised.value) == str(expected.value)


def test_a_long_chain_sorts_in_linear_time():
    # A sort that rescans every pending action per level takes about a
    # second here.
    graph = copy_chain(3000, "MIT")
    start = time.perf_counter()
    ordered = toposort_actions(graph)
    assert time.perf_counter() - start < 0.25
    assert _ids(ordered) == [f"copy{i:04d}" for i in range(1, 3001)]


# ---------------------------------------------------------------------------
# Output typing
# ---------------------------------------------------------------------------


def test_identical_labels_survive_generalization():
    assert generalize_output_typing(
        [WorkType.MODEL, WorkType.MODEL], [WorkForm.WEIGHTS, WorkForm.WEIGHTS]
    ) == (WorkType.MODEL, WorkForm.WEIGHTS)


def test_same_category_forms_collapse_to_bare_form():
    out_type, out_form = generalize_output_typing(
        [WorkType.MODEL, WorkType.DATASET], [WorkForm.WEIGHTS, WorkForm.TEXT]
    )
    assert out_type is WorkType.MIXED
    assert out_form is WorkForm.RAW


def test_cross_category_forms_collapse_to_mixed():
    _, out_form = generalize_output_typing(
        [WorkType.SOFTWARE, WorkType.SOFTWARE], [WorkForm.CODE, WorkForm.EXE]
    )
    assert out_form is WorkForm.MIXED


def test_generalize_rejects_empty_input():
    with pytest.raises(ValueError):
        generalize_output_typing([], [])


# ---------------------------------------------------------------------------
# Typing validation
# ---------------------------------------------------------------------------


def test_validate_flags_implausible_type_form_pairs():
    graph = graph_of(
        [
            work("A", WorkType.DATASET, WorkForm.EXE),
            work("B", WorkType.SOFTWARE, WorkForm.WEIGHTS),
            work("C", WorkType.MODEL, WorkForm.WEIGHTS),
        ]
    )
    reports = validate_graph(graph)
    assert [r.code for r in reports] == [ReportCode.E1, ReportCode.E1]
    assert [r.subject for r in reports] == ["A", "B"]


def test_bare_forms_and_mixed_type_always_validate():
    graph = graph_of(
        [
            work("A", WorkType.DATASET, WorkForm.RAW),
            work("B", WorkType.MODEL, WorkForm.BINARY),
            work("C", WorkType.MIXED, WorkForm.CODE),
            work("D", WorkType.SOFTWARE, WorkForm.SERVICE),
        ]
    )
    assert validate_graph(graph) == []


def test_clean_pipeline_validates_and_publishes():
    graph = graph_of(
        [
            work("A", WorkType.MODEL, WorkForm.WEIGHTS, license="MIT"),
            work("B", WorkType.MODEL, WorkForm.WEIGHTS),
            work("C", WorkType.MODEL, WorkForm.SAAS),
        ]
    )
    add_action(graph, action("tune", ActionKind.MODIFY, ["A"], "B"))
    add_action(
        graph,
        publish("pub", "B", "C", PublishManner.SELL, publish_form=WorkForm.SAAS),
    )
    assert validate_graph(graph) == []
    assert [a.id for a in toposort_actions(graph)] == ["tune", "pub"]
