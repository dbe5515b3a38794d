"""The records' semantics, one table over every record class.

Immutable records are named tuples; mutable ones are plain classes that
share field equality and repr and expose the same `_fields` and
`_field_defaults`. No record is built through `dataclasses`, so that a
one-shot run never imports it.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import licflow
from licflow import (
    ActionInput,
    ActionKind,
    ActionNode,
    AnalysisResult,
    ExitClass,
    FixpointStats,
    KnowledgeBase,
    LicenseFramework,
    LicenseProfile,
    Origin,
    OutputDefinition,
    RelicensePolicy,
    Report,
    ReportCode,
    Revocability,
    Rule,
    Usage,
    Work,
    WorkflowGraph,
    WorkForm,
    WorkType,
    run_all,
)
from licflow import cli, interchange, kb as kb_module, reasoner
from licflow.interchange import Document, Ident
from licflow.reasoner import DeferredConflict

from _helpers import diamond_ladder, kb_of, profile

# Each record class: its fields, its field defaults, whether it hashes,
# and a builder that passes only the fields without a default.
RECORDS = {
    Report: (
        ("code", "subject", "target", "content"),
        {},
        True,
        lambda: Report(ReportCode.E1, "A", "A", "The type of A is inconsistent with its form."),
    ),
    Ident: (("local",), {}, True, lambda: Ident("A")),
    DeferredConflict: (
        ("work", "implicated"), {}, True, lambda: DeferredConflict("A", ("GPL-3.0", "MIT"))
    ),
    AnalysisResult: (
        ("target", "reports", "exit_class"),
        {},
        False,
        lambda: AnalysisResult("A", [], ExitClass.CLEAN),
    ),
    FixpointStats: (
        ("iterations", "records_created"),
        {"iterations": 0, "records_created": 0},
        False,
        FixpointStats,
    ),
    Rule: (
        (
            "id", "license", "trigger_actions", "trigger_input_forms", "trigger_output_forms",
            "output_def", "relicense", "publish_restrictions", "use_restrictions",
            "allow_sharing", "fuzz_only",
        ),
        {
            "publish_restrictions": frozenset(),
            "use_restrictions": frozenset(),
            "allow_sharing": True,
            "fuzz_only": False,
        },
        False,
        lambda: Rule("L-1", "L", {ActionKind.TRAIN}, {WorkForm.RAW}, {WorkForm.RAW},
                     OutputDefinition.DERIVATIVE, RelicensePolicy.ANY),
    ),
    LicenseProfile: (
        (
            "id", "name", "framework", "intended_types", "copyleft", "permissive",
            "revocable", "granted", "reserved", "sublicense_waived_by_auto_relicense",
            "compatible_with", "rules", "metadata",
        ),
        {
            "copyleft": False,
            "permissive": False,
            "revocable": Revocability.UNSTATED,
            "granted": frozenset(),
            "reserved": frozenset(),
            "sublicense_waived_by_auto_relicense": False,
            "compatible_with": frozenset(),
            "rules": (),
            "metadata": (),
        },
        False,
        lambda: LicenseProfile("L", "License L", LicenseFramework.OSS, {WorkType.MODEL}),
    ),
    Work: (
        ("id", "name", "work_type", "form", "license", "origin"),
        {"license": None, "origin": Origin.USER_DECLARED},
        False,
        lambda: Work("A", "Work A", WorkType.MODEL, WorkForm.WEIGHTS),
    ),
    ActionNode: (
        (
            "id", "kind", "inputs", "output", "publish_manner", "publish_form",
            "license_to_register", "copublish",
        ),
        {
            "publish_manner": None,
            "publish_form": None,
            "license_to_register": None,
            "copublish": frozenset(),
        },
        False,
        lambda: ActionNode("tune", ActionKind.MODIFY, [ActionInput("A")], "B"),
    ),
    WorkflowGraph: (
        ("works", "actions", "edges", "rulings", "requests"),
        dict.fromkeys(("works", "actions", "edges", "rulings", "requests")),
        False,
        WorkflowGraph,
    ),
    KnowledgeBase: (
        ("licenses", "rules"), dict.fromkeys(("licenses", "rules")), False, KnowledgeBase
    ),
    Document: (
        ("prefixes", "statements"), dict.fromkeys(("prefixes", "statements")), False, Document
    ),
}

_CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def _with(record: object, name: str, value: object) -> object:
    """A copy of the record with one field set to `value`."""
    if isinstance(record, tuple):
        return record._replace(**{name: value})
    changed = copy.copy(record)
    setattr(changed, name, value)
    return changed


def test_importing_the_cli_and_loading_the_bundled_kb_imports_no_dataclasses():
    script = Path(__file__).with_name("import_contract.py")
    env = dict(os.environ, PYTHONPATH=str(Path(licflow.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"checked {cli.__file__}\n"


def test_every_record_class_is_in_the_table():
    # Every class the package defines with fields of its own is a record.
    defined = {
        cls
        for module in (licflow.analyzer, interchange, kb_module, licflow.model, reasoner,
                       licflow.reports)
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and hasattr(cls, "_field_defaults") and not cls.__name__.startswith("_")
    }
    named_tuples = {
        licflow.ActionInput, licflow.DependencyEdge, licflow.RequestRecord,
        licflow.RulingRecord, reasoner.Licensing,
    }
    assert defined - named_tuples == set(RECORDS)


@_CLASSES
def test_fields_and_defaults(cls):
    fields, defaults, _, _ = RECORDS[cls]
    assert not hasattr(cls, "__dataclass_fields__")
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    # A default is shared by every record that leaves it out, so none is mutable.
    immutable = (type(None), bool, int, Revocability, Origin, frozenset, tuple)
    for name, value in defaults.items():
        assert isinstance(value, immutable), name


@_CLASSES
def test_equality_is_by_fields(cls):
    fields, _, _, build = RECORDS[cls]
    record = build()
    assert record == build()
    assert not record != build()
    for name in fields:
        assert record != _with(record, name, object()), name
    assert record != object()


def test_a_graph_compares_by_its_fields_not_its_derived_maps():
    graph = diamond_ladder(2)
    other = diamond_ladder(2)
    other.producers.clear()
    other.consumers.clear()
    other.licensing["R00"] = None
    assert graph == other
    other.edges.append(None)
    assert graph != other


@_CLASSES
def test_hashable_as_before(cls):
    _, _, hashable, build = RECORDS[cls]
    if hashable:
        assert hash(build()) == hash(build())
        assert len({build(), build()}) == 1
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(build())


@_CLASSES
def test_no_two_records_share_a_mutable_container(cls):
    fields, _, _, build = RECORDS[cls]
    first, second = build(), build()
    for name in fields:
        value = getattr(first, name)
        if isinstance(value, (list, dict, set)):
            assert value is not getattr(second, name), name


@_CLASSES
def test_deepcopy_and_pickle_round_trip(cls):
    record = RECORDS[cls][3]()
    for again in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is cls
        assert again == record
        assert repr(again) == repr(record)


def test_a_reasoned_graph_round_trips_with_its_derived_maps(seed_kb):
    graph, _ = run_all(diamond_ladder(3), seed_kb)
    for again in (copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert again == graph
        assert again.producers.keys() == graph.producers.keys()
        assert again.consumers == graph.consumers
        assert again.licensing == graph.licensing
    # A copied work stays mutable.
    work = next(iter(copy.deepcopy(graph).works.values()))
    work.license = "MIT"
    assert work.license == "MIT"


def test_repr_names_each_field():
    assert repr(Work("A", "Work A", WorkType.MODEL, WorkForm.WEIGHTS)) == (
        "Work(id='A', name='Work A', work_type=<WorkType.MODEL: 'model'>, "
        "form=<WorkForm.WEIGHTS: 'weights'>, license=None, "
        "origin=<Origin.USER_DECLARED: 'user_declared'>)"
    )
    assert repr(KnowledgeBase()) == "KnowledgeBase(licenses={}, rules={})"


def test_stats_take_their_counts_by_keyword():
    assert FixpointStats(records_created=3) == FixpointStats(0, 3)


def test_rules_file_schemas():
    profile_keys, profile_required = kb_module._PROFILE_SCHEMA
    rule_keys, rule_required = kb_module._RULE_SCHEMA
    assert {key: (item, many) for key, (item, _, many) in profile_keys.items()} == {
        "id": (str, False),
        "name": (str, False),
        "framework": (LicenseFramework, False),
        "intended_types": (WorkType, True),
        "copyleft": (bool, False),
        "permissive": (bool, False),
        "revocable": (Revocability, False),
        "granted": (Usage, True),
        "reserved": (Usage, True),
        "sublicense_waived_by_auto_relicense": (bool, False),
        "compatible_with": (str, True),
    }
    assert profile_required == {"id", "name", "framework", "intended_types"}
    assert {key: (item, many) for key, (item, _, many) in rule_keys.items()} == {
        "id": (str, False),
        "trigger_actions": (ActionKind, True),
        "trigger_input_forms": (WorkForm, True),
        "trigger_output_forms": (WorkForm, True),
        "output_def": (OutputDefinition, False),
        "relicense": (RelicensePolicy, False),
        "publish_restrictions": (licflow.Restriction, True),
        "use_restrictions": (licflow.Restriction, True),
        "allow_sharing": (bool, False),
        "fuzz_only": (bool, False),
    }
    assert rule_required == {
        "id", "trigger_actions", "trigger_input_forms", "trigger_output_forms",
        "output_def", "relicense",
    }


def test_workflow_node_defaults():
    # A field with a default is written only when it differs; a field
    # without one is required unless many statements fill it.
    nodes = (interchange._WORK, interchange._ACTION, interchange._RULING, interchange._REQUEST)
    assert [node.defaults for node in nodes] == [
        {"license": None, "origin": Origin.USER_DECLARED},
        {
            "publish_manner": None,
            "publish_form": None,
            "license_to_register": None,
            "copublish": frozenset(),
        },
        {},
        {},
    ]
    assert [[entry.field for entry in node.required] for node in nodes] == [
        ["name", "work_type", "form"],
        ["output"],
        ["relied_work", "rule", "output_def"],
        ["source_work", "target_work", "usage"],
    ]


def test_a_profile_left_with_its_default_compatibility_admits_nothing():
    # `compatible_with` left out is an empty frozenset, which settles too.
    kb = kb_of(profile("L")._replace(compatible_with=frozenset()))
    work = Work("A", "Work A", WorkType.MODEL, WorkForm.WEIGHTS)
    licensing = reasoner._licensing(work, None, (set(), {"L"}), kb)
    assert licensing.admitted == frozenset()
    assert licensing.conflict == DeferredConflict("A", ("L",))
