"""Workflow text format: parsing, serialization, and DOT export."""

from __future__ import annotations

from dataclasses import fields

import pytest

from licflow import (
    DEFAULT_LICENSE,
    ActionKind,
    ActionNode,
    DependencyEdge,
    EdgeKind,
    InputRole,
    InterchangeError,
    Origin,
    SemanticError,
    UnknownTerm,
    UnknownWork,
    Work,
    WorkflowGraph,
    WorkflowSyntaxError,
    WorkForm,
    WorkType,
    export_dot,
    parse_workflow,
    run_all,
    serialize_graph,
)
from licflow.interchange import _ACTION, _WORK, Ident, parse_document

from _helpers import (
    action,
    graph_of,
    inputs_of,
    publish,
    reason_and_analyze,
    work,
)

PREFIX = "@prefix mg: <urn:licflow:v1#> ."


def doc(*blocks: str) -> str:
    return "\n".join([PREFIX, ""] + list(blocks)) + "\n"


WORK_A = """mg:A a mg:Work ;
   mg:name "Seed" ;
   mg:workType "model" ;
   mg:workForm "weights" ;
   mg:hasLicense "MIT" .
"""

WORK_B = """mg:B a mg:Work ;
   mg:name "Tuned" ;
   mg:workType "model" ;
   mg:workForm "weights" .
"""

TUNE = """mg:tune a mg:ModifyAction ;
   mg:hasInput mg:A ;
   mg:hasOutput mg:B .
"""


# ---------------------------------------------------------------------------
# The vocabulary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("node, cls", [(_WORK, Work), (_ACTION, ActionNode)])
def test_every_field_is_filled_by_its_own_predicates(node, cls):
    predicates = {f.name: [] for f in fields(cls) if f.name not in ("id", "kind")}
    for entry in node.table:
        predicates[entry.field].append(entry.predicate)
    assert set(predicates) == {f.name for f in fields(cls)} - {"id", "kind"}
    for name, named_by in predicates.items():
        # An action's inputs are stated with one predicate per role.
        expected = len(InputRole) if name == "inputs" else 1
        assert len(named_by) == expected, name
    assert len({entry.predicate for entry in node.table}) == len(node.table)


# ---------------------------------------------------------------------------
# Document-level parsing
# ---------------------------------------------------------------------------


def test_parse_document_resolves_terms_and_literals():
    text = doc(
        "# a comment to skip",
        'mg:W a mg:Work ;',
        '   mg:name "hello" .',
        "mg:act mg:hasInput mg:W, mg:W ;",
        "   mg:copublish true ;",
        "   mg:usage 42 .",
    )
    document = parse_document(text)
    assert document.prefixes == {"mg": "urn:licflow:v1#"}
    assert ("W", "a", Ident("Work")) in document.statements
    assert ("W", "name", "hello") in document.statements
    assert document.statements.count(("act", "hasInput", Ident("W"))) == 2
    assert ("act", "copublish", True) in document.statements
    assert ("act", "usage", 42) in document.statements


def test_happy_path_builds_the_graph():
    graph = parse_workflow(doc(WORK_A, WORK_B, TUNE))
    assert set(graph.works) == {"A", "B"}
    assert graph.works["A"].license == "MIT"
    assert graph.works["A"].name == "Seed"
    assert graph.works["B"].license is None
    assert graph.actions["tune"].kind is ActionKind.MODIFY
    assert [inp.work for inp in graph.actions["tune"].inputs] == ["A"]
    assert graph.actions["tune"].output == "B"


# ---------------------------------------------------------------------------
# Syntax errors carry their position
# ---------------------------------------------------------------------------


def test_unexpected_character_reports_line_and_column():
    text = PREFIX + "\nmg:W % a mg:Work ."
    with pytest.raises(WorkflowSyntaxError) as exc:
        parse_workflow(text)
    assert exc.value.line == 2
    assert exc.value.column == 6
    assert "line 2, column 6" in str(exc.value)


def test_bad_string_escape_reports_the_string_position():
    text = "\n".join(
        [
            PREFIX,
            "mg:W a mg:Work ;",
            '   mg:name "no \\q here" ;',
            '   mg:workType "model" ;',
            '   mg:workForm "weights" .',
        ]
    )
    with pytest.raises(WorkflowSyntaxError) as exc:
        parse_workflow(text)
    assert exc.value.line == 3
    assert exc.value.column == 12


@pytest.mark.parametrize(
    "text, hint, line, column",
    [
        (PREFIX + "\nmg:W a mg:Work", "expected punctuation", 2, 15),
        ("@prefix mg <urn:licflow:v1#> .", "prefix name", 1, 9),
        ('@prefix mg: "not-an-iri" .', "namespace IRI", 1, 13),
        (PREFIX + "\n. mg:name", "expected subject", 2, 1),
        (PREFIX + "\nW1 a mg:Work .", "prefixed name", 2, 1),
        (PREFIX + "\nmg: a mg:Work .", "empty local name", 2, 1),
        (PREFIX + '\nmg:W mg:name ; mg:workType "model" .', "expected object", 2, 14),
        (PREFIX + "\nmg:W a mg:Work , .", "expected object", 2, 18),
        # A CR is a blank, so CRLF line endings move no column.
        (PREFIX + "\r\nmg:W a mg:Work ;\r\n   mg:name ;\r\n", "expected object", 3, 12),
        # A tab is one character column.
        (PREFIX + "\nmg:W a mg:Work ;\n\tmg:name\t;", "expected object", 3, 10),
        (PREFIX + "\nmg:W a mg:Work # no final newline", "found ''", 2, 34),
        # A name does not end in '.': the '.' ends the statement early.
        (PREFIX + "\nmg:W. a mg:Work .", "expected predicate, found '.'", 2, 5),
        # Digits run into a name are one name, not an integer.
        (PREFIX + "\nmg:W mg:usage 12ab .", "prefixed name, found '12ab'", 2, 15),
    ],
)
def test_malformed_documents_are_syntax_errors(text, hint, line, column):
    with pytest.raises(WorkflowSyntaxError, match=hint) as exc:
        parse_workflow(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value).startswith(f"line {line}, column {column}: ")


@pytest.mark.parametrize(
    "text, line, column",
    [
        (PREFIX + "\nmg:A a mg:Work ;\n", 3, 1),
        (PREFIX + "\nmg:A a mg:Work ;", 2, 17),
        (PREFIX + "\nmg:A a mg:Work ;\n  ", 3, 3),
    ],
)
def test_an_error_at_end_of_input_points_just_past_the_last_character(
    text, line, column
):
    with pytest.raises(WorkflowSyntaxError, match="expected predicate, found ''") as exc:
        parse_workflow(text)
    assert (exc.value.line, exc.value.column) == (line, column)


# ---------------------------------------------------------------------------
# Vocabulary violations
# ---------------------------------------------------------------------------


def test_undeclared_prefix_is_rejected():
    with pytest.raises(UnknownTerm, match="undeclared prefix 'zz:'"):
        parse_workflow("zz:W a zz:Work .")


def test_other_namespace_versions_are_rejected():
    text = "@prefix mg: <urn:licflow:v2#> .\nmg:W a mg:Work ."
    with pytest.raises(UnknownTerm, match="not the supported vocabulary"):
        parse_workflow(text)


def test_a_redeclared_prefix_applies_to_names_after_it():
    text = doc(
        WORK_A,
        "@prefix mg: <urn:licflow:v2#> .",
        "mg:A mg:hasLicense \"MIT\" .",
    )
    with pytest.raises(UnknownTerm, match="<urn:licflow:v2#> is not the supported"):
        parse_workflow(text)


def test_foreign_namespace_on_an_object_is_rejected():
    text = doc(
        "@prefix zz: <urn:elsewhere#> .",
        "mg:act a mg:CopyAction ;",
        "   mg:hasInput zz:W ;",
        "   mg:hasOutput mg:O .",
    )
    with pytest.raises(UnknownTerm, match="not the supported vocabulary"):
        parse_workflow(text)


def test_unknown_predicate_is_rejected():
    with pytest.raises(UnknownTerm, match="unknown predicate 'mg:shininess'"):
        parse_workflow(doc("mg:W a mg:Work ;", "   mg:shininess 3 ."))


def test_unknown_class_is_rejected():
    with pytest.raises(UnknownTerm, match="unknown class 'mg:Sculpture'"):
        parse_workflow(doc("mg:W a mg:Sculpture ."))


# ---------------------------------------------------------------------------
# Semantic errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "blocks, hint",
    [
        (('mg:W mg:name "x" .',), "no class declaration"),
        (("mg:W a mg:Work ; a mg:Work .",), "two classes"),
        (
            ('mg:W a mg:Work ; mg:name "x" ; mg:workType "model" .',),
            "missing 'mg:workForm'",
        ),
        (
            (
                'mg:W a mg:Work ; mg:name "x" ; mg:name "y" ;',
                '   mg:workType "model" ; mg:workForm "weights" .',
            ),
            "duplicate 'mg:name'",
        ),
        (
            (
                'mg:W a mg:Work ; mg:name "x" ;',
                '   mg:workType "sculpture" ; mg:workForm "weights" .',
            ),
            "unknown value",
        ),
        (
            (
                "mg:W a mg:Work ; mg:name 5 ;",
                '   mg:workType "model" ; mg:workForm "weights" .',
            ),
            "must be a string",
        ),
        (
            (
                'mg:W a mg:Work ; mg:name "x" ;',
                '   mg:workType "model" ; mg:workForm "weights" ;',
                "   mg:hasOutput mg:W .",
            ),
            "not valid on a work",
        ),
        (
            (WORK_A, WORK_B, TUNE, 'mg:tune mg:name "oops" .'),
            "not valid on an action",
        ),
        (
            (WORK_A, "mg:tune a mg:ModifyAction ; mg:hasInput mg:A ."),
            "missing 'mg:hasOutput'",
        ),
        (
            (
                WORK_A,
                WORK_B,
                "mg:tune a mg:ModifyAction ; mg:hasInput mg:A ;",
                "   mg:hasOutput mg:B ; mg:hasOutput mg:B .",
            ),
            "duplicate 'mg:hasOutput'",
        ),
        (
            (WORK_A, WORK_B, "mg:tune a mg:ModifyAction ;",
             '   mg:hasInput "A" ; mg:hasOutput mg:B .'),
            "must be an identifier",
        ),
        (('mg:X a "Work" .',), "class of 'X' must be an identifier"),
        (
            (WORK_A, WORK_B, "mg:tune a mg:ModifyAction ;",
             "   mg:hasInput mg:A ; mg:hasOutput mg:B ;",
             '   mg:publishManner "gift" .'),
            "unknown value",
        ),
        (
            (WORK_A, WORK_B, "mg:pub a mg:PublishAction ;",
             "   mg:hasInput mg:A ; mg:hasOutput mg:B ;",
             '   mg:publishManner "sell", "internal" .'),
            "duplicate 'mg:publishManner' on 'pub'",
        ),
        (
            (WORK_A, WORK_B, "mg:pub a mg:PublishAction ;",
             "   mg:hasInput mg:A ; mg:hasOutput mg:B ;",
             '   mg:publishManner "share" ;',
             '   mg:publishForm "weights" ; mg:publishForm "exe" .'),
            "duplicate 'mg:publishForm' on 'pub'",
        ),
        (
            (WORK_A, WORK_B, "mg:reg a mg:RegisterLicenseAction ;",
             "   mg:hasInput mg:A ; mg:hasOutput mg:B ;",
             '   mg:registersLicense "MIT" .',
             'mg:reg mg:registersLicense "Apache-2.0" .'),
            "duplicate 'mg:registersLicense' on 'reg'",
        ),
    ],
)
def test_invalid_workflows_are_semantic_errors(blocks, hint):
    with pytest.raises(SemanticError, match=hint):
        parse_workflow(doc(*blocks))


# Documents with two faults each, and the one that is reported. Classes
# are settled subject by subject before any work is read, every output
# before any work, and every work before any action. A node's statements
# are read in order, and a missing predicate is reported after them.
@pytest.mark.parametrize(
    "blocks, message",
    [
        (
            (
                'mg:W a mg:Work ; mg:name 5 ; mg:workType "model" ;',
                '   mg:workForm "weights" .',
                'mg:X a "Work" .',
            ),
            "class of 'X' must be an identifier",
        ),
        (
            ("mg:A a mg:Work .", 'mg:X a "Work" .', "mg:A a mg:Work ."),
            "'A' declared with two classes",
        ),
        (
            ('mg:A mg:name "x" .', "mg:X a mg:Work ; a mg:Work ."),
            "'X' declared with two classes",
        ),
        (
            (
                WORK_A,
                WORK_B.replace('"model"', '"sculpture"'),
                TUNE.replace(" .", ' ;\n   mg:publishManner "gift" .'),
            ),
            "work type of 'B' has unknown value 'sculpture'",
        ),
        (
            (TUNE.replace("mg:A", '"A"'), WORK_A, WORK_B.replace('"Tuned"', "5")),
            "name of 'B' must be a string",
        ),
        (
            (WORK_A, WORK_B.replace('"Tuned"', "5"), TUNE.replace("mg:B", '"B"')),
            "output of 'tune' must be an identifier",
        ),
        (
            (WORK_A, "mg:tune a mg:ModifyAction ; mg:hasInput \"A\" ."),
            "input of 'tune' must be an identifier",
        ),
        (
            (
                WORK_A,
                WORK_B,
                'mg:pub a mg:PublishAction ; mg:publishManner "gift" ;',
                '   mg:hasInput "A" ; mg:hasOutput mg:B .',
            ),
            "publish manner of 'pub' has unknown value 'gift'",
        ),
        (
            ('mg:W a mg:Work ; mg:workType "sculpture" ; mg:workForm "weights" .',),
            "work type of 'W' has unknown value 'sculpture'",
        ),
    ],
    ids=[
        "class-before-field",
        "classes-by-subject",
        "two-classes-before-none",
        "work-before-action",
        "work-before-earlier-action",
        "output-before-work",
        "value-before-missing-output",
        "values-in-statement-order",
        "value-before-missing-predicate",
    ],
)
def test_the_first_of_two_faults_is_reported(blocks, message):
    with pytest.raises(SemanticError) as exc:
        parse_workflow(doc(*blocks))
    assert str(exc.value) == message


def test_produced_work_may_not_declare_a_license():
    licensed_b = WORK_B.replace(
        ' mg:workForm "weights" .', ' mg:workForm "weights" ;\n   mg:hasLicense "MIT" .'
    )
    with pytest.raises(SemanticError, match="declares a license"):
        parse_workflow(doc(WORK_A, licensed_b, TUNE))


def test_derived_marker_resets_the_license_on_parse():
    derived_b = WORK_B.replace(
        ' mg:workForm "weights" .',
        ' mg:workForm "weights" ;\n   mg:hasLicense "MIT" ;\n   mg:origin "derived" .',
    )
    graph = parse_workflow(doc(WORK_A, derived_b, TUNE))
    assert graph.works["B"].license is None
    assert graph.works["B"].origin is Origin.USER_DECLARED


@pytest.mark.parametrize("license_id, kept", [("MIT", "MIT"), (DEFAULT_LICENSE, None)])
def test_derived_marker_on_a_root_drops_only_the_default(license_id, kept):
    # The reasoner gives an unlicensed root the default and nothing else,
    # so only that license is its to derive again.
    derived_a = WORK_A.replace(
        '"MIT" .', f'"{license_id}" ;\n   mg:origin "derived" .'
    )
    graph = parse_workflow(doc(derived_a, WORK_B, TUNE))
    assert graph.works["A"].license == kept
    assert graph.works["A"].origin is Origin.USER_DECLARED


def test_structural_faults_are_wrapped_as_semantic_errors():
    text = doc(
        WORK_B,
        "mg:tune a mg:ModifyAction ;",
        "   mg:hasInput mg:Z ;",
        "   mg:hasOutput mg:B .",
    )
    with pytest.raises(SemanticError, match="Z") as exc:
        parse_workflow(text)
    assert isinstance(exc.value.__cause__, UnknownWork)


def test_a_cycle_is_a_semantic_error():
    text = doc(
        WORK_B,
        "mg:C a mg:Work ;",
        '   mg:name "Other" ; mg:workType "model" ; mg:workForm "weights" .',
        "mg:f a mg:ModifyAction ; mg:hasInput mg:B ; mg:hasOutput mg:C .",
        "mg:g a mg:ModifyAction ; mg:hasInput mg:C ; mg:hasOutput mg:B .",
    )
    with pytest.raises(SemanticError):
        parse_workflow(text)


def test_arity_faults_are_wrapped_as_semantic_errors():
    text = doc(
        WORK_A,
        WORK_B,
        "mg:tune a mg:ModifyAction ;",
        "   mg:hasInput mg:A, mg:B ;",
        "   mg:hasOutput mg:B .",
    )
    with pytest.raises(SemanticError):
        parse_workflow(text)


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


def test_reasoner_statements_are_dropped_on_parse(seed_kb, setting_paths):
    base = parse_workflow(setting_paths["i"].read_text())
    reasoned, _ = run_all(base, seed_kb)
    text = serialize_graph(reasoned)
    assert "mg:hasMixwork" in text
    assert "mg:hasRuling" in text
    assert "mg:hasRequest" in text
    assert 'mg:origin "derived"' in text
    reparsed = parse_workflow(text)
    assert reparsed == base
    assert not reparsed.edges
    assert not reparsed.rulings
    assert not reparsed.requests


@pytest.mark.parametrize("key", ["i", "ii", "iii", "iv", "free", "llama"])
def test_serialization_is_byte_stable(key, setting_paths):
    base = parse_workflow(setting_paths[key].read_text())
    text = serialize_graph(base)
    assert parse_workflow(text) == base
    assert serialize_graph(parse_workflow(text)) == text


def test_reasoned_documents_serialize_identically(seed_kb, setting_paths):
    base = parse_workflow(setting_paths["llama"].read_text())
    first, _ = run_all(base, seed_kb)
    second, _ = run_all(base, seed_kb)
    assert serialize_graph(first) == serialize_graph(second)


def test_names_with_escapes_round_trip():
    name = 'He said "hi",\n\tthen a back\\slash'
    graph = graph_of([work("A", name=name)])
    reparsed = parse_workflow(serialize_graph(graph))
    assert reparsed.works["A"].name == name


def test_training_and_auxiliary_roles_round_trip():
    graph = graph_of(
        [work("M"), work("D", WorkType.DATASET, WorkForm.TEXT),
         work("X", WorkType.DATASET, WorkForm.TEXT), work("T")],
        [
            action(
                "fit",
                ActionKind.TRAIN,
                inputs_of(["M"], training=["D"], auxiliary=["X"]),
                "T",
                copublish={"D"},
            ),
        ],
    )
    reparsed = parse_workflow(serialize_graph(graph))
    assert reparsed == graph


def test_unserializable_identifiers_are_refused():
    graph = graph_of([work("bad id")])
    with pytest.raises(InterchangeError, match="cannot be serialized"):
        serialize_graph(graph)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def test_empty_graph_exports_a_bare_digraph():
    assert export_dot(WorkflowGraph()) == "digraph workflow {\n}\n"


def test_dot_styles_one_per_edge_kind():
    graph = graph_of([work(w) for w in ("A", "B", "C", "D", "E")])
    graph.edges = [
        DependencyEdge(EdgeKind.MIXWORK, "A", "E"),
        DependencyEdge(EdgeKind.SUBWORK, "B", "E"),
        DependencyEdge(EdgeKind.AUXWORK, "C", "E"),
        DependencyEdge(EdgeKind.PROVENANCE, "D", "E"),
    ]
    dot = export_dot(graph)
    lines = dot.strip().split("\n")
    assert len(lines) == 1 + 5 + 4 + 1
    assert '  "A" -> "E" [label="mixwork", style=solid];' in lines
    assert '  "B" -> "E" [label="subwork", style=bold];' in lines
    assert '  "C" -> "E" [label="auxwork", style=dashed];' in lines
    assert '  "D" -> "E" [label="provenance", style=dotted];' in lines


def test_dot_labels_inputs_with_their_roles():
    graph = graph_of(
        [work("M"), work("D", WorkType.DATASET, WorkForm.TEXT), work("T")],
        [
            action(
                "fit",
                ActionKind.TRAIN,
                inputs_of(["M"], training=["D"]),
                "T",
            ),
        ],
    )
    dot = export_dot(graph)
    assert '"M" -> "T" [label="train"];' in dot
    assert '"D" -> "T" [label="train (training_data)"];' in dot


def test_dot_attaches_report_codes_to_their_subjects(seed_kb):
    graph = graph_of(
        [work("A", license="MIT"), work("P")],
        [publish("pub", "A", "P")],
    )
    reasoned, result = reason_and_analyze(graph, seed_kb, "P")
    dot = export_dot(reasoned, result.reports)
    node_a = next(line for line in dot.split("\n") if line.startswith('  "A" ['))
    node_p = next(line for line in dot.split("\n") if line.startswith('  "P" ['))
    assert "[W1]" in node_a
    assert "[W3]" in node_a
    assert "MIT" in node_a
    assert "model/weights" in node_p
    assert "Unlicense" in node_p
    assert "[W" not in node_p
