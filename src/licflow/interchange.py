"""Text interchange for workflow graphs.

The format is a strict subset of Turtle: prefix declarations, triples
with `;` and `,` continuation, the `a` keyword, quoted strings, booleans
and integers. Blank nodes are not supported; every node is named. The
vocabulary is closed and versioned through the namespace URI, so
documents written against other versions are rejected instead of being
half-understood.

Parsing returns the base workflow only. Statements owned by the
reasoner (dependency edges, rulings, requests, derived licenses) are
dropped, which makes a reasoned document safe to feed back in: parsing
it reproduces the graph the reasoner originally started from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .kb import OutputDefinition, Usage
from .model import (
    ActionInput,
    ActionKind,
    ActionNode,
    DependencyEdge,
    EdgeKind,
    GraphError,
    InputRole,
    Origin,
    PublishManner,
    Work,
    WorkflowGraph,
    WorkForm,
    WorkType,
    add_action,
    add_work,
)
from .reasoner import RequestRecord, RulingRecord

NAMESPACE = "urn:licflow:v1#"
PREFIX = "mg"


class InterchangeError(ValueError):
    """Base class for interchange failures."""


class WorkflowSyntaxError(InterchangeError):
    """Malformed document text; carries the line and column of the fault."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownTerm(InterchangeError):
    """An identifier outside the shipped vocabulary or namespace version."""


class SemanticError(InterchangeError):
    """A well-formed document describing an invalid workflow."""


_ACTION_CLASSES = {
    "CopyAction": ActionKind.COPY,
    "CombineAction": ActionKind.COMBINE,
    "ModifyAction": ActionKind.MODIFY,
    "AmalgamateAction": ActionKind.AMALGAMATE,
    "TrainAction": ActionKind.TRAIN,
    "GenerateAction": ActionKind.GENERATE,
    "DistillAction": ActionKind.DISTILL,
    "EmbedAction": ActionKind.EMBED,
    "PublishAction": ActionKind.PUBLISH,
    "RegisterLicenseAction": ActionKind.REGISTER_LICENSE,
}
_CLASS_OF_KIND = {kind: name for name, kind in _ACTION_CLASSES.items()}

_EDGE_PREDICATES = {
    "hasMixwork": EdgeKind.MIXWORK,
    "hasSubwork": EdgeKind.SUBWORK,
    "hasAuxwork": EdgeKind.AUXWORK,
    "hasProvenance": EdgeKind.PROVENANCE,
}
_PREDICATE_OF_EDGE = {kind: name for name, kind in _EDGE_PREDICATES.items()}

# In the order serialization writes them.
_INPUT_PREDICATES = {
    "hasInput": InputRole.PRIMARY,
    "hasTrainingData": InputRole.TRAINING_DATA,
    "hasAuxInput": InputRole.AUXILIARY,
}
_SINGLE_ACTION_PREDICATES = frozenset(
    {"hasOutput", "publishManner", "publishForm", "registersLicense"}
)

# The first three are required.
_WORK_PREDICATES = ("name", "workType", "workForm", "hasLicense", "origin")

_CLASSES = frozenset({"Work", "Ruling", "Request"} | set(_ACTION_CLASSES))
_PREDICATES = frozenset(
    {
        "copublish",
        "hasRuling",
        "hasReliedwork",
        "byRule",
        "outputDef",
        "hasRequest",
        "sourceWork",
        "targetWork",
        "usage",
    }
    | set(_WORK_PREDICATES)
    | set(_EDGE_PREDICATES)
    | set(_INPUT_PREDICATES)
    | _SINGLE_ACTION_PREDICATES
)

# Statements the reasoner writes; parsing ignores them so that reasoned
# documents round-trip to their base workflow.
_REASONER_PREDICATES = frozenset(_EDGE_PREDICATES) | {"hasRuling", "hasRequest"}


@dataclass(frozen=True)
class Ident:
    """A named node, kept as its local name within the mg namespace."""

    local: str


Object = Union[Ident, str, bool, int]


@dataclass
class Document:
    prefixes: dict[str, str] = field(default_factory=dict)
    statements: list[tuple[str, str, Object]] = field(default_factory=list)


# A local name; documents are read and written with the same pattern.
_NAME_RE = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_:-]|\.(?=[A-Za-z0-9_:-]))*")

# One match per token: skip blanks, line breaks and `#` comments, then
# the first alternative that matches names the kind. The order matters:
# INTEGER comes before NAME, which also matches digits, and its lookahead
# leaves `12ab` to NAME. Any other character is BAD, so every match
# succeeds and ends where the next one starts.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(?P<IRIREF><[^<>\s]*>)"
    r'|(?P<STRING>"(?:[^"\\\n]|\\.)*")'
    r"|(?P<PREFIX_KW>@prefix\b)"
    r"|(?P<INTEGER>[+-]?[0-9]+(?![A-Za-z0-9_:.+-]))"
    rf"|(?P<NAME>{_NAME_RE.pattern})"
    r"|(?P<PUNCT>[.;,])"
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.))"
)

# (kind, value, offset into the text); IRIREF and STRING values are
# their text between the delimiters.
_Token = tuple[str, str, int]

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}


def _syntax_error(message: str, text: str, offset: int) -> WorkflowSyntaxError:
    """The fault at an offset, placed by 1-based line and character column."""
    line_start = text.rfind("\n", 0, offset) + 1
    line = text.count("\n", 0, line_start) + 1
    return WorkflowSyntaxError(message, line, offset - line_start + 1)


def _unescape(raw: str, text: str, offset: int) -> str:
    if "\\" not in raw:
        return raw
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            i += 1
            if i >= len(raw) or raw[i] not in _ESCAPES:
                raise _syntax_error("bad string escape", text, offset)
            out.append(_ESCAPES[raw[i]])
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def _tokenize(text: str) -> list[_Token]:
    """Every token of the text, ending with EOF just past its last character."""
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        offset = match.start(kind)
        if kind == "IRIREF" or kind == "STRING":
            value = value[1:-1]
        elif kind == "BAD":
            raise _syntax_error(f"unexpected character {value!r}", text, offset)
        tokens.append((kind, value, offset))
        if kind == "EOF":
            break
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        # Prefixed name -> local name under the prefixes declared so far.
        self.locals: dict[str, str] = {}
        self.idents: dict[str, Ident] = {}

    def next(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def error(self, message: str, offset: int) -> WorkflowSyntaxError:
        return _syntax_error(message, self.text, offset)

    def expect_punct(self, value: str) -> None:
        kind, found, offset = self.next()
        if kind != "PUNCT" or found != value:
            raise self.error(f"expected {value!r}, found {found!r}", offset)

    def parse(self) -> Document:
        doc = Document()
        while True:
            kind = self.tokens[self.index][0]
            if kind == "EOF":
                return doc
            if kind == "PREFIX_KW":
                self.index += 1
                self._prefix_decl(doc)
            else:
                self._triples(doc)

    def _prefix_decl(self, doc: Document) -> None:
        kind, name, offset = self.next()
        if kind != "NAME" or not name.endswith(":"):
            raise self.error("expected prefix name ending in ':'", offset)
        kind, iri, offset = self.next()
        if kind != "IRIREF":
            raise self.error("expected namespace IRI", offset)
        self.expect_punct(".")
        doc.prefixes[name[:-1]] = iri
        self.locals.clear()

    def _resolve(self, name: str, offset: int, doc: Document) -> str:
        local = self.locals.get(name)
        if local is not None:
            return local
        if ":" not in name:
            raise self.error(f"expected prefixed name, found {name!r}", offset)
        prefix, local = name.split(":", 1)
        namespace = doc.prefixes.get(prefix)
        if namespace is None:
            raise UnknownTerm(f"undeclared prefix '{prefix}:'")
        if namespace != NAMESPACE:
            raise UnknownTerm(
                f"namespace <{namespace}> is not the supported vocabulary "
                f"version <{NAMESPACE}>"
            )
        if not local:
            raise self.error("empty local name", offset)
        self.locals[name] = local
        return local

    def _triples(self, doc: Document) -> None:
        statements = doc.statements
        kind, value, offset = self.next()
        if kind != "NAME":
            raise self.error(f"expected subject, found {value!r}", offset)
        subject = self._resolve(value, offset, doc)
        while True:
            kind, value, offset = self.next()
            if kind != "NAME":
                raise self.error(f"expected predicate, found {value!r}", offset)
            if value == "a":
                predicate = "a"
            else:
                predicate = self._resolve(value, offset, doc)
                if predicate not in _PREDICATES:
                    raise UnknownTerm(f"unknown predicate 'mg:{predicate}'")
            while True:
                statements.append((subject, predicate, self._object(doc, predicate)))
                kind, value, offset = self.next()
                if kind != "PUNCT":
                    raise self.error(f"expected punctuation, found {value!r}", offset)
                if value == ".":
                    return
                if value == ";":
                    break
                # "," reads another object for the same predicate.

    def _object(self, doc: Document, predicate: str) -> Object:
        kind, value, offset = self.next()
        if kind == "STRING":
            return _unescape(value, self.text, offset)
        if kind == "INTEGER":
            return int(value)
        if kind == "NAME":
            if value == "true":
                return True
            if value == "false":
                return False
            local = self._resolve(value, offset, doc)
            if predicate == "a" and local not in _CLASSES:
                raise UnknownTerm(f"unknown class 'mg:{local}'")
            ident = self.idents.get(local)
            if ident is None:
                ident = self.idents[local] = Ident(local)
            return ident
        raise self.error(f"expected object, found {value!r}", offset)


def parse_document(text: str) -> Document:
    """Parse text into resolved statements without interpreting them."""
    return _Parser(text).parse()


def _enum_value(enum_cls, raw: Object, subject: str, what: str):
    if not isinstance(raw, str):
        raise SemanticError(f"{what} of '{subject}' must be a string")
    try:
        return enum_cls(raw)
    except ValueError:
        raise SemanticError(f"{what} of '{subject}' has unknown value {raw!r}") from None


def _as_ident(raw: Object, subject: str, what: str) -> str:
    if not isinstance(raw, Ident):
        raise SemanticError(f"{what} of '{subject}' must be an identifier")
    return raw.local


def _as_string(raw: Object, subject: str, what: str) -> str:
    if not isinstance(raw, str):
        raise SemanticError(f"{what} of '{subject}' must be a string")
    return raw


def parse_workflow(text: str) -> WorkflowGraph:
    """Build the base workflow graph a document describes.

    Reasoner-owned statements are dropped. A work marked as carrying a
    derived license comes back unlicensed, ready to be reasoned again.
    """
    doc = parse_document(text)

    by_subject: dict[str, list[tuple[str, Object]]] = {}
    order: list[str] = []
    for subject, predicate, obj in doc.statements:
        if subject not in by_subject:
            by_subject[subject] = []
            order.append(subject)
        by_subject[subject].append((predicate, obj))

    classes: dict[str, str] = {}
    for subject in order:
        for predicate, obj in by_subject[subject]:
            if predicate == "a":
                if subject in classes:
                    raise SemanticError(f"'{subject}' declared with two classes")
                classes[subject] = _as_ident(obj, subject, "class")
    for subject in order:
        if subject not in classes:
            raise SemanticError(f"'{subject}' has no class declaration")

    graph = WorkflowGraph()
    produced: set[str] = set()
    for subject in order:
        if classes[subject] in _ACTION_CLASSES:
            for predicate, obj in by_subject[subject]:
                if predicate == "hasOutput":
                    produced.add(_as_ident(obj, subject, "output"))

    for subject in order:
        if classes[subject] != "Work":
            continue
        fields: dict[str, Object] = {}
        for predicate, obj in by_subject[subject]:
            if predicate == "a" or predicate in _REASONER_PREDICATES:
                continue
            if predicate not in _WORK_PREDICATES:
                raise SemanticError(f"predicate 'mg:{predicate}' not valid on a work")
            if predicate in fields:
                raise SemanticError(f"duplicate 'mg:{predicate}' on '{subject}'")
            fields[predicate] = obj
        for required in _WORK_PREDICATES[:3]:
            if required not in fields:
                raise SemanticError(f"work '{subject}' is missing 'mg:{required}'")
        license_id: Optional[str] = None
        if "hasLicense" in fields:
            license_id = _as_string(fields["hasLicense"], subject, "license")
        origin = Origin.USER_DECLARED
        if "origin" in fields:
            origin = _enum_value(Origin, fields["origin"], subject, "origin")
        if origin is Origin.DERIVED:
            license_id = None
        elif license_id is not None and subject in produced:
            raise SemanticError(
                f"work '{subject}' is produced by an action but declares a license"
            )
        work = Work(
            id=subject,
            name=_as_string(fields["name"], subject, "name"),
            work_type=_enum_value(WorkType, fields["workType"], subject, "work type"),
            form=_enum_value(WorkForm, fields["workForm"], subject, "work form"),
            license=license_id,
            origin=Origin.USER_DECLARED,
        )
        try:
            add_work(graph, work)
        except GraphError as err:
            raise SemanticError(str(err)) from err

    for subject in order:
        kind = _ACTION_CLASSES.get(classes[subject])
        if kind is None:
            continue
        inputs: list[ActionInput] = []
        output: Optional[str] = None
        manner: Optional[PublishManner] = None
        publish_form: Optional[WorkForm] = None
        register: Optional[str] = None
        copublish: set[str] = set()
        seen: set[str] = set()
        for predicate, obj in by_subject[subject]:
            if predicate == "a" or predicate in _REASONER_PREDICATES:
                continue
            if predicate in _SINGLE_ACTION_PREDICATES:
                if predicate in seen:
                    raise SemanticError(f"duplicate 'mg:{predicate}' on '{subject}'")
                seen.add(predicate)
            if predicate in _INPUT_PREDICATES:
                inputs.append(
                    ActionInput(
                        _as_ident(obj, subject, "input"), _INPUT_PREDICATES[predicate]
                    )
                )
            elif predicate == "hasOutput":
                output = _as_ident(obj, subject, "output")
            elif predicate == "publishManner":
                manner = _enum_value(PublishManner, obj, subject, "publish manner")
            elif predicate == "publishForm":
                publish_form = _enum_value(WorkForm, obj, subject, "publish form")
            elif predicate == "registersLicense":
                register = _as_string(obj, subject, "registered license")
            elif predicate == "copublish":
                copublish.add(_as_ident(obj, subject, "copublish entry"))
            else:
                raise SemanticError(
                    f"predicate 'mg:{predicate}' not valid on an action"
                )
        if output is None:
            raise SemanticError(f"action '{subject}' is missing 'mg:hasOutput'")
        action = ActionNode(
            id=subject,
            kind=kind,
            inputs=inputs,
            output=output,
            publish_manner=manner,
            publish_form=publish_form,
            license_to_register=register,
            copublish=copublish,
        )
        try:
            add_action(graph, action)
        except GraphError as err:
            raise SemanticError(str(err)) from err

    return graph


def _ident_text(local: str) -> str:
    if not _NAME_RE.fullmatch(local):
        raise InterchangeError(f"identifier {local!r} cannot be serialized")
    return f"{PREFIX}:{local}"


def _fmt(obj: Object) -> str:
    if isinstance(obj, Ident):
        return _ident_text(obj.local)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    return f'"{_escape(obj)}"'


def _block(subject: str, rows: list[tuple[str, list[Object]]]) -> list[str]:
    lines = []
    head = _ident_text(subject)
    for index, (predicate, objects) in enumerate(rows):
        verb = predicate if predicate == "a" else f"{PREFIX}:{predicate}"
        rendered = ", ".join(_fmt(obj) for obj in objects)
        lead = head if index == 0 else "   "
        tail = " ." if index == len(rows) - 1 else " ;"
        lines.append(f"{lead} {verb} {rendered}{tail}")
    lines.append("")
    return lines


def serialize_graph(graph: WorkflowGraph) -> str:
    """Render a graph deterministically; reasoned state included if present."""
    lines = [f"@prefix {PREFIX}: <{NAMESPACE}> .", ""]

    for wid in sorted(graph.works):
        work = graph.works[wid]
        rows: list[tuple[str, list[Object]]] = [("a", [Ident("Work")])]
        rows.append(("name", [work.name]))
        rows.append(("workType", [work.work_type.value]))
        rows.append(("workForm", [work.form.value]))
        if work.license is not None:
            rows.append(("hasLicense", [work.license]))
        if work.origin is Origin.DERIVED:
            rows.append(("origin", [work.origin.value]))
        lines.extend(_block(wid, rows))

    for aid in sorted(graph.actions):
        action = graph.actions[aid]
        rows = [("a", [Ident(_CLASS_OF_KIND[action.kind])])]
        for predicate, role in _INPUT_PREDICATES.items():
            inputs = [Ident(inp.work) for inp in action.inputs if inp.role is role]
            if inputs:
                rows.append((predicate, inputs))
        rows.append(("hasOutput", [Ident(action.output)]))
        if action.publish_manner is not None:
            rows.append(("publishManner", [action.publish_manner.value]))
        if action.publish_form is not None:
            rows.append(("publishForm", [action.publish_form.value]))
        if action.license_to_register is not None:
            rows.append(("registersLicense", [action.license_to_register]))
        if action.copublish:
            rows.append(("copublish", [Ident(w) for w in sorted(action.copublish)]))
        lines.extend(_block(aid, rows))

    edges = sorted(graph.edges, key=lambda e: (e.target, e.kind.value, e.source))
    for edge in edges:
        lines.append(
            f"{_ident_text(edge.target)} {PREFIX}:{_PREDICATE_OF_EDGE[edge.kind]} "
            f"{_ident_text(edge.source)} ."
        )
    if edges:
        lines.append("")

    for record in sorted(graph.rulings, key=lambda r: r.id):
        lines.append(
            f"{_ident_text(record.work)} {PREFIX}:hasRuling {_ident_text(record.id)} ."
        )
        lines.extend(
            _block(
                record.id,
                [
                    ("a", [Ident("Ruling")]),
                    ("hasReliedwork", [Ident(record.relied_work)]),
                    ("byRule", [record.rule]),
                    ("outputDef", [record.output_def.value]),
                ],
            )
        )

    for record in sorted(graph.requests, key=lambda r: r.id):
        lines.append(
            f"{_ident_text(record.action)} {PREFIX}:hasRequest {_ident_text(record.id)} ."
        )
        lines.extend(
            _block(
                record.id,
                [
                    ("a", [Ident("Request")]),
                    ("sourceWork", [Ident(record.source_work)]),
                    ("targetWork", [Ident(record.target_work)]),
                    ("usage", [record.usage.value]),
                ],
            )
        )

    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def _dot_quote(*lines: str) -> str:
    """One quoted DOT string; lines are joined with DOT's ``\\n`` escape."""
    escaped = [line.replace("\\", "\\\\").replace('"', '\\"') for line in lines]
    return '"' + "\\n".join(escaped) + '"'


_EDGE_STYLES = {
    EdgeKind.MIXWORK: "solid",
    EdgeKind.SUBWORK: "bold",
    EdgeKind.AUXWORK: "dashed",
    EdgeKind.PROVENANCE: "dotted",
}


def export_dot(graph: WorkflowGraph, result=None) -> str:
    """Render the graph for visualization, with report codes if given."""
    codes_by_subject: dict[str, list[str]] = {}
    if result is not None:
        for report in result.reports:
            codes_by_subject.setdefault(report.subject, []).append(
                f"[{report.code.name}]"
            )

    lines = ["digraph workflow {"]
    for wid in sorted(graph.works):
        work = graph.works[wid]
        parts = [work.name, f"{work.work_type.value}/{work.form.value}"]
        if work.license is not None:
            parts.append(work.license)
        parts.extend(codes_by_subject.get(wid, []))
        lines.append(f"  {_dot_quote(wid)} [label={_dot_quote(*parts)}];")
    for aid in sorted(graph.actions):
        action = graph.actions[aid]
        for inp in action.inputs:
            label = action.kind.value
            if inp.role is not InputRole.PRIMARY:
                label += f" ({inp.role.value})"
            lines.append(
                f"  {_dot_quote(inp.work)} -> {_dot_quote(action.output)} "
                f"[label={_dot_quote(label)}];"
            )
    for edge in sorted(graph.edges, key=lambda e: (e.target, e.kind.value, e.source)):
        lines.append(
            f"  {_dot_quote(edge.source)} -> {_dot_quote(edge.target)} "
            f"[label={_dot_quote(edge.kind.value)}, style={_EDGE_STYLES[edge.kind]}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
