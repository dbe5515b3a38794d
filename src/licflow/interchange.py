"""Text interchange for workflow graphs.

The format is a strict subset of Turtle: prefix declarations, triples
with `;` and `,` continuation, the `a` keyword, quoted strings, booleans
and integers. Blank nodes are not supported; every node is named. The
vocabulary is closed and versioned through the namespace URI, so
documents written against other versions are rejected instead of being
half-understood.

`parse_document` reads a statement in one regex match where it can, and
token by token where it cannot: a prefix declaration, the end of the text,
an integer or a boolean, and every fault, which is reported one way.

Parsing returns the base workflow only. Statements owned by the
reasoner (dependency edges, rulings, requests, derived licenses) are
dropped, which makes a reasoned document safe to feed back in: parsing
it reproduces the graph the reasoner originally started from.
"""

from __future__ import annotations

import re
from enum import EnumMeta
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Union

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
    _Record,
    add_action,
    add_work,
)
from .reasoner import _EDGE_KIND_VALUE, RequestRecord, RulingRecord, base_license
from .reports import Report, ReportCode

NAMESPACE = "urn:licflow:v1#"
PREFIX = "mg"
_new = tuple.__new__  # builds a record from a tuple of its fields


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


class Ident(NamedTuple):
    """A named node, kept as its local name within the mg namespace."""

    local: str


Object = Union[Ident, str, bool, int]


class Document(_Record):
    def __init__(self, prefixes: Optional[dict[str, str]] = None,
                 statements: Optional[list[tuple[str, str, Object]]] = None) -> None:
        self.prefixes = {} if prefixes is None else prefixes
        self.statements = [] if statements is None else statements


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


class _Entry:
    """One predicate of a node class and the field its objects fill."""

    def __init__(self, predicate: str, field: str, what: str, kind: object):
        self.predicate = predicate
        self.field = field
        # The value's name in error messages.
        self.what = what
        # `str` or an enum class for a string, `Ident` for a work id, an
        # `InputRole` for an input in that role, `set` for a set of work ids.
        self.kind = kind
        self.many = kind is set or isinstance(kind, InputRole)
        # The member each value of an enum reads as.
        self.members = {m.value: m for m in kind} if isinstance(kind, EnumMeta) else None
        # The class of the objects `read` takes, and how it reads one: None
        # for an unknown enum value, whose fault `_value` reports.
        self.type = Ident if kind is Ident or self.many else str
        plain = attrgetter("local") if self.type is Ident else str
        self.read = self.members.get if self.members else plain


class _Node:
    """The vocabulary of one node class, in the order serialization writes it.

    A field that holds its default is not written. A field without a
    default must be stated once, unless many statements fill it.
    """

    def __init__(self, cls: type, noun: str, *table: _Entry):
        self.noun = noun
        self.a_noun = f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"
        self.table = table
        self.entries = {entry.predicate: entry for entry in table}
        self.defaults = cls._field_defaults
        self.required = [e for e in table if e.field not in self.defaults and not e.many]
        # The empty container each field that many statements fill starts as.
        self.containers = {
            entry.field: set if entry.kind is set else list
            for entry in table
            if entry.many
        }


_WORK = _Node(
    Work,
    "work",
    _Entry("name", "name", "name", str),
    _Entry("workType", "work_type", "work type", WorkType),
    _Entry("workForm", "form", "work form", WorkForm),
    _Entry("hasLicense", "license", "license", str),
    _Entry("origin", "origin", "origin", Origin),
)
_ACTION = _Node(
    ActionNode,
    "action",
    _Entry("hasInput", "inputs", "input", InputRole.PRIMARY),
    _Entry("hasTrainingData", "inputs", "input", InputRole.TRAINING_DATA),
    _Entry("hasAuxInput", "inputs", "input", InputRole.AUXILIARY),
    _Entry("hasOutput", "output", "output", Ident),
    _Entry("publishManner", "publish_manner", "publish manner", PublishManner),
    _Entry("publishForm", "publish_form", "publish form", WorkForm),
    _Entry("registersLicense", "license_to_register", "registered license", str),
    _Entry("copublish", "copublish", "copublish entry", set),
)
_OUTPUT = next(entry for entry in _ACTION.table if entry.field == "output")
_RULING = _Node(
    RulingRecord,
    "ruling",
    _Entry("hasReliedwork", "relied_work", "relied work", Ident),
    _Entry("byRule", "rule", "rule", str),
    _Entry("outputDef", "output_def", "output definition", OutputDefinition),
)
_REQUEST = _Node(
    RequestRecord,
    "request",
    _Entry("sourceWork", "source_work", "source work", Ident),
    _Entry("targetWork", "target_work", "target work", Ident),
    _Entry("usage", "usage", "usage", Usage),
)

# The records the reasoner writes, by class: the predicate that links each
# record from the node it belongs to, that node's field, and the table.
_RECORDS = {
    "Ruling": ("hasRuling", "work", _RULING),
    "Request": ("hasRequest", "action", _REQUEST),
}

_CLASSES = frozenset({"Work", *_RECORDS, *_ACTION_CLASSES})

# Statements the reasoner writes; parsing ignores them so that reasoned
# documents round-trip to their base workflow.
_REASONER_PREDICATES = frozenset(_EDGE_PREDICATES) | {
    link for link, _, _ in _RECORDS.values()
}
_PREDICATES = _REASONER_PREDICATES.union(
    *(node.entries for node in (_WORK, _ACTION, _RULING, _REQUEST))
)


# A local name; documents are read and written with the same pattern. A
# dot only joins two runs of name characters, so no name ends with one.
# An optional part written `(?:X|)`, X led by a literal character, is
# passed over at one look where that character is absent.
_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_:-]*(?:\.[A-Za-z0-9_:-]+(?:\.[A-Za-z0-9_:-]+)*|)")

# One match per token: skip blanks, line breaks and `#` comments, then
# the first alternative that matches names the kind. The order matters:
# INTEGER comes before NAME, which also matches digits, and its lookahead
# leaves `12ab` to NAME. Any other character is BAD, so every match
# succeeds and ends where the next one starts.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    r"(?:(?P<IRIREF><[^<>\s]*>)"
    r'|(?P<STRING>"[^"\\\n]*(?:\\.[^"\\\n]*)*")'
    r"|(?P<PREFIX_KW>@prefix\b)"
    r"|(?P<INTEGER>[+-]?[0-9]+(?![A-Za-z0-9_:.+-]))"
    rf"|(?P<NAME>{_NAME_RE.pattern})"
    r"|(?P<PUNCT>[.;,])"
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.))"
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}
_ESCAPED = str.maketrans({char: "\\" + name for name, char in _ESCAPES.items()})
# A backslash and the character after it, if any.
_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)


def _syntax_error(message: str, text: str, offset: int) -> WorkflowSyntaxError:
    """The fault at an offset, placed by 1-based line and character column."""
    line_start = text.rfind("\n", 0, offset) + 1
    line = text.count("\n", 0, line_start) + 1
    return WorkflowSyntaxError(message, line, offset - line_start + 1)


def _unescape(raw: str, text: str, offset: int) -> str:
    def char(match: re.Match) -> str:
        if match[1] not in _ESCAPES:
            raise _syntax_error("bad string escape", text, offset)
        return _ESCAPES[match[1]]

    return _ESCAPE_RE.sub(char, raw) if "\\" in raw else raw


# One statement for `parse_document`: up to three names and a string, the
# last of them its object, then its punctuation. No name is read back once
# the next term fails, so no match backtracks over one, and a name ends
# where its `_TOKEN_RE` token does.
_NAME = rf"({_NAME_RE.pattern})(?!\.?[A-Za-z0-9_:-])"
_COMMENT = r"#[^\n]*(?![^\n])[ \t\r\n]*"  # to its line's end, so no match ends in one
_BLANK = rf"[ \t\r\n]*(?:{_COMMENT}(?:{_COMMENT})*|)"
_STATEMENT_RE = re.compile(
    rf"{_BLANK}(?:{_NAME}{_BLANK}(?:{_NAME}{_BLANK}(?:{_NAME}{_BLANK}|)|)|)"
    rf'(?:"([^"\\\n]*(?:\\[nt"\\r][^"\\\n]*)*)"{_BLANK}|)([.;,])'
)


def _statement(
    text: str, pos: int, names: int, doc: Document, subject: str, predicate: str, idents: dict
) -> Optional[tuple[int, int, str, str]]:
    """Read the statement at `pos` token by token, where `_STATEMENT_RE` cannot.

    Where `names` is 2 that may be a prefix declaration or the end of the
    text; otherwise it is an object, after the subject and predicate that
    `names` asks for (the ones passed in stand for those it does not), and
    its punctuation. Returns None at the end, or where the statement ends,
    `names` after it, and its subject and predicate.
    A fault is raised only once the rest of the text is lexed: a character
    that no token starts with, anywhere in the text, is reported first.
    """
    tokens = _TOKEN_RE.finditer(text, pos)

    def take() -> tuple[str, str, int]:
        found = next(tokens)
        kind = found.lastgroup
        value = found[kind][1:-1] if kind == "IRIREF" or kind == "STRING" else found[kind]
        return kind, value, found.start(kind)

    def resolve(name: str, offset: int) -> str:
        if ":" not in name:
            raise _syntax_error(f"expected prefixed name, found {name!r}", text, offset)
        prefix, local = name.split(":", 1)
        namespace = doc.prefixes.get(prefix)
        if namespace is None:
            raise UnknownTerm(f"undeclared prefix '{prefix}:'")
        if namespace != NAMESPACE:
            version = f"is not the supported vocabulary version <{NAMESPACE}>"
            raise UnknownTerm(f"namespace <{namespace}> {version}")
        if not local:
            raise _syntax_error("empty local name", text, offset)
        return local

    try:
        kind, value, offset = take()
        if names == 2:
            if kind == "EOF":
                return None
            if kind == "PREFIX_KW":
                kind, name, offset = take()
                if kind != "NAME" or not name.endswith(":"):
                    raise _syntax_error("expected prefix name ending in ':'", text, offset)
                kind, iri, offset = take()
                if kind != "IRIREF":
                    raise _syntax_error("expected namespace IRI", text, offset)
                kind, value, offset = take()
                if kind != "PUNCT" or value != ".":
                    raise _syntax_error(f"expected '.', found {value!r}", text, offset)
                doc.prefixes[name[:-1]] = iri
                return offset + 1, 2, subject, predicate
            if kind != "NAME":
                raise _syntax_error(f"expected subject, found {value!r}", text, offset)
            subject = resolve(value, offset)
            kind, value, offset = take()
        if names:
            if kind != "NAME":
                raise _syntax_error(f"expected predicate, found {value!r}", text, offset)
            if value == "a":
                predicate = "a"
            elif (predicate := resolve(value, offset)) not in _PREDICATES:
                raise UnknownTerm(f"unknown predicate 'mg:{predicate}'")
            kind, value, offset = take()
        if kind == "STRING":
            obj = _unescape(value, text, offset)
        elif kind == "INTEGER":
            try:
                obj = int(value)
            except ValueError:  # more digits than the interpreter converts
                raise _syntax_error("integer literal too long", text, offset) from None
        elif kind == "NAME" and (value == "true" or value == "false"):
            obj = value == "true"
        elif kind == "NAME":
            local = resolve(value, offset)
            if predicate == "a" and local not in _CLASSES:
                raise UnknownTerm(f"unknown class 'mg:{local}'")
            obj = idents.get(local) or idents.setdefault(local, Ident(local))
        else:
            raise _syntax_error(f"expected object, found {value!r}", text, offset)
        kind, value, offset = take()
        if kind != "PUNCT":
            raise _syntax_error(f"expected punctuation, found {value!r}", text, offset)
        doc.statements.append((subject, predicate, obj))
        return offset + 1, ",;.".index(value), subject, predicate
    except InterchangeError:
        for found in _TOKEN_RE.finditer(text, pos):
            if found.lastgroup == "BAD":
                bad = f"unexpected character {found['BAD']!r}"
                raise _syntax_error(bad, text, found.start("BAD")) from None
        raise


def parse_document(text: str) -> Document:
    """Parse text, after one leading byte-order mark, into resolved statements."""
    if text[:1] == "\ufeff":
        text = text[1:]
    doc, idents, match = Document(), {}, _STATEMENT_RE.match
    # Each prefixed name's local name and each known predicate's, under the prefixes so far.
    locals_, verbs, append = {}, {"a": "a"}, doc.statements.append

    def local(name: str) -> Optional[str]:
        prefix, _, rest = name.partition(":")
        return locals_.setdefault(name, doc.prefixes.get(prefix) == NAMESPACE and rest or None)

    # Names before the next object: 2 after '.', 1 after ';', 0 after ','.
    pos, names, subject, predicate = 0, 2, None, None
    while True:
        # The leads, then one object; a statement read in part is read again below.
        while (found := match(text, pos)) and (terms := found.groups()).count(None) == 3 - names:
            lead, pred, name, string, punct = terms
            if names < 2:  # no subject: the names read are a predicate, if any, and the object
                lead, pred, name = (None, lead, pred) if names else (None, None, lead)
            if lead is not None:  # a subject and its predicate
                subject = locals_.get(lead) or local(lead)
            if pred is not None and (predicate := verbs.get(pred)) is None:
                if (predicate := local(pred)) not in _PREDICATES:
                    break
                verbs[pred] = predicate
            if string is not None:
                obj = _unescape(string, text, pos) if "\\" in string else string
            elif (obj := locals_.get(name) or local(name)) is None:
                break
            else:
                obj = idents.get(obj) or idents.setdefault(obj, Ident(obj))
            if subject is None or predicate == "a" and getattr(obj, "local", None) not in _CLASSES:
                break
            append((subject, predicate, obj))
            pos, names = found.end(), ",;.".index(punct)
        read = _statement(text, pos, names, doc, subject, predicate, idents)
        if read is None:
            return doc
        pos, names, subject, predicate = read
        locals_, verbs = {}, {"a": "a"}  # a prefix may have been declared


def _value(entry: _Entry, obj: Object, subject: str) -> object:
    """An identifier's local name, or the fault of an object `entry.read` refused."""
    if entry.kind is Ident or entry.many:
        if not isinstance(obj, Ident):
            raise SemanticError(f"{entry.what} of '{subject}' must be an identifier")
        return obj.local
    if not isinstance(obj, str):
        raise SemanticError(f"{entry.what} of '{subject}' must be a string")
    raise SemanticError(f"{entry.what} of '{subject}' has unknown value {obj!r}")


def _read(subject: str, rows: list[tuple[str, str, Object]], node: _Node) -> dict:
    """The fields a node's statements fill, read in statement order.

    Reasoner-owned statements are skipped. The first statement at fault
    is reported, then the first required predicate left unstated.
    """
    values = {name: empty() for name, empty in node.containers.items()}
    for _, predicate, obj in rows:
        if predicate == "a" or predicate in _REASONER_PREDICATES:
            continue
        entry = node.entries.get(predicate)
        if entry is None:
            raise SemanticError(
                f"predicate 'mg:{predicate}' not valid on {node.a_noun}"
            )
        if entry.field in values and not entry.many:
            raise SemanticError(f"duplicate 'mg:{predicate}' on '{subject}'")
        value = entry.read(obj) if obj.__class__ is entry.type else None
        if value is None:
            value = _value(entry, obj, subject)
        if not entry.many:
            values[entry.field] = value
        elif entry.kind is set:
            values[entry.field].add(value)
        else:
            values[entry.field].append(_new(ActionInput, (value, entry.kind)))
    for entry in node.required:
        if entry.field not in values:
            raise SemanticError(
                f"{node.noun} '{subject}' is missing 'mg:{entry.predicate}'"
            )
    return values


def parse_workflow(text: str) -> WorkflowGraph:
    """Build the base workflow graph a document describes.

    Reasoner-owned statements are dropped. A work marked as carrying a
    derived license comes back unlicensed, ready to be reasoned again,
    unless it is a root whose license the reasoner would not derive.
    """
    doc = parse_document(text)

    rows_of: dict[str, list[tuple[str, str, Object]]] = {}
    for statement in doc.statements:
        rows_of.setdefault(statement[0], []).append(statement)

    classes: dict[str, str] = {}
    for subject, rows in rows_of.items():
        for _, predicate, obj in rows:
            if predicate == "a":
                if subject in classes:
                    raise SemanticError(f"'{subject}' declared with two classes")
                if not isinstance(obj, Ident):
                    raise SemanticError(f"class of '{subject}' must be an identifier")
                classes[subject] = obj.local
    for subject in rows_of:
        if subject not in classes:
            raise SemanticError(f"'{subject}' has no class declaration")

    # Outputs come first: a work that an action produces has no license
    # of its own to declare.
    produced = {
        _value(_OUTPUT, obj, subject)
        for subject, rows in rows_of.items()
        if classes[subject] in _ACTION_CLASSES
        for _, predicate, obj in rows
        if predicate == _OUTPUT.predicate
    }
    graph, declared = WorkflowGraph(), Origin.USER_DECLARED
    for subject, rows in rows_of.items():
        if classes[subject] != "Work":
            continue
        work = Work(id=subject, **_read(subject, rows, _WORK))
        license_id = base_license(work, subject in produced)
        if license_id is not None and subject in produced:
            raise SemanticError(
                f"work '{subject}' is produced by an action but declares a license"
            )
        work.license, work.origin = license_id, declared
        add_work(graph, work)
    for subject, rows in rows_of.items():
        kind = _ACTION_CLASSES.get(classes[subject])
        if kind is None:
            continue
        action = ActionNode(id=subject, kind=kind, **_read(subject, rows, _ACTION))
        try:
            add_action(graph, action)
        except GraphError as err:
            raise SemanticError(str(err)) from err

    return graph


def _ident_text(local: str) -> str:
    if not _NAME_RE.fullmatch(local):
        raise InterchangeError(f"identifier {local!r} cannot be serialized")
    return f"{PREFIX}:{local}"


def _terms(entry: _Entry, value: object) -> list[str]:
    """A field's value as the objects of its predicate, in document text."""
    kind = entry.kind
    if kind is set:
        return [_ident_text(work) for work in sorted(value)]
    if isinstance(kind, InputRole):
        return [_ident_text(inp.work) for inp in value if inp.role is kind]
    if kind is Ident:
        return [_ident_text(value)]
    text = value if kind is str else value.value
    return [f'"{text.translate(_ESCAPED)}"']


def _block(subject: str, class_name: str, node: _Node, record: object) -> str:
    """A node's statements: its class, then each field that is not its default."""
    rows = [f"a {PREFIX}:{class_name}"]
    for entry in node.table:
        value = getattr(record, entry.field)
        if value != node.defaults.get(entry.field):
            terms = _terms(entry, value)
            if terms:
                rows.append(f"{PREFIX}:{entry.predicate} {', '.join(terms)}")
    return f"{_ident_text(subject)} " + " ;\n    ".join(rows) + " .\n"


def _edge_key(edge: DependencyEdge) -> tuple[str, str, str]:
    return edge.target, _EDGE_KIND_VALUE[edge.kind], edge.source


def serialize_graph(graph: WorkflowGraph) -> str:
    """Render a graph deterministically; reasoned state included if present."""
    lines = [f"@prefix {PREFIX}: <{NAMESPACE}> .", ""]
    for wid in sorted(graph.works):
        lines.append(_block(wid, "Work", _WORK, graph.works[wid]))
    for aid in sorted(graph.actions):
        action = graph.actions[aid]
        lines.append(_block(aid, _CLASS_OF_KIND[action.kind], _ACTION, action))

    edges = sorted(graph.edges, key=_edge_key)
    for edge in edges:
        lines.append(
            f"{_ident_text(edge.target)} {PREFIX}:{_PREDICATE_OF_EDGE[edge.kind]} "
            f"{_ident_text(edge.source)} ."
        )
    if edges:
        lines.append("")

    for class_name, records in (("Ruling", graph.rulings), ("Request", graph.requests)):
        link, owner, node = _RECORDS[class_name]
        for record in sorted(records, key=lambda r: r.id):
            lines.append(
                f"{_ident_text(getattr(record, owner))} {PREFIX}:{link} "
                f"{_ident_text(record.id)} ."
            )
            lines.append(_block(record.id, class_name, node, record))
    return "\n".join(lines).rstrip("\n") + "\n"


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
# The DOT text each enum member names, built once so that no record reads one.
_DOT_EDGES = {k: f"[label={_dot_quote(k.value)}, style={s}];" for k, s in _EDGE_STYLES.items()}
_DOT_TYPE_FORMS = {(t, f): f"{t.value}/{f.value}" for t in WorkType for f in WorkForm}
_DOT_INPUTS = {
    (k, r): _dot_quote(k.value if r is InputRole.PRIMARY else f"{k.value} ({r.value})")
    for k in ActionKind for r in InputRole
}
_DOT_CODES = {code: f"[{code.name}]" for code in ReportCode}


def export_dot(graph: WorkflowGraph, reports: Iterable[Report] = ()) -> str:
    """Render the graph for visualization, with the codes of the given reports."""
    codes_by_subject: dict[str, list[str]] = {}
    for report in reports:
        codes_by_subject.setdefault(report.subject, []).append(_DOT_CODES[report.code])

    lines = ["digraph workflow {"]
    for wid in sorted(graph.works):
        work = graph.works[wid]
        parts = [work.name, _DOT_TYPE_FORMS[work.work_type, work.form]]
        if work.license is not None:
            parts.append(work.license)
        parts.extend(codes_by_subject.get(wid, []))
        lines.append(f"  {_dot_quote(wid)} [label={_dot_quote(*parts)}];")
    for aid in sorted(graph.actions):
        action = graph.actions[aid]
        for inp in action.inputs:
            label = _DOT_INPUTS[action.kind, inp.role]
            lines.append(f"  {_dot_quote(inp.work)} -> {_dot_quote(action.output)} [label={label}];")
    for e in sorted(graph.edges, key=_edge_key):
        lines.append(f"  {_dot_quote(e.source)} -> {_dot_quote(e.target)} {_DOT_EDGES[e.kind]}")
    lines.append("}")
    return "\n".join(lines) + "\n"
