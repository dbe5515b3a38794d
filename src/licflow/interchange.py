"""Text interchange for workflow graphs.

The format is a strict subset of Turtle: prefix declarations, triples
with `;` and `,` continuation, the `a` keyword, quoted strings, booleans
and integers. Blank nodes are not supported; every node is named. The
vocabulary is closed and versioned through the namespace URI, so
documents written against other versions are rejected instead of being
half-understood.

Two readers exist so that common text is read fast and every fault is
still reported one way: `_read_statements` reads a statement per regex
match, and `_Parser`, the token parser, reads what it declines and alone raises.

Parsing returns the base workflow only. Statements owned by the
reasoner (dependency edges, rulings, requests, derived licenses) are
dropped, which makes a reasoned document safe to feed back in: parsing
it reproduces the graph the reasoner originally started from.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import EnumMeta
from typing import Iterable, Optional, Union

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
from .reasoner import RequestRecord, RulingRecord, base_license
from .reports import Report

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


@dataclass(frozen=True)
class Ident:
    """A named node, kept as its local name within the mg namespace."""

    local: str


Object = Union[Ident, str, bool, int]


@dataclass
class Document:
    prefixes: dict[str, str] = field(default_factory=dict)
    statements: list[tuple[str, str, Object]] = field(default_factory=list)


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
        if is_dataclass(cls):
            self.defaults = {f.name: f.default for f in fields(cls)}
        else:
            self.defaults = {**dict.fromkeys(cls._fields, MISSING), **cls._field_defaults}
        self.required = [
            entry
            for entry in table
            if self.defaults[entry.field] is MISSING and not entry.many
        ]
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

# (kind, value, offset into the text); IRIREF and STRING values are
# their text between the delimiters.
_Token = tuple[str, str, int]

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


def _tokenize(text: str) -> list[_Token]:
    """Every token of the text, ending with EOF just past its last character."""
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value, offset = match[kind], match.start(kind)
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
        self.next = iter(_tokenize(text)).__next__
        self.idents: dict[str, Ident] = {}

    def error(self, message: str, offset: int) -> WorkflowSyntaxError:
        return _syntax_error(message, self.text, offset)

    def parse(self) -> Document:
        doc = Document()
        while True:
            token = self.next()
            if token[0] == "EOF":
                return doc
            if token[0] == "PREFIX_KW":
                self._prefix_decl(doc)
            else:
                self._triples(doc, token)

    def _prefix_decl(self, doc: Document) -> None:
        kind, name, offset = self.next()
        if kind != "NAME" or not name.endswith(":"):
            raise self.error("expected prefix name ending in ':'", offset)
        kind, iri, offset = self.next()
        if kind != "IRIREF":
            raise self.error("expected namespace IRI", offset)
        kind, found, offset = self.next()
        if kind != "PUNCT" or found != ".":
            raise self.error(f"expected '.', found {found!r}", offset)
        doc.prefixes[name[:-1]] = iri

    def _resolve(self, name: str, offset: int, doc: Document) -> str:
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
        return local

    def _triples(self, doc: Document, token: _Token) -> None:
        kind, value, offset = token
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
                doc.statements.append((subject, predicate, self._object(doc, predicate)))
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
            try:
                return int(value)
            except ValueError:  # more digits than the interpreter converts
                raise self.error("integer literal too long", offset) from None
        if kind == "NAME":
            if value == "true":
                return True
            if value == "false":
                return False
            local = self._resolve(value, offset, doc)
            if predicate == "a" and local not in _CLASSES:
                raise UnknownTerm(f"unknown class 'mg:{local}'")
            return self.idents.get(local) or self.idents.setdefault(local, Ident(local))
        raise self.error(f"expected object, found {value!r}", offset)


# One statement for `_read_statements`: up to three names and a string, the
# last of them its object, then its punctuation; a prefix declaration; or the
# end. No name is read back once the next term fails, so no match backtracks
# over one, and a name ends where its `_TOKEN_RE` token does.
_NAME = rf"({_NAME_RE.pattern})(?!\.?[A-Za-z0-9_:-])"
_COMMENT = r"#[^\n]*(?![^\n])[ \t\r\n]*"  # to its line's end, so no match ends in one
_BLANK = rf"[ \t\r\n]*(?:{_COMMENT}(?:{_COMMENT})*|)"
_STATEMENT_RE = re.compile(
    rf"{_BLANK}(?:(?:{_NAME}{_BLANK}(?:{_NAME}{_BLANK}(?:{_NAME}{_BLANK}|)|)|)"
    rf'(?:"([^"\\\n]*(?:\\[nt"\\r][^"\\\n]*)*)"{_BLANK}|)([.;,])'
    rf"|\Z|@prefix\b{_BLANK}{_NAME}{_BLANK}<([^<>\s]*)>{_BLANK}\.)"
)


def _read_statements(text: str) -> Optional[Document]:
    """What `_Parser(text).parse()` returns, read in one match per statement, or
    None at the first text it cannot read as `_Parser` does, whether or not `_Parser`
    fails there, including integers and booleans, which no workflow holds."""
    doc, idents, match = Document(), {}, _STATEMENT_RE.match
    # Each prefixed name's local name and each predicate's, under the prefixes so far.
    locals_, verbs, append = {}, {"a": "a"}, doc.statements.append

    def local(name: str) -> Optional[str]:
        prefix, _, rest = name.partition(":")
        return locals_.setdefault(name, doc.prefixes.get(prefix) == NAMESPACE and rest or None)

    pos, names = 0, 2  # names before the next object: 2 after '.', 1 after ';'
    while found := match(text, pos):
        (lead, pred, name, string, punct, prefix, iri), pos = found.groups(), found.end()
        if punct is None:  # a prefix declaration or the end, after a '.'
            if prefix is None or names != 2 or prefix[-1] != ":":
                return doc if prefix is None and names == 2 else None
            doc.prefixes[prefix[:-1]] = iri
            locals_, verbs = {}, {"a": "a"}
            continue
        if (lead, pred, name, string).count(None) != 3 - names:  # the leads, then one object
            return None
        if names < 2:  # no subject: the names read are a predicate, if any, and the object
            lead, pred, name = (None, lead, pred) if names else (None, None, lead)
        if lead is not None:  # a subject and its predicate
            subject = locals_.get(lead) or local(lead)
        if pred is not None and (predicate := verbs.get(pred)) is None:
            predicate = verbs[pred] = locals_.get(pred) or local(pred)
            if predicate not in _PREDICATES:
                return None
        if string is not None:
            obj = _unescape(string, text, pos) if "\\" in string else string
        elif (obj := locals_.get(name) or local(name)) is None:
            return None
        else:
            obj = idents.get(obj) or idents.setdefault(obj, Ident(obj))
        if subject is None or predicate == "a" and getattr(obj, "local", None) not in _CLASSES:
            return None
        append((subject, predicate, obj))
        names = ",;.".index(punct)
    return None


def parse_document(text: str) -> Document:
    """Parse text into resolved statements without interpreting them."""
    return _read_statements(text) or _Parser(text).parse()


def _value(entry: _Entry, obj: Object, subject: str) -> object:
    """One object of a statement, read as the kind of value its entry holds."""
    kind = entry.kind
    if kind is Ident or entry.many:
        if not isinstance(obj, Ident):
            raise SemanticError(f"{entry.what} of '{subject}' must be an identifier")
        return obj.local
    if not isinstance(obj, str):
        raise SemanticError(f"{entry.what} of '{subject}' must be a string")
    if kind is str:
        return obj
    member = entry.members.get(obj)
    if member is None:
        raise SemanticError(f"{entry.what} of '{subject}' has unknown value {obj!r}")
    return member


def _read(subject: str, rows: list[tuple[str, Object]], node: _Node) -> dict:
    """The fields a node's statements fill, read in statement order.

    Reasoner-owned statements are skipped. The first statement at fault
    is reported, then the first required predicate left unstated.
    """
    values = {name: empty() for name, empty in node.containers.items()}
    for predicate, obj in rows:
        if predicate == "a" or predicate in _REASONER_PREDICATES:
            continue
        entry = node.entries.get(predicate)
        if entry is None:
            raise SemanticError(
                f"predicate 'mg:{predicate}' not valid on {node.a_noun}"
            )
        if entry.field in values and not entry.many:
            raise SemanticError(f"duplicate 'mg:{predicate}' on '{subject}'")
        value = _value(entry, obj, subject)
        if not entry.many:
            values[entry.field] = value
        elif entry.kind is set:
            values[entry.field].add(value)
        else:
            values[entry.field].append(ActionInput(value, entry.kind))
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

    rows_of: dict[str, list[tuple[str, Object]]] = {}
    for subject, predicate, obj in doc.statements:
        rows_of.setdefault(subject, []).append((predicate, obj))

    classes: dict[str, str] = {}
    for subject, rows in rows_of.items():
        for predicate, obj in rows:
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
        for predicate, obj in rows
        if predicate == _OUTPUT.predicate
    }
    graph = WorkflowGraph()
    for subject, rows in rows_of.items():
        if classes[subject] != "Work":
            continue
        work = Work(id=subject, **_read(subject, rows, _WORK))
        license_id = base_license(work, subject in produced)
        if license_id is not None and subject in produced:
            raise SemanticError(
                f"work '{subject}' is produced by an action but declares a license"
            )
        work.license, work.origin = license_id, Origin.USER_DECLARED
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
        if value != node.defaults[entry.field]:
            terms = _terms(entry, value)
            if terms:
                rows.append(f"{PREFIX}:{entry.predicate} {', '.join(terms)}")
    return f"{_ident_text(subject)} " + " ;\n    ".join(rows) + " .\n"


def serialize_graph(graph: WorkflowGraph) -> str:
    """Render a graph deterministically; reasoned state included if present."""
    lines = [f"@prefix {PREFIX}: <{NAMESPACE}> .", ""]
    for wid in sorted(graph.works):
        lines.append(_block(wid, "Work", _WORK, graph.works[wid]))
    for aid in sorted(graph.actions):
        action = graph.actions[aid]
        lines.append(_block(aid, _CLASS_OF_KIND[action.kind], _ACTION, action))

    edges = sorted(graph.edges, key=lambda e: (e.target, e.kind.value, e.source))
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


def export_dot(graph: WorkflowGraph, reports: Iterable[Report] = ()) -> str:
    """Render the graph for visualization, with the codes of the given reports."""
    codes_by_subject: dict[str, list[str]] = {}
    for report in reports:
        codes_by_subject.setdefault(report.subject, []).append(f"[{report.code.name}]")

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
