"""Property-based checks of the two text formats.

Whatever bytes a `.mgw` workflow or a `.mgl` rules file holds, the loaders
fail only with their own error classes, never with a stray exception. A
graph written by `serialize_graph` parses back to itself, and the order
of its statement blocks changes nothing `licflow analyze` prints. The
one-pass workflow lexer agrees with the per-line oracle token for token,
the workflow reader with the reference token parser statement for
statement and fault for fault, reading token by token only what its
per-statement regex cannot, and the rules reader with its per-line
oracle record for record and fault for fault.
"""

from __future__ import annotations

import io
import itertools
import random
from bisect import bisect_right
from string import ascii_letters, digits
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from licflow import (
    ActionKind,
    InterchangeError,
    KBError,
    LicenseFramework,
    OutputDefinition,
    RelicensePolicy,
    Restriction,
    Revocability,
    Usage,
    WorkflowSyntaxError,
    WorkForm,
    WorkType,
    bundled_rules_dir,
    load_kb,
    parse_workflow,
    serialize_graph,
)
from licflow import interchange
from licflow.cli import main
from licflow.interchange import _CLASSES, _NAME_RE, _PREDICATES, Ident, parse_document
from licflow.kb import _PROFILE_SCHEMA, _RULE_SCHEMA

from _helpers import action, graph_of, inputs_of, work
from graphgen import random_graph
from oracleutil import NAIVE_NAME_RE, _Parser, _tokenize, naive_load_kb, naive_tokens

# Bounded, so tier-1 stays fast, and without an example database.
BOUNDED = settings(max_examples=60, deadline=None, database=None)

PREFIX = "@prefix mg: <urn:licflow:v1#> ."

# ---------------------------------------------------------------------------
# Workflows: only InterchangeError
# ---------------------------------------------------------------------------

_SUBJECTS = ["A", "B", "C", "pub", "fit"]
_VERBS = ["a", "mg:a"] + [f"mg:{p}" for p in sorted(_PREDICATES)]
_OBJECTS = (
    [f"mg:{c}" for c in sorted(_CLASSES)]
    + [f"mg:{s}" for s in _SUBJECTS]
    + ['"model"', '"dataset"', '"weights"', '"text"', '"code"', '"software"']
    + ['"MIT"', '"Llama2"', '"share"', '"sell"', '"derived"', '"x"']
    + ["5", "true", "false", "mg:", "other:A"]
)


def _render(blocks: list[tuple[str, list[tuple[str, list[str]]]]]) -> str:
    lines = [PREFIX]
    for subject, rows in blocks:
        body = " ; ".join(f"{verb} {', '.join(objects)}" for verb, objects in rows)
        lines.append(f"mg:{subject} {body} .")
    return "\n".join(lines) + "\n"


_statements = st.lists(
    st.tuples(
        st.sampled_from(_SUBJECTS),
        st.lists(
            st.tuples(
                st.sampled_from(_VERBS),
                st.lists(st.sampled_from(_OBJECTS), min_size=1, max_size=2),
            ),
            min_size=1,
            max_size=5,
        ),
    ),
    max_size=8,
).map(_render)

_token_soup = st.lists(
    st.sampled_from(_VERBS + _OBJECTS + [f"mg:{s}" for s in _SUBJECTS] + list(".;,")),
    max_size=30,
).map(lambda tokens: PREFIX + "\n" + " ".join(tokens))


_arbitrary_text = st.text() | st.text().map(lambda text: PREFIX + "\n" + text)


@BOUNDED
@given(_arbitrary_text)
# More digits than the interpreter's default limit for converting a string to int.
@example(PREFIX + "\nmg:A a mg:Work ; mg:name " + "9" * 4301 + " .\n")
def test_arbitrary_text_fails_only_with_interchange_errors(text):
    try:
        parse_workflow(text)
    except InterchangeError:
        pass


@BOUNDED
@given(_statements | _token_soup)
def test_vocabulary_soup_fails_only_with_interchange_errors(text):
    try:
        parse_workflow(text)
    except InterchangeError:
        pass


# ---------------------------------------------------------------------------
# Rules files: only KBError
# ---------------------------------------------------------------------------

_TOKENS = [
    member.value
    for kind in (
        ActionKind,
        WorkForm,
        WorkType,
        Usage,
        OutputDefinition,
        RelicensePolicy,
        Restriction,
        LicenseFramework,
        Revocability,
    )
    for member in kind
] + ["true", "false", "T-1", "T-2", ""]

_VALID_RULES = """\
[profile]
id = T-1
name = Test
framework = model_license
intended_types = model
permissive = true
granted = use
compatible_with = T-1
[rule]
id = T-1-rule
trigger_actions = modify
trigger_input_forms = weights
trigger_output_forms = weights
output_def = derivative
relicense = compatible
publish_restrictions = include_license
use_restrictions = use_behavior
fuzz_only = false
"""

_values = st.lists(st.sampled_from(_TOKENS), max_size=3).map(", ".join)


def _edit(lines: list[str], edits: list[tuple[int, str, str]]) -> str:
    """Give chosen lines a new key or value; headers become entries too."""
    lines = list(lines)
    for index, part, text in edits:
        key, _, value = lines[index % len(lines)].partition(" = ")
        if part == "key":
            key = text
        else:
            value = text
        lines[index % len(lines)] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


_edited_rules = st.lists(
    st.tuples(
        st.integers(0, 100),
        st.sampled_from(["key", "value"]),
        st.sampled_from(sorted(_PROFILE_SCHEMA[0].keys() | _RULE_SCHEMA[0].keys())) | _values,
    ),
    max_size=3,
).map(lambda edits: _edit(_VALID_RULES.splitlines(), edits))


@st.composite
def _rules_bytes(draw) -> bytes:
    data = draw(st.binary() | (_edited_rules | st.text()).map(str.encode))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=2)) + data[at:]
    return data


@BOUNDED
@given(_rules_bytes())
def test_arbitrary_rules_files_fail_only_with_kb_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.mgl"
    path.write_bytes(data)
    try:
        load_kb([path])
    except KBError:
        pass


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

_ids = st.from_regex(NAIVE_NAME_RE, fullmatch=True)
_names = st.text() | st.text(alphabet='"\\\n\r\t #;.,:<>é漢\U0001f600a')
_licenses = st.none() | _names


@settings(BOUNDED, max_examples=40)
@given(
    st.lists(_ids, min_size=5, max_size=5, unique=True),
    st.lists(_names, min_size=4, max_size=4),
    st.lists(_licenses, min_size=3, max_size=3),
    st.booleans(),
)
def test_serialized_graphs_parse_back_to_themselves(ids, names, licenses, copublish):
    model, data, aux, trained, fit = ids
    graph = graph_of(
        [
            work(model, name=names[0], license=licenses[0]),
            work(data, WorkType.DATASET, WorkForm.TEXT, licenses[1], names[1]),
            work(aux, WorkType.DATASET, WorkForm.TEXT, licenses[2], names[2]),
            work(trained, name=names[3]),
        ],
        [
            action(
                fit,
                ActionKind.TRAIN,
                inputs_of([model], training=[data], auxiliary=[aux]),
                trained,
                copublish={data} if copublish else (),
            )
        ],
    )
    assert parse_workflow(serialize_graph(graph)) == graph


def _analyze(path, mode: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["analyze", str(path), "--output", mode])
    return code, out.getvalue()


@settings(BOUNDED, max_examples=20)
@given(st.integers(0, 10**6), st.integers(6, 16), st.randoms(use_true_random=False))
def test_the_order_of_statement_blocks_changes_no_output(
    tmp_path_factory, seed, works, rng
):
    header, _, body = serialize_graph(random_graph(seed, works)).partition("\n\n")
    blocks = body.rstrip("\n").split("\n\n")
    rng.shuffle(blocks)
    base = tmp_path_factory.getbasetemp()
    original = base / "original.mgw"
    original.write_text(header + "\n\n" + body, encoding="utf-8")
    shuffled = base / "shuffled.mgw"
    shuffled.write_text(header + "\n\n" + "\n\n".join(blocks) + "\n", encoding="utf-8")
    for mode in ("human", "structured", "dot"):
        assert _analyze(shuffled, mode) == _analyze(original, mode)


# ---------------------------------------------------------------------------
# Tokens: the one-pass lexer against the per-line oracle
# ---------------------------------------------------------------------------


def _one_pass_tokens(text: str) -> list[tuple[str, str, int, int]]:
    line_starts = [0] + [at + 1 for at, ch in enumerate(text) if ch == "\n"]
    tokens = []
    for kind, value, offset in _tokenize(text):
        line = bisect_right(line_starts, offset)
        tokens.append((kind, value, line, offset - line_starts[line - 1] + 1))
    return tokens


def _lexed(tokenize, text: str):
    try:
        return tokenize(text)
    except WorkflowSyntaxError as err:
        return (str(err), err.line, err.column)


def _assert_lexes_like_the_oracle(text: str) -> bool:
    """Same tokens at the same lines and columns, or the same error.

    Returns whether the text lexed without error.
    """
    expected = _lexed(naive_tokens, text)
    actual = _lexed(_one_pass_tokens, text)
    if isinstance(expected, tuple):
        assert actual == expected
        return False
    # The one difference: EOF sits just past the last character, not on
    # the line after it.
    lines = text.split("\n")
    assert expected[-1] == ("EOF", "", len(lines) + 1, 1)
    assert actual[-1] == ("EOF", "", len(lines), len(lines[-1]) + 1)
    assert actual[:-1] == expected[:-1]
    return True


@BOUNDED
@given(_arbitrary_text | _statements | _token_soup | _names)
def test_the_lexer_agrees_with_the_per_line_oracle(text):
    _assert_lexes_like_the_oracle(text)


def _span(match):
    return None if match is None else match.span()


@BOUNDED
@given(st.text(alphabet=ascii_letters + digits + "_:.+-" + " \t\r\n" + '#"<>;,@é'))
def test_the_name_pattern_matches_the_reference_spelling(text):
    # `_tokenize` matches names where a token starts and `serialize_graph`
    # fullmatches ids, so both must agree with the oracle's spelling.
    for pos in range(len(text) + 1):
        assert _span(_NAME_RE.match(text, pos)) == _span(NAIVE_NAME_RE.match(text, pos))
    assert _span(_NAME_RE.fullmatch(text)) == _span(NAIVE_NAME_RE.fullmatch(text))


_PIECES = list(' \t\r\n#"\\<>.;,:@+-_09aZé') + ["\r\n", "mg:", "@prefix", "12ab", "\\q"]


def _mutated(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        end = min(len(text), at + rng.randint(1, 8))
        piece = rng.choice(_PIECES)
        text = rng.choice(
            [
                text[:at] + piece + text[at:],
                text[:at] + piece + text[end:],
                text[:at] + text[end:],
                text[:at],
            ]
        )
    return text


def test_the_lexer_agrees_with_the_oracle_on_mutated_fixtures(fixtures_dir):
    texts = [path.read_text() for path in sorted(fixtures_dir.glob("*.mgw"))]
    texts += [text.replace("\n", "\r\n") for text in texts]
    texts += [text.replace("   ", "\t") for text in texts]
    rng = random.Random(8)
    lexed = sum(
        _assert_lexes_like_the_oracle(_mutated(rng, rng.choice(texts)))
        for _ in range(500)
    )
    # Both outcomes must be exercised, or the comparison proves little.
    assert 100 < lexed < 400


# ---------------------------------------------------------------------------
# Statements: the workflow reader against the reference token parser
# ---------------------------------------------------------------------------


def _typed(doc):
    """A document's prefixes and statements; `True` and `1` stay apart."""
    return doc.prefixes, [(s, p, type(o), o) for s, p, o in doc.statements]


@contextmanager
def _token_path_calls():
    """The offsets `parse_document` reads a statement at token by token, while open."""
    calls, statement = [], interchange._statement

    def counted(text, pos, *rest):
        calls.append(pos)
        return statement(text, pos, *rest)

    with mock.patch.object(interchange, "_statement", counted):
        yield calls


def _reads_like_the_parser(text: str) -> tuple[bool, bool]:
    """`parse_document` reads the text as the token parser does.

    It ends with the same document, or the same error at the same line and
    column; the parser reads the text after the one leading byte-order mark
    `parse_document` skips. Returns whether the parser read the text, and
    whether `parse_document` read it token by token only at its prefix
    declaration, if any, and its end.
    """
    outcomes = []
    with _token_path_calls() as calls:
        for parse in (lambda text: _Parser(text.removeprefix("\ufeff")).parse(), parse_document):
            try:
                outcomes.append(_typed(parse(text)))
            except InterchangeError as err:
                where = (getattr(err, "line", None), getattr(err, "column", None))
                outcomes.append((type(err), str(err), where))
    assert outcomes[1] == outcomes[0]
    parsed = isinstance(outcomes[0][0], dict)
    return parsed, parsed and len(calls) <= 2


@BOUNDED
@given(_arbitrary_text | _statements | _token_soup | _names)
# A name ends where its token ends, even where a shorter one would read on.
@example(PREFIX + "\nmg:s mg:namemg:X .\n")
@example(PREFIX + "\nmg:s mg:name mg:X. .\n")
@example(PREFIX + '\nmg:s mg:name mg:X.mg:t mg:name "y" .\n')
@example(PREFIX + "\nmg:s mg:name mg:X..Y .\n")
@example(PREFIX + '\n# After a comment.\nmg:s mg:name mg:X.mg:Y mg:name "y" .\n')
# One term too many or too few before the punctuation, or a string before a name.
@example(PREFIX + '\nmg:s mg:name mg:X "y" .\nmg:s mg:hasOutput mg:X mg:Y .\n')
@example(PREFIX + '\nmg:s mg:name "y" mg:X .\n')
@example(PREFIX + "\nmg:s a mg:Work ; .\nmg:s a mg:Work , .\nmg:s a .\n")
@example(PREFIX + '\nmg:s a mg:Work ; mg:name mg:s "x" .\n')
# A comment runs to the end of its line, names and punctuation in it included.
@example(PREFIX + "\n# mg:s a mg:Work .\nmg:s a mg:Work . # mg:t a\n")
@example(PREFIX + "\nmg:s a mg:Work # not the end .\n")
@example(PREFIX + '\nmg:s mg:name "a\\"b\\\\c" ; mg:workType "\\q" .\n')
@example(PREFIX + "\nmg:s a true , 12 , mg:Work , mg:Nothing .\n")
@example(PREFIX + "\nmg:s mg:name " + "9" * 4301 + " .\n")
# A name resolves under the prefixes declared before it, and only those.
@example("@prefix mg: <urn:other#> .\nmg:s a mg:Work .\n" + PREFIX + "\nmg:s a mg:Work .\n")
@example(PREFIX + '\n@prefix o: <urn:licflow:v1#> .\no:s mg:name "x" .\n'
         '@prefix mg: <urn:other#> .\no:t mg:name "y" .\n')
@example(PREFIX + "\n@prefix o: <urn:licflow:v1#> .\no:s o:hasOutput mg:X .\n"
         "@prefix mg: <urn:other#> .\no:t o:hasOutput mg:X .\n")
# `mg:a` is a predicate outside the vocabulary, not the keyword `a`.
@example(PREFIX + "\nmg:s mg:a mg:Work .\n")
# The first character no token starts with is reported, not a later one,
# and it outranks an earlier fault.
@example(PREFIX + "\n:/\n")
@example(PREFIX + "\nmg:s mg:shininess mg:Work .\nmg:t a mg:Work .\n@\n")
# Statements read token by token and by the regex take turns.
@example(PREFIX + '\nmg:s a mg:Work .\nmg:s mg:name 5 ; mg:workType "x" , 6 .\nmg:t a mg:Work .\n')
@example(PREFIX + "\nmg:s mg:name 5 .\n@prefix mg: <urn:other#> .\nmg:t a mg:Work .\n")
@example("\ufeff" + PREFIX + "\nmg:s mg:name 5 .\n")
def test_the_statement_reader_agrees_with_the_parser(text):
    _reads_like_the_parser(text)


def test_the_statement_reader_agrees_with_the_parser_on_mutated_fixtures(fixtures_dir):
    texts = [path.read_text() for path in sorted(fixtures_dir.glob("*.mgw"))]
    texts += [text.replace("\n", "\r\n") for text in texts]
    texts += [text.replace("   ", "\t") for text in texts]
    rng = random.Random(8)
    outcomes = [_reads_like_the_parser(_mutated(rng, rng.choice(texts))) for _ in range(2000)]
    # Every text the parser reads is read by the regex but for its prefix
    # declaration and its end, and both outcomes are exercised, or the
    # comparison proves little.
    assert all(parsed == read for parsed, read in outcomes)
    assert 200 < sum(read for _, read in outcomes) < 1800


def _interned(doc) -> bool:
    """Whether each local name is one `Ident` object throughout the document."""
    idents = [o for _, _, o in doc.statements if isinstance(o, Ident)]
    return len({o.local for o in idents}) == len({id(o) for o in idents})


def test_the_statement_reader_reads_what_licflow_writes(fixtures_dir, monkeypatch):
    # A reader that read every statement token by token would pass every
    # test above and gain nothing: only the prefix line and the end may be.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import dense_graph, ladder_graph

    texts = [path.read_text() for path in sorted(fixtures_dir.glob("*.mgw"))]
    texts += [text.replace("\n", "\r\n") for text in texts]
    texts += [text.replace("   ", "\t") for text in texts]
    texts += [serialize_graph(random_graph(seed, 6 + seed % 20)) for seed in range(300)]
    texts += [serialize_graph(dense_graph()), serialize_graph(ladder_graph())]
    quoted = graph_of([work("A", name='say "hi" \\ bye\t'), work("B", name="\\")], [])
    texts.append(serialize_graph(quoted))
    for text in texts:
        with _token_path_calls() as calls:
            read = parse_document(text)
        assert len(calls) == 2, text[:200]
        assert _typed(read) == _typed(_Parser(text).parse())
        assert _interned(read)


class _CountingPattern:
    """A compiled pattern whose `finditer` counts the matches it yields."""

    def __init__(self, pattern):
        self.pattern, self.matches = pattern, 0

    def finditer(self, text, pos=0):
        for match in self.pattern.finditer(text, pos):
            self.matches += 1
            yield match


def test_a_statement_read_token_by_token_lexes_only_itself(monkeypatch):
    # Lexing the rest of the text, or all of it, at each such statement would
    # make a text of integers cost quadratic time. Tokens are counted, not
    # timed: a statement here is four tokens.
    body = "".join(f"mg:s{i} mg:name {i} .\n" for i in range(2000))
    counting = _CountingPattern(interchange._TOKEN_RE)
    monkeypatch.setattr(interchange, "_TOKEN_RE", counting)
    assert len(parse_document(f"{PREFIX}\n{body}").statements) == 2000
    assert counting.matches <= 5 * 2000
    counting.matches = 0
    # A fault lexes the rest of the text once, for a character no token starts with.
    with pytest.raises(WorkflowSyntaxError, match="unexpected character '@'") as err:
        parse_document(f"{PREFIX}\n{body}@\n")
    assert (err.value.line, err.value.column) == (2002, 1)
    assert counting.matches <= 5 * 2000


# ---------------------------------------------------------------------------
# Rules files: the reader against the per-line oracle
# ---------------------------------------------------------------------------

_BUNDLED_RULES = [
    path.read_text(encoding="utf-8") for path in sorted(bundled_rules_dir().glob("*.mgl"))
]

# Whole-file rewrites: line breaks that `str.splitlines` cuts at, blanks
# that `str.strip` removes, and a byte-order mark.
_REWRITES = [
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text.replace("\n", "\x0c"),
    lambda text: text.replace("\n", "\x85"),
    lambda text: text.replace(" = ", "\t=\t"),
    lambda text: text.replace(" = ", "="),
    lambda text: text.replace("[rule]", "[ rule ]"),
    lambda text: "\ufeff" + text,
]

_STRAY_LINES = [
    "stray",
    "= value",
    "key =",
    "[ rule ]",
    "[profile]",
    "[weird]",
    "# comment = x",
    " \t\x1f\xa0",
    "id = Other-1",
    "meta.x=y=z",
    "granted = use,,modify",
    "trigger_actions = , train",
]


def _mutated_rules(rng: random.Random, text: str) -> str:
    """A bundled rules file with a few line edits and a rewrite or two."""
    lines = text.split("\n")
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(lines))
        edit = rng.choice(["duplicate", "drop", "stray", "squeeze", "typo"])
        if edit == "duplicate":
            lines.insert(at, lines[at])
        elif edit == "drop":
            del lines[at]
        elif edit == "stray":
            lines.insert(at, rng.choice(_STRAY_LINES))
        elif edit == "squeeze":
            lines[at] = lines[at].replace(" = ", "=").replace(", ", ",")
        else:
            lines[at] = lines[at][:-1] + "x"
    text = "\n".join(lines)
    for _ in range(rng.randint(0, 2)):
        text = rng.choice(_REWRITES)(text)
    return text


def _reads_like_the_oracle(path, text: str) -> bool:
    """The same knowledge base, or the same fault in the same words.

    Returns whether the text loaded without a fault.
    """
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for load in (load_kb, naive_load_kb):
        try:
            outcomes.append(load([path]))
        except KBError as err:
            outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1]
    return not isinstance(outcomes[0], tuple)


_RULES_ALPHABET = st.sampled_from(
    list("[]=#, \t\r\n\x0b\x0c\x1c\x1f\x85\xa0\u2028\ufeffa") + _TOKENS
)


_PROFILE_TEXT, _RULE_TEXT = _VALID_RULES.split("[rule]\n")
# A profile whose `copyleft` value does not convert, then its rule.
_MAYBE_RULES = _VALID_RULES.replace("permissive = true", "copyleft = maybe")


@BOUNDED
@given(
    _edited_rules
    | st.lists(_RULES_ALPHABET).map("".join)
    | st.builds(
        _mutated_rules, st.randoms(use_true_random=False), st.sampled_from(_BUNDLED_RULES)
    )
)
@example("")
@example("# only a comment\n")
@example("\n\n")
@example("[rule]\n" + _RULE_TEXT + _PROFILE_TEXT)
@example(_MAYBE_RULES + "meta.x = 1\nmeta.x = 2\n")
@example(_MAYBE_RULES.replace("granted = use\n", "granted = use\ncolour = blue\n"))
def test_the_rules_reader_agrees_with_the_per_line_oracle(tmp_path_factory, text):
    _reads_like_the_oracle(tmp_path_factory.getbasetemp() / "oracle.mgl", text)


def test_the_rules_reader_agrees_with_the_oracle_on_mutated_bundled_files(tmp_path):
    rng = random.Random(13)
    loaded = sum(
        _reads_like_the_oracle(tmp_path / "mutated.mgl", _mutated_rules(rng, text))
        for _ in range(15)
        for text in _BUNDLED_RULES
    )
    # Both outcomes must be exercised, or the comparison proves little.
    assert 50 < loaded < 220, loaded


_OTHER_HEADER = {"[profile]": "[rule]", "[rule]": "[profile]"}


def _line_edits(lines: list[str]):
    """Each line deleted, doubled and moved to the end; each header made the other kind."""
    for at, line in enumerate(lines):
        rest = lines[:at] + lines[at + 1:]
        yield from (rest, lines[:at + 1] + lines[at:], rest + [line])
        if line in _OTHER_HEADER:
            yield lines[:at] + [_OTHER_HEADER[line]] + lines[at + 1:]


def test_every_single_line_edit_of_a_bundled_file_reads_like_the_oracle(tmp_path):
    # One edit at each line walks the reader's decline boundary for every
    # key and section kind: a key left out, stated twice or in the wrong
    # section, and a section of the wrong kind.
    outcomes = [
        _reads_like_the_oracle(tmp_path / "edited.mgl", "\n".join(edited))
        for text in _BUNDLED_RULES
        for edited in _line_edits(text.split("\n"))
    ]
    assert 0 < sum(outcomes) < len(outcomes), (sum(outcomes), len(outcomes))


def _key(line: str) -> str:
    """The key of an entry line, or an empty string."""
    return line.partition("=")[0].strip() if "=" in line else ""


# Keys that take free text, not tokens, and "" for a line that is no entry.
_FREE_TEXT_KEYS = {"", "id", "name", "compatible_with"}
_REQUIRED_KEYS = {
    "id", "name", "framework", "intended_types", "trigger_actions",
    "trigger_input_forms", "trigger_output_forms", "output_def", "relicense",
}

# Each fault: the lines it may be put at, and what it puts in the line's place.
_FAULTS = {
    "bad token": (
        lambda line: _key(line) not in _FREE_TEXT_KEYS and not _key(line).startswith("meta."),
        lambda line: [f"{_key(line)} = bogus"],
    ),
    "unknown key": (lambda line: True, lambda line: [line, "colour = blue"]),
    "dropped required key": (lambda line: _key(line) in _REQUIRED_KEYS, lambda line: []),
    "doubled line": (lambda line: _key(line) != "", lambda line: [line, line]),
    "stray [profile]": (lambda line: True, lambda line: [line, "[profile]"]),
    "line without =": (lambda line: True, lambda line: [line, "no equals sign"]),
}


def test_two_faults_in_a_bundled_file_read_like_the_oracle(tmp_path):
    # Which of two faults is reported is decided after the whole file is
    # read: a line fault, then a misplaced section, then each section's.
    rng = random.Random(26)
    path, faults = tmp_path / "two-faults.mgl", set()
    for text in _BUNDLED_RULES:
        lines = text.split("\n")
        for first, second in itertools.product(_FAULTS.values(), repeat=2):
            at = rng.choice([i for i, line in enumerate(lines) if first[0](line)])
            others = [i for i, line in enumerate(lines) if second[0](line) and i != at]
            # The later line is edited first, so the earlier one keeps its index.
            edits = sorted([(at, first[1]), (rng.choice(others), second[1])], reverse=True)
            edited = list(lines)
            for where, put in edits:
                edited[where:where + 1] = put(edited[where])
            assert not _reads_like_the_oracle(path, "\n".join(edited))
            with pytest.raises(KBError) as err:
                load_kb([path])
            faults.add(str(err.value).rsplit(": ", 1)[1].split(" '")[0])
    assert faults == {
        "duplicate key", "entry outside any section", "expected key = value",
        "expected true or false, got", "missing key", "only one [profile] section per file",
        "unknown key", "unknown token",
    }
