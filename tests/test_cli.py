"""Command-line behavior: subcommands, exit codes, output formats."""

from __future__ import annotations

import gc
import io
import json
import os
import pickle
import re
import subprocess
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import licflow
from licflow import (
    ActionKind,
    ExitClass,
    Report,
    ReportCode,
    WorkForm,
    WorkflowGraph,
    WorkType,
    add_action,
    add_work,
    bundled_rules_dir,
    export_dot,
    parse_workflow,
    serialize_graph,
    validate_graph,
)
from licflow import analyzer, cli, model, reasoner
from licflow.cli import DISCLAIMER, EXIT_USAGE, KB_ENV_VAR, main
from licflow.model import form_is_valid

from _helpers import action, code_work, copy_chain, diamond_ladder, graph_of, publish, work
from graphgen import random_graph

CLEAN_WORKFLOW = """\
@prefix mg: <urn:licflow:v1#> .

mg:M a mg:Work ;
   mg:name "Clean Model" ;
   mg:workType "model" ;
   mg:workForm "weights" ;
   mg:hasLicense "MG0" .

mg:P a mg:Work ;
   mg:name "Release" ;
   mg:workType "model" ;
   mg:workForm "weights" .

mg:pub a mg:PublishAction ;
   mg:hasInput mg:M ;
   mg:hasOutput mg:P ;
   mg:publishManner "share" ;
   mg:publishForm "weights" .
"""

MISMATCHED_WORKFLOW = """\
@prefix mg: <urn:licflow:v1#> .

mg:W a mg:Work ;
   mg:name "Odd One" ;
   mg:workType "model" ;
   mg:workForm "text" .
"""

CUSTOM_PROFILE = """\
[profile]
id = Custom-1
name = Custom License One
framework = model_license
intended_types = model
permissive = true
compatible_with = Custom-1
"""

ALL_CODES = (
    [f"N{i}" for i in range(1, 5)]
    + [f"W{i}" for i in range(1, 9)]
    + [f"E{i}" for i in range(1, 11)]
)

_REPORT_LINE = re.compile(r"^  ([NWE]\d+) \((notice|warning|error)\) subject (\S+):")
_HEADING_LINE = re.compile(r"^published work (\S+)$")


def _human_multiset(text: str) -> Counter:
    found: Counter = Counter()
    target = None
    for line in text.splitlines():
        heading = _HEADING_LINE.match(line)
        if heading:
            target = heading.group(1)
            continue
        match = _REPORT_LINE.match(line)
        if match:
            found[(match.group(1), match.group(3), target)] += 1
    return found


def _structured_multiset(text: str) -> Counter:
    found: Counter = Counter()
    for line in text.splitlines():
        record = json.loads(line)
        found[(record["code"], record["subject"], record["target"])] += 1
    return found


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_exits_with_errors_when_errors_exist(setting_paths, capsys):
    code = main(["analyze", str(setting_paths["iv"])])
    out = capsys.readouterr().out
    assert code == ExitClass.ERRORS.value
    assert "published work E" in out
    assert "published work F" in out


def test_analyze_exits_with_warnings_on_notice_and_warning_findings(
    setting_paths, capsys
):
    code = main(["analyze", str(setting_paths["i"])])
    out = capsys.readouterr().out
    assert code == ExitClass.WARNINGS.value
    assert "published work E" in out
    assert "published work F" in out


def test_analyze_exits_with_warnings_when_only_warnings_exist(setting_paths, capsys):
    code = main(["analyze", str(setting_paths["ii"])])
    out = capsys.readouterr().out
    assert code == ExitClass.WARNINGS.value
    assert "W1" in out
    assert " 0 errors" in out


def test_analyze_exits_clean_on_a_clean_workflow(tmp_path, capsys):
    path = tmp_path / "clean.mgw"
    path.write_text(CLEAN_WORKFLOW, encoding="utf-8")
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == ExitClass.CLEAN.value
    assert "no findings" in out


def test_a_workflow_without_a_publish_action_has_nothing_to_analyze(tmp_path, capsys):
    path = tmp_path / "unpublished.mgw"
    path.write_text(CLEAN_WORKFLOW.split("\nmg:P ")[0], encoding="utf-8")
    printed = {}
    for mode in ("human", "structured", "dot"):
        assert main(["analyze", str(path), "--output", mode]) == ExitClass.CLEAN.value
        printed[mode] = capsys.readouterr().out
    assert printed["human"] == f"{DISCLAIMER}\nno published works to analyze\n"
    assert printed["structured"] == ""
    assert printed["dot"] == (
        'digraph workflow {\n  "M" [label="Clean Model\\nmodel/weights\\nMG0"];\n}\n'
    )


def test_human_output_carries_the_disclaimer_exactly_once(setting_paths, capsys):
    main(["analyze", str(setting_paths["i"])])
    out = capsys.readouterr().out
    assert out.count(DISCLAIMER) == 1


def test_structured_output_is_json_lines_without_the_disclaimer(
    setting_paths, capsys
):
    code = main(["analyze", str(setting_paths["i"]), "--output", "structured"])
    out = capsys.readouterr().out
    assert code == ExitClass.WARNINGS.value
    assert DISCLAIMER not in out
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"code", "severity", "subject", "target", "content"}


# Quotes, backslashes, control characters, non-ASCII, line and paragraph
# separators and lone surrogates, each of which `json.dumps` escapes.
_escaped_text = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\ud800", "\udfff"])
    | st.characters(exclude_categories=())
)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(ReportCode), _escaped_text, _escaped_text, _escaped_text)
def test_a_structured_line_is_the_json_dump_of_its_report(code, subject, target, content):
    report = Report(code, subject, target, content)
    expected = json.dumps(
        {
            "code": report.code.name,
            "severity": report.severity.value,
            "subject": report.subject,
            "target": report.target,
            "content": report.content,
        }
    )
    assert cli._structured_line(report) == expected


@pytest.mark.parametrize("key", ["i", "ii", "iii", "iv", "free", "llama", "relicense"])
def test_structured_and_human_reports_agree(key, setting_paths, capsys):
    main(["analyze", str(setting_paths[key]), "--output", "structured"])
    structured = _structured_multiset(capsys.readouterr().out)
    main(["analyze", str(setting_paths[key])])
    human = _human_multiset(capsys.readouterr().out)
    assert structured == human


@pytest.mark.parametrize("key", ["i", "ii", "iii", "iv", "free", "llama", "relicense"])
def test_fuzz_off_never_adds_findings(key, setting_paths, capsys):
    main(["analyze", str(setting_paths[key]), "--output", "structured"])
    fuzz_on = _structured_multiset(capsys.readouterr().out)
    main(
        ["analyze", str(setting_paths[key]), "--output", "structured",
         "--fuzz", "off"]
    )
    fuzz_off = _structured_multiset(capsys.readouterr().out)
    assert all(fuzz_off[key] <= fuzz_on[key] for key in fuzz_off)


def test_target_limits_the_analysis(setting_paths, capsys):
    code = main(
        ["analyze", str(setting_paths["iv"]), "--target", "E",
         "--output", "structured"]
    )
    out = capsys.readouterr().out
    assert code == ExitClass.ERRORS.value
    targets = {json.loads(line)["target"] for line in out.strip().splitlines()}
    assert targets == {"E"}


def test_target_must_be_a_published_work(setting_paths, capsys):
    code = main(["analyze", str(setting_paths["i"]), "--target", "C"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "licflow: error:" in err


def test_an_empty_target_is_not_a_published_work(setting_paths, capsys):
    code = main(["analyze", str(setting_paths["i"]), "--target", ""])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "licflow: error: work '' is not the output of a publish action\n"
    )


def test_a_closed_stdout_is_one_usage_error_without_a_traceback(setting_paths):
    env = dict(os.environ, PYTHONPATH=str(Path(licflow.__file__).parents[1]))
    # Buffered stdout, as a shell pipe gives it, holds the output until exit.
    for name in (KB_ENV_VAR, "PYTHONUNBUFFERED"):
        env.pop(name, None)

    def run(args: list[str], stdout) -> tuple[int, str]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "licflow.cli", *args],
            env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
        )
        if proc.stdout is not None:
            # The reader goes away before the first write.
            proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=60), err

    for args in (
        ["analyze", str(setting_paths["i"]), "--output", "structured"],
        ["validate", str(setting_paths["i"])],
        ["licenses"],
        ["explain", "E6"],
    ):
        runs = [run(args, subprocess.PIPE)]
        # A full disk fails every write as well.
        if os.path.exists("/dev/full"):
            with open("/dev/full", "w") as full:
                runs.append(run(args, full))
        for code, err in runs:
            assert code == EXIT_USAGE, (args, err)
            assert "Traceback" not in err, args
            assert err.startswith("licflow: error: cannot write output: "), args
            assert err.count("\n") == 1, args


def test_dot_output_renders_the_reasoned_graph(setting_paths, capsys):
    code = main(["analyze", str(setting_paths["i"]), "--output", "dot"])
    out = capsys.readouterr().out
    assert code == ExitClass.WARNINGS.value
    assert out.startswith("digraph workflow {")
    assert out.endswith("}\n")
    assert DISCLAIMER not in out
    assert "style=solid" in out


def test_analyze_rejects_a_malformed_workflow(tmp_path, capsys):
    path = tmp_path / "broken.mgw"
    path.write_text("this is not a workflow\n", encoding="utf-8")
    code = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "licflow: error:" in err


def test_a_cycle_error_names_the_same_input_under_every_hash_seed(fixtures_dir):
    # The merge's inputs C, D and B all lie downstream of its output; the
    # first in declared order is named, whatever order a set would give.
    env = dict(os.environ, PYTHONPATH=str(Path(licflow.__file__).parents[1]))
    runs = set()
    for seed in range(6):
        env["PYTHONHASHSEED"] = str(seed)
        done = subprocess.run(
            [sys.executable, "-m", "licflow.cli", "analyze",
             str(fixtures_dir / "cyclic.mgw")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        runs.add((done.returncode, done.stdout, done.stderr))
    assert runs == {
        (
            EXIT_USAGE,
            "",
            "licflow: error: action 'merge': output 'O' already feeds input 'C'\n",
        )
    }


def _published_copies(targets: int) -> str:
    """A licensed model, copied and published `targets` times."""
    copies = [f"C{i}" for i in range(targets)]
    graph = graph_of(
        [work("M", license="MIT")]
        + [work(wid) for wid in copies]
        + [work(f"P{i}") for i in range(targets)],
        [action(f"copy{wid}", ActionKind.COPY, ["M"], wid) for wid in copies]
        + [publish(f"pub{i}", wid, f"P{i}") for i, wid in enumerate(copies)],
    )
    return serialize_graph(graph)


def test_whole_graph_grouping_happens_once_per_verdict(tmp_path, monkeypatch, capsys):
    counts = []
    for targets in (10, 20):
        path = tmp_path / f"copies{targets}.mgw"
        path.write_text(_published_copies(targets), encoding="utf-8")
        calls: Counter = Counter()
        with monkeypatch.context() as patch:
            for original in (model.edge_parents, reasoner._pin_round):
                name = original.__name__

                def counting(*args, original=original, name=name):
                    calls[name] += 1
                    return original(*args)

                for module in (model, reasoner, analyzer):
                    if getattr(module, name, None) is original:
                        patch.setattr(module, name, counting)
            main(["analyze", str(path), "--output", "structured"])
        lines = capsys.readouterr().out.splitlines()
        assert {json.loads(line)["target"] for line in lines} == {
            f"P{i}" for i in range(targets)
        }
        counts.append(calls)
    assert counts[0]["edge_parents"] > 0 and counts[0]["_pin_round"] > 0
    assert counts[0] == counts[1]


def _member_lookups(path: Path, output: str, monkeypatch) -> int:
    """Enum members read from their class during one `licflow analyze` of the file."""
    meta = type(ActionKind)  # `EnumMeta` on Python 3.10, `EnumType` after
    lookup, found = meta.__getattribute__, []

    def counting(cls, name):
        value = lookup(cls, name)
        if isinstance(value, cls):
            found.append(name)
        return value

    with monkeypatch.context() as patch:
        patch.setattr(meta, "__getattribute__", counting)
        main(["analyze", str(path), "--output", output])
    return len(found)


def _published_chain(steps: int) -> WorkflowGraph:
    graph = copy_chain(steps, "GPL-3.0")
    add_work(graph, code_work("OUT"))
    add_action(graph, publish("pub", f"C{steps:04d}", "OUT", publish_form=WorkForm.CODE))
    return graph


def test_a_verdict_reads_no_enum_member_per_record(tmp_path, monkeypatch, capsys):
    # On Python 3.10 and 3.11 each `Enum.MEMBER` read calls the metaclass's
    # `__getattr__` hook, so code run once per work, action, input, edge,
    # ruling, request or report line decides by tables or by members bound
    # once: a verdict reads as many members from their classes at any size.
    for small, large in ((_published_chain(40), _published_chain(80)),
                         (diamond_ladder(4), diamond_ladder(8))):
        for output in ("structured", "human"):
            counts = []
            for size, graph in (("small", small), ("large", large)):
                path = tmp_path / f"{size}.mgw"
                path.write_text(serialize_graph(graph), encoding="utf-8")
                counts.append(_member_lookups(path, output, monkeypatch))
                assert capsys.readouterr().err == ""
            assert 0 < counts[0] == counts[1], output


def _name_and_value_reads(path: Path, output: str, monkeypatch) -> int:
    """Enum members' `name` and `value` read during one `licflow analyze` of the file."""
    descriptor = type(vars(Enum)["name"])  # `types.DynamicClassAttribute` on 3.10
    read, found = descriptor.__get__, []

    def counting(self, instance, owner=None):
        if instance is not None:
            found.append(self)
        return read(self, instance, owner)

    with monkeypatch.context() as patch:
        patch.setattr(descriptor, "__get__", counting)
        main(["analyze", str(path), "--output", output])
    return len(found)


def test_a_verdict_reads_no_enum_name_or_value_per_record(tmp_path, monkeypatch, capsys):
    # Each is a Python-level property call: report lines take their heads,
    # edges their sort keys and actions their usages from tables instead.
    for output in ("human", "structured"):
        counts = []
        for rungs in (4, 8):
            path = tmp_path / f"ladder-{rungs}.mgw"
            path.write_text(serialize_graph(diamond_ladder(rungs)), encoding="utf-8")
            counts.append(_name_and_value_reads(path, output, monkeypatch))
            assert capsys.readouterr().err == ""
        assert counts[0] == counts[1], output


def test_one_verdict_reads_each_works_relicensing_terms_once(
    tmp_path, setting_paths, monkeypatch, capsys
):
    # `determine_licenses` settles every work once; the request stage and
    # the analysis read its record instead of settling the work again.
    generated = tmp_path / "generated.mgw"
    generated.write_text(serialize_graph(random_graph(3, max_works=24)), encoding="utf-8")
    calls, spans = [], []
    settle, determine = reasoner._licensing, reasoner.determine_licenses

    def counting(work, *args):
        calls.append(work.id)
        return settle(work, *args)

    def spanned(*args):
        start = len(calls)
        try:
            return determine(*args)
        finally:
            spans.append((start, len(calls)))

    monkeypatch.setattr(reasoner, "_licensing", counting)
    monkeypatch.setattr(reasoner, "determine_licenses", spanned)
    for path in [*sorted(setting_paths.values()), generated]:
        works = parse_workflow(path.read_text(encoding="utf-8")).works
        calls.clear()
        spans.clear()
        main(["analyze", str(path), "--output", "structured"])
        assert capsys.readouterr().out, path.name
        [(start, end)] = spans
        assert sorted(calls[start:end]) == sorted(works), path.name
        assert len(calls) == end, path.name


def _misspelt(license_id: str) -> str:
    return license_id.replace("0", "O") if "0" in license_id else license_id.lower()


def test_every_misspelt_license_id_of_a_fixture_is_refused(
    tmp_path, setting_paths, seed_kb, capsys
):
    # The reasoner skips ids it does not know, so a library caller would
    # be told a target is clean; `run_all` refuses them as the CLI does.
    cases: Counter = Counter()
    for path in sorted(setting_paths.values()):
        text = path.read_text(encoding="utf-8")
        graph = parse_workflow(text)
        spots = [(wid, "works") for wid, w in graph.works.items() if w.license]
        spots += [
            (aid, "actions")
            for aid, a in graph.actions.items()
            if a.license_to_register
        ]
        for item_id, kind in spots:
            graph = parse_workflow(text)
            item = getattr(graph, kind)[item_id]
            if kind == "works":
                item.license = typo = _misspelt(item.license)
                message = f"work '{item_id}' declares unknown license '{typo}'"
            else:
                item.license_to_register = typo = _misspelt(item.license_to_register)
                message = f"action '{item_id}' registers unknown license '{typo}'"
            assert typo not in seed_kb.licenses
            with pytest.raises(licflow.UnknownLicense) as raised:
                licflow.run_all(graph, seed_kb)
            assert str(raised.value) == message, (path.name, item_id)
            misspelt = tmp_path / path.name
            misspelt.write_text(serialize_graph(graph), encoding="utf-8")
            assert main(["analyze", str(misspelt)]) == EXIT_USAGE
            assert capsys.readouterr() == ("", f"licflow: error: {message}\n")
            cases[kind] += 1
    # Each fixture that parses is covered, so both kinds of id are reached.
    assert cases == {"works": 11, "actions": 1}, cases


def test_every_type_form_mismatch_of_a_fixture_is_refused(
    tmp_path, setting_paths, seed_kb, capsys
):
    # Reasoning past an E1 would hand a library caller findings, or a clean
    # target, that `licflow analyze` never prints: `run_all` refuses the
    # workflow, and the CLI still prints its validation section and exits 2.
    cases = 0
    for path in sorted(setting_paths.values()):
        text = path.read_text(encoding="utf-8")
        for wid in sorted(parse_workflow(text).works):
            graph = parse_workflow(text)
            work = graph.works[wid]
            # A new type keeps the form every publish action names for it.
            work.work_type = next(t for t in WorkType if not form_is_valid(t, work.form))
            expected = validate_graph(graph)
            assert [r.subject for r in expected] == [wid]
            with pytest.raises(licflow.InvalidWorkflow) as raised:
                licflow.run_all(graph, seed_kb)
            assert isinstance(raised.value, licflow.GraphError)
            assert raised.value.reports == expected
            assert str(raised.value) == f"work '{wid}': {expected[0].content}"
            copied = pickle.loads(pickle.dumps(raised.value))
            assert (copied.reports, str(copied)) == (expected, str(raised.value))
            mismatched = tmp_path / path.name
            mismatched.write_text(serialize_graph(graph), encoding="utf-8")
            line = {
                "code": "E1",
                "severity": "error",
                "subject": wid,
                "target": wid,
                "content": expected[0].content,
            }
            printed = {
                "human": f"{DISCLAIMER}\nworkflow validation failed\n"
                f"  E1 (error) subject {wid}: {line['content']}\n"
                "  total: 1 errors, 0 warnings, 0 notices\n",
                "structured": json.dumps(line) + "\n",
                "dot": export_dot(parse_workflow(mismatched.read_text("utf-8")), expected),
            }
            for mode, out in printed.items():
                code = main(["analyze", str(mismatched), "--output", mode])
                assert (code, capsys.readouterr()) == (ExitClass.ERRORS.value, (out, ""))
            cases += 1
    # Every work of every fixture that parses.
    assert cases == 41, cases
    # Unknown ids are refused first, as `licflow analyze` reports them first.
    graph.works[wid].license = "No-Such-License"
    with pytest.raises(licflow.UnknownLicense):
        licflow.run_all(graph, seed_kb)


def test_the_parsed_graph_is_freed_before_analysis(setting_paths, monkeypatch, capsys):
    # Only the reasoned copy is read after `run_all`; keeping the parsed
    # graph alive as well raises the verdict's peak memory.
    parsed, alive = [], []

    def reasoning(graph, *rest):
        parsed.append(weakref.ref(graph))
        return reasoner.run_all(graph, *rest)

    def analysing(*args):
        alive.append(parsed[0]() is not None)
        return analyzer.analyze_publication(*args)

    monkeypatch.setattr(cli, "run_all", reasoning)
    monkeypatch.setattr(cli, "analyze_publication", analysing)
    assert main(["analyze", str(setting_paths["iv"]), "--output", "structured"]) > 0
    capsys.readouterr()
    assert alive and not any(alive)


@contextmanager
def _collector(enabled: bool):
    """The cyclic collector switched on or off, then put back as found."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _usage_failures(tmp_path: Path, setting_paths) -> list[tuple[list[str], str]]:
    """Each kind of exit-3 failure of `analyze`, with the one line it prints."""
    workflow = str(setting_paths["i"])
    misspelt = tmp_path / "misspelt.mgw"
    text = setting_paths["i"].read_text(encoding="utf-8")
    misspelt.write_text(text.replace('"AGPL-3.0"', '"AGPL-3.O"'), encoding="utf-8")
    latin1 = tmp_path / "latin1.mgw"
    latin1.write_bytes(CLEAN_WORKFLOW.replace("Clean", "Cl\xe9an").encode("latin-1"))
    broken = tmp_path / "broken.mgw"
    broken.write_text("@prefix mg: <urn:licflow:v1#> .\nmg:W a mg:Work", encoding="utf-8")
    rules = tmp_path / "malformed.mgl"
    rules.write_text("[profile]\nid = Custom-1\n", encoding="utf-8")
    absent, no_kb = tmp_path / "absent.mgw", tmp_path / "absent-kb"
    return [
        (["analyze", workflow, "--target", "nosuch"],
         "work 'nosuch' is not the output of a publish action"),
        (["analyze", str(misspelt)], "work 'A' declares unknown license 'AGPL-3.O'"),
        (["analyze", str(absent)], f"[Errno 2] No such file or directory: '{absent}'"),
        (["analyze", str(tmp_path)], f"[Errno 21] Is a directory: '{tmp_path}'"),
        (["analyze", str(latin1)],
         f"cannot read {latin1}: 'utf-8' codec can't decode byte 0xe9 in position 64: "
         "invalid continuation byte"),
        (["analyze", str(broken)], "line 2, column 15: expected punctuation, found ''"),
        (["analyze", str(setting_paths["i"].parent / "cyclic.mgw")],
         "action 'merge': output 'O' already feeds input 'C'"),
        (["analyze", workflow, "--kb", str(no_kb)],
         f"no such rules file or directory: {no_kb}"),
        (["analyze", workflow, "--kb", str(rules)], f"{rules} [profile]: missing key 'name'"),
    ]


def test_each_usage_failure_prints_its_one_line(tmp_path, setting_paths, capsys):
    for args, message in _usage_failures(tmp_path, setting_paths):
        assert main(args) == EXIT_USAGE, args
        assert capsys.readouterr() == ("", f"licflow: error: {message}\n"), args


@pytest.mark.parametrize("collecting", [True, False])
def test_a_verdict_runs_with_the_collector_paused_and_main_restores_it(
    collecting, tmp_path, setting_paths, monkeypatch, capsys
):
    # A verdict builds no reference cycles, so `main` pauses the cyclic
    # collector while the subcommand runs, and puts back the state it found.
    clean = tmp_path / "clean.mgw"
    clean.write_text(CLEAN_WORKFLOW, encoding="utf-8")
    seen, fail = [], cli._fail

    def reasoning(*args):
        seen.append(gc.isenabled())
        return reasoner.run_all(*args)

    def failing(message):
        seen.append(gc.isenabled())
        return fail(message)

    monkeypatch.setattr(cli, "run_all", reasoning)
    monkeypatch.setattr(cli, "_fail", failing)
    calls = [
        (["analyze", str(clean)], ExitClass.CLEAN.value),
        (["analyze", str(setting_paths["ii"])], ExitClass.WARNINGS.value),
        (["analyze", str(setting_paths["iv"])], ExitClass.ERRORS.value),
    ]
    failures = _usage_failures(tmp_path, setting_paths)
    calls += [(args, EXIT_USAGE) for args, _ in failures]
    with _collector(collecting):
        for args, expected in calls:
            seen.clear()
            assert main(args) == expected, args
            assert seen == [False], args
            assert gc.isenabled() is collecting, args
    assert capsys.readouterr().err.count("licflow: error:") == len(failures)


def test_a_subcommand_that_raises_still_restores_the_collector(
    setting_paths, monkeypatch, capsys
):
    # Only licflow's own errors are usage failures; any other exception,
    # a bare ValueError too, is a fault that must surface, not exit 3.
    for error in (RuntimeError, ValueError, KeyError):

        def raising(*args, error=error):
            assert not gc.isenabled()
            raise error("reasoner failed")

        monkeypatch.setattr(cli, "run_all", raising)
        with _collector(True):
            with pytest.raises(error, match="reasoner failed"):
                main(["analyze", str(setting_paths["i"])])
            assert gc.isenabled()
        assert capsys.readouterr() == ("", ""), error


def test_no_verdict_leaves_cyclic_garbage(tmp_path, fixtures_dir, setting_paths):
    # With the collector paused, reference counting alone frees a verdict;
    # a cycle built by any subcommand would stay behind as garbage.
    generated = []
    for seed in range(20):
        path = tmp_path / f"generated-{seed}.mgw"
        path.write_text(serialize_graph(random_graph(seed, max_works=12)), encoding="utf-8")
        generated.append(str(path))
    ladder = tmp_path / "ladder.mgw"
    ladder.write_text(serialize_graph(diamond_ladder(6)), encoding="utf-8")
    calls = [
        ["analyze", str(path), "--output", mode, "--fuzz", fuzz]
        for path in sorted(fixtures_dir.glob("*.mgw"))
        for mode in ("human", "structured", "dot")
        for fuzz in ("on", "off")
    ]
    verdicts = [["analyze", path, "--output", "structured"] for path in generated]
    calls += verdicts
    calls += [["analyze", str(ladder)], ["validate", str(setting_paths["iv"])]]
    calls += [["licenses"], ["explain", "E6"], ["explain", "E99"]]
    calls += [args for args, _ in _usage_failures(tmp_path, setting_paths)]
    with _collector(False):
        gc.collect()
        for args in calls:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(args)
            # A generated workflow parses, so its verdict runs to the end.
            assert args not in verdicts or code in (0, 1, 2), args
        assert gc.collect() == 0


def test_analyze_rejects_a_missing_file(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "absent.mgw")])
    assert code == EXIT_USAGE
    assert "licflow: error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_a_workflow_that_is_not_utf8_is_a_usage_failure(command, tmp_path, capsys):
    path = tmp_path / "latin1.mgw"
    path.write_bytes(CLEAN_WORKFLOW.replace("Clean", "Cl\xe9an").encode("latin-1"))
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"licflow: error: cannot read {path}: 'utf-8' codec" in err


@pytest.mark.parametrize("command", [["licenses"], ["analyze", "unread.mgw"]])
def test_a_rules_file_that_is_not_utf8_is_a_usage_failure(command, tmp_path, capsys):
    path = tmp_path / "latin1.mgl"
    path.write_bytes(CUSTOM_PROFILE.replace("One", "\xd8ne").encode("latin-1"))
    code = main(command + ["--kb", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"licflow: error: cannot read {path}: 'utf-8' codec" in err


def test_a_rules_directory_that_cannot_be_listed_is_a_usage_failure(
    tmp_path, monkeypatch, capsys
):
    # Loading no rules from it would call every license the workflow names unknown.
    def denied(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(os, "listdir", denied)
    code = main(["licenses", "--kb", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == f"licflow: error: [Errno 13] Permission denied: '{tmp_path}'\n"


def test_analyze_rejects_a_literal_class(tmp_path, capsys):
    path = tmp_path / "literal.mgw"
    path.write_text(
        '@prefix mg: <urn:licflow:v1#> .\nmg:X a "Work" .\n', encoding="utf-8"
    )
    code = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "licflow: error: class of 'X' must be an identifier" in err


def test_analyze_rejects_an_unknown_declared_license(
    setting_paths, tmp_path, capsys
):
    # Unknown ids would otherwise be skipped by every check and turn
    # this E9/W2 workflow into a clean one.
    path = tmp_path / "misspelt.mgw"
    path.write_text(
        setting_paths["llama"].read_text().replace('"Llama2"', '"Lama2"'),
        encoding="utf-8",
    )
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "work 'L' declares unknown license 'Lama2'" in captured.err


def test_analyze_rejects_an_unknown_registered_license(tmp_path, capsys):
    path = tmp_path / "register.mgw"
    path.write_text(
        CLEAN_WORKFLOW
        + """
mg:R a mg:Work ;
   mg:name "Relicensed" ;
   mg:workType "model" ;
   mg:workForm "weights" .

mg:reg a mg:RegisterLicenseAction ;
   mg:hasInput mg:M ;
   mg:hasOutput mg:R ;
   mg:registersLicense "No-Such-License" .
""",
        encoding="utf-8",
    )
    code = main(["analyze", str(path)])
    assert code == EXIT_USAGE
    assert (
        "action 'reg' registers unknown license 'No-Such-License'"
        in capsys.readouterr().err
    )


def test_analyze_stops_on_structural_failures(tmp_path, capsys):
    path = tmp_path / "mismatch.mgw"
    path.write_text(MISMATCHED_WORKFLOW, encoding="utf-8")
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == ExitClass.ERRORS.value
    assert "workflow validation failed" in out
    assert "E1" in out


def test_an_unpublished_target_is_refused_before_structural_checks(
    tmp_path, capsys
):
    path = tmp_path / "mismatch.mgw"
    path.write_text(MISMATCHED_WORKFLOW, encoding="utf-8")
    code = main(["analyze", str(path), "--target", "nosuch"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "licflow: error: work 'nosuch' is not the output of a publish action\n"
    )


SOLD_LIBRARY = """\
@prefix mg: <urn:licflow:v1#> .

mg:L a mg:Work ;
   mg:name "Library" ;
   mg:workType "software" ;
   mg:workForm "code" ;
   mg:hasLicense "GPL-3.0" .

mg:M a mg:Work ;
   mg:name "Modified" ;
   mg:workType "software" ;
   mg:workForm "code" .

mg:P a mg:Work ;
   mg:name "Product" ;
   mg:workType "software" ;
   mg:workForm "code" .

mg:tune a mg:ModifyAction ;
   mg:hasInput mg:L ;
   mg:hasOutput mg:M .

mg:sell a mg:PublishAction ;
   mg:hasInput mg:M ;
   mg:hasOutput mg:P ;
   mg:publishManner "sell" .
"""


def test_a_root_marked_derived_keeps_its_license(tmp_path, capsys):
    # No action makes L, so its license is not the reasoner's to derive:
    # an origin line written by hand does not take GPL-3.0 away from it.
    marked = SOLD_LIBRARY.replace(
        'mg:hasLicense "GPL-3.0" .', 'mg:hasLicense "GPL-3.0" ;\n   mg:origin "derived" .'
    )
    found = []
    for text in (SOLD_LIBRARY, marked):
        path = tmp_path / "sold.mgw"
        path.write_text(text, encoding="utf-8")
        code = main(["analyze", str(path), "--output", "structured"])
        found.append((code, _structured_multiset(capsys.readouterr().out)))
    assert found[0] == found[1]
    code, reports = found[0]
    assert code == ExitClass.WARNINGS.value
    assert {c for c, _, _ in reports} == {"W5", "N1", "N2", "N3"}


def test_dot_output_of_a_structural_failure_is_a_graph(tmp_path, capsys):
    path = tmp_path / "mismatch.mgw"
    path.write_text(MISMATCHED_WORKFLOW, encoding="utf-8")
    code = main(["analyze", str(path), "--output", "dot"])
    out = capsys.readouterr().out
    assert code == ExitClass.ERRORS.value
    assert out.startswith("digraph workflow {")
    assert out.endswith("}\n")
    assert '"W" [label="Odd One\\nmodel/text\\n[E1]"];' in out
    assert DISCLAIMER not in out


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_a_workflow_may_start_with_a_byte_order_mark(
    command, setting_paths, tmp_path, capsys
):
    main([command, str(setting_paths["i"]), "--output", "structured"])
    plain = capsys.readouterr()
    path = tmp_path / "bom.mgw"
    path.write_bytes(b"\xef\xbb\xbf" + setting_paths["i"].read_bytes())
    code = main([command, str(path), "--output", "structured"])
    assert code != EXIT_USAGE
    assert capsys.readouterr() == plain


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_passes_a_well_formed_workflow(setting_paths, capsys):
    code = main(["validate", str(setting_paths["i"])])
    out = capsys.readouterr().out
    assert code == ExitClass.CLEAN.value
    assert "no findings" in out
    assert out.count(DISCLAIMER) == 1


def test_validate_reports_type_form_mismatches(tmp_path, capsys):
    path = tmp_path / "mismatch.mgw"
    path.write_text(MISMATCHED_WORKFLOW, encoding="utf-8")
    code = main(["validate", str(path), "--output", "structured"])
    out = capsys.readouterr().out
    assert code == ExitClass.ERRORS.value
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["code"] for r in records] == ["E1"]
    assert records[0]["subject"] == "W"


def test_validate_rejects_a_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.mgw"
    path.write_text("@prefix mg: <urn:licflow:v1#> .\nmg:W a mg:Work", "utf-8")
    assert main(["validate", str(path)]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_an_integer_too_long_to_convert_is_a_syntax_error(command, tmp_path, capsys):
    # Python refuses to convert strings of more digits than its limit,
    # which `PYTHONINTMAXSTRDIGITS` sets; the default is taken here.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        path = tmp_path / "long.mgw"
        literal = "9" * 4301
        path.write_text(
            f"@prefix mg: <urn:licflow:v1#> .\nmg:A a mg:Work ; mg:name {literal} .\n",
            encoding="utf-8",
        )
        assert main([command, str(path)]) == EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)
    assert capsys.readouterr() == (
        "", "licflow: error: line 2, column 26: integer literal too long\n"
    )


# ---------------------------------------------------------------------------
# licenses
# ---------------------------------------------------------------------------


def test_licenses_lists_the_bundled_knowledge_base(capsys):
    code = main(["licenses"])
    out = capsys.readouterr().out
    assert code == ExitClass.CLEAN.value
    assert "GPL-3.0" in out
    assert "Llama2" in out
    assert "framework=" in out


def test_kb_env_var_replaces_the_bundled_set(tmp_path, monkeypatch, capsys):
    (tmp_path / "custom.mgl").write_text(CUSTOM_PROFILE, encoding="utf-8")
    monkeypatch.setenv(KB_ENV_VAR, str(tmp_path))
    code = main(["licenses"])
    out = capsys.readouterr().out
    assert code == ExitClass.CLEAN.value
    assert "Custom-1" in out
    assert "GPL-3.0" not in out


def test_kb_flag_wins_over_the_env_var(tmp_path, monkeypatch, capsys):
    (tmp_path / "custom.mgl").write_text(CUSTOM_PROFILE, encoding="utf-8")
    monkeypatch.setenv(KB_ENV_VAR, str(tmp_path))
    code = main(["licenses", "--kb", str(bundled_rules_dir())])
    out = capsys.readouterr().out
    assert code == ExitClass.CLEAN.value
    assert "GPL-3.0" in out
    assert "Custom-1" not in out


def test_analyze_honors_the_kb_env_var(tmp_path, monkeypatch, capsys):
    # With only the custom profile loaded, the seed id MG0 is unknown and
    # Custom-1 is known; the bundled set says the opposite.
    (tmp_path / "custom.mgl").write_text(CUSTOM_PROFILE, encoding="utf-8")
    monkeypatch.setenv(KB_ENV_VAR, str(tmp_path))
    seed_licensed = tmp_path / "seed.mgw"
    seed_licensed.write_text(CLEAN_WORKFLOW, encoding="utf-8")
    custom_licensed = tmp_path / "custom.mgw"
    custom_licensed.write_text(
        CLEAN_WORKFLOW.replace('"MG0"', '"Custom-1"'), encoding="utf-8"
    )
    assert main(["analyze", str(seed_licensed)]) == EXIT_USAGE
    assert "unknown license 'MG0'" in capsys.readouterr().err
    assert main(["analyze", str(custom_licensed)]) == ExitClass.WARNINGS.value
    assert "subject M" in capsys.readouterr().out


def test_a_bad_kb_path_is_a_usage_failure(tmp_path, capsys):
    # A name longer than the file system allows may fail the lookup itself;
    # that is a read failure, not a failure to write the output.
    for path in (tmp_path / "absent", tmp_path / ("k" * 300)):
        code = main(["licenses", "--kb", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("licflow: error:") and "cannot write output" not in err


def test_an_empty_kb_path_is_refused_not_read_as_the_working_directory(
    tmp_path, monkeypatch, setting_paths, capsys
):
    # `Path("")` is `.`: read as a path, the empty string loads the .mgl files here.
    (tmp_path / "mit.mgl").write_bytes((bundled_rules_dir() / "mit.mgl").read_bytes())
    monkeypatch.chdir(tmp_path)
    for argv in (["licenses", "--kb", ""], ["analyze", str(setting_paths["i"]), "--kb", ""]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "licflow: error: the rules path is empty\n"
    with pytest.raises(licflow.ParseError, match="the rules path is empty"):
        licflow.load_kb([bundled_rules_dir(), ""])
    # An empty environment variable is unset, not an empty path.
    monkeypatch.setenv(KB_ENV_VAR, "")
    assert main(["licenses"]) == ExitClass.CLEAN.value
    assert "GPL-3.0" in capsys.readouterr().out


def test_fuzz_is_an_analyze_option_only(capsys):
    assert main(["licenses", "--fuzz", "off"]) == EXIT_USAGE
    assert "unrecognized arguments: --fuzz off" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code_text", ALL_CODES)
def test_explain_covers_every_report_code(code_text, capsys):
    code = main(["explain", code_text])
    out = capsys.readouterr().out
    assert code == ExitClass.CLEAN.value
    assert code_text in out


def test_explain_shows_the_severity(capsys):
    main(["explain", "E2"])
    assert "(error)" in capsys.readouterr().out
    main(["explain", "N1"])
    assert "(notice)" in capsys.readouterr().out


def test_explain_rejects_unknown_codes(capsys):
    code = main(["explain", "Z9"])
    assert code == EXIT_USAGE
    assert "licflow: error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_a_usage_failure(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_failure(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == ExitClass.CLEAN.value
    assert "analyze" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# one parser for every call
# ---------------------------------------------------------------------------


def _in_process(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_one_parser_serves_many_calls_without_leaking_options(
    tmp_path, setting_paths, monkeypatch, capsys
):
    monkeypatch.delenv(KB_ENV_VAR, raising=False)
    (tmp_path / "custom.mgl").write_text(CUSTOM_PROFILE, encoding="utf-8")
    workflow = str(setting_paths["i"])
    every_target = _in_process(["analyze", workflow], capsys)
    headings = [line for line in every_target[1].splitlines() if _HEADING_LINE.match(line)]
    assert headings == ["published work E", "published work F"]

    custom = _in_process(["licenses", "--kb", str(tmp_path)], capsys)[1]
    assert "Custom-1" in custom and "GPL-3.0" not in custom
    bundled = _in_process(["licenses"], capsys)[1]
    assert "GPL-3.0" in bundled and "Custom-1" not in bundled
    assert _in_process(["analyze", workflow, "--kb", str(tmp_path)], capsys)[0] == EXIT_USAGE
    assert _in_process(["analyze", workflow], capsys) == every_target

    one_target = _in_process(["analyze", workflow, "--target", "F"], capsys)[1]
    assert "published work E" not in one_target and "published work F" in one_target
    assert _in_process(["analyze", workflow], capsys) == every_target

    fuzz_off = _in_process(["analyze", workflow, "--fuzz", "off"], capsys)
    assert fuzz_off != every_target
    assert _in_process(["analyze", workflow], capsys) == every_target

    assert _in_process(["analyze", workflow, "--output", "xml"], capsys)[0] == EXIT_USAGE
    assert _in_process(["analyze", "--help"], capsys)[0] == ExitClass.CLEAN.value
    assert _in_process(["--help"], capsys)[0] == ExitClass.CLEAN.value
    assert _in_process(["analyze", workflow], capsys) == every_target


def _fresh(args: list[str], env: dict[str, str]) -> tuple[int, str, str]:
    done = subprocess.run(
        [sys.executable, "-m", "licflow.cli", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_every_in_process_call_prints_what_a_fresh_interpreter_prints(
    tmp_path, fixtures_dir, monkeypatch, capsys
):
    monkeypatch.delenv(KB_ENV_VAR, raising=False)
    env = dict(os.environ, PYTHONPATH=str(Path(licflow.__file__).parents[1]))
    env.pop(KB_ENV_VAR, None)
    calls = [
        ["analyze", str(path), "--output", mode]
        for path in sorted(fixtures_dir.glob("*.mgw"))
        for mode in ("human", "structured", "dot")
    ]
    # Two interpreters at a time, one per call.
    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = list(pool.map(lambda args: _fresh(args, env), calls))
    (tmp_path / "custom.mgl").write_text(CUSTOM_PROFILE, encoding="utf-8")
    # Each call in this process follows one that set other options or
    # stopped inside the parser.
    detours = [
        ["--kb", str(tmp_path)],
        ["--target", "F"],
        ["--fuzz", "off"],
        ["--output", "xml"],
        ["--help"],
    ]
    for index, (args, expected) in enumerate(zip(calls, fresh)):
        _in_process(args + detours[index % len(detours)], capsys)
        assert _in_process(args, capsys) == expected, args
