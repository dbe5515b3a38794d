"""Command-line front end.

Subcommands: analyze (full pipeline on a workflow file), validate
(parse and structural checks only), licenses (knowledge base listing),
explain (report code reference). Exit codes: 0 clean, 1 warnings only,
2 errors, 3 usage or input failure, including license ids unknown to the
loaded knowledge base.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Iterable, Optional

from .analyzer import (
    AnalysisIndex,
    ExitClass,
    NotPublished,
    analyze_publication,
    exit_class_of,
    published_targets,
)
from .interchange import InterchangeError, export_dot, parse_workflow
from .kb import KBError, KnowledgeBase, bundled_rules_dir, load_kb
from .model import GraphError, WorkflowGraph, validate_graph
from .reasoner import refuse_unknown_licenses, run_all
from .reports import Report, Severity, parse_code, render, sort_reports

# Usage and input failures; results exit with their `ExitClass` value.
EXIT_USAGE = 3

KB_ENV_VAR = "LICFLOW_KB"

DISCLAIMER = (
    "note: automated license analysis, not legal advice; "
    "review findings with counsel before relying on them."
)


def _load_kb(args: argparse.Namespace) -> KnowledgeBase:
    paths = args.kb or [os.environ.get(KB_ENV_VAR) or bundled_rules_dir()]
    try:
        return load_kb([Path(p) for p in paths])
    except OSError as err:
        raise KBError(str(err)) from err


def _read_workflow(path: str) -> WorkflowGraph:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as err:
        raise InterchangeError(f"cannot read {path}: {err}") from err
    except OSError as err:
        raise InterchangeError(str(err)) from err
    return parse_workflow(text)


def _fail(message: str) -> int:
    print(f"licflow: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _structured_line(r: Report) -> str:
    """`json.dumps` of the report's five keys, each string quoted by its encoder."""
    return (
        f'{{"code": {_quote(r.code.name)}, "severity": {_quote(r.severity.value)}, '
        f'"subject": {_quote(r.subject)}, "target": {_quote(r.target)}, '
        f'"content": {_quote(r.content)}}}'
    )


def _human_line(r: Report) -> str:
    return f"  {r.code.name} ({r.severity.value}) subject {r.subject}: {r.content}"


def _print_lines(reports: list[Report], line: Callable[[Report], str]) -> None:
    """One line per report; the analyzer repeats one object for equal findings."""
    lines, previous, text = [], None, ""
    for report in reports:
        if report is not previous:
            previous, text = report, line(report)
        lines.append(text)
    if lines:
        print("\n".join(lines))


def _print_sections(
    sections: Iterable[tuple[str, list[Report], ExitClass]], output: str, empty: str = ""
) -> int:
    """Each (heading, reports, exit class) in human or structured form; the worst code."""
    if output == "human":
        print(DISCLAIMER)
        if empty:
            print(empty)
    worst = ExitClass.CLEAN
    for heading, reports, exit_class in sections:
        worst = max(worst, exit_class, key=lambda c: c.value)
        if output == "structured":
            _print_lines(reports, _structured_line)
            continue
        print(heading)
        if not reports:
            print("  no findings")
            continue
        _print_lines(reports, _human_line)
        severities = [report.code.severity for report in reports]
        order = (Severity.ERROR, Severity.WARNING, Severity.NOTICE)
        counts = [severities.count(severity) for severity in order]
        print("  total: {} errors, {} warnings, {} notices".format(*counts))
    return worst.value


def cmd_analyze(args: argparse.Namespace) -> int:
    kb = _load_kb(args)
    graph = _read_workflow(args.workflow)
    # `run_all` refuses unknown ids too; they are reported first here.
    refuse_unknown_licenses(graph, kb)
    targets = published_targets(graph)
    if args.target is not None:
        if args.target not in targets:
            raise NotPublished(f"work '{args.target}' is not the output of a publish action")
        targets = [args.target]

    structural = validate_graph(graph)
    if structural:
        sections = [("workflow validation failed", structural, ExitClass.ERRORS)]
    else:
        # The parsed graph is not needed once reasoned; rebinding frees it.
        graph, _stats = run_all(graph, kb, args.fuzz == "on")
        # Each target is analysed as its output is written, so the reports of
        # every target are never held at once.
        index = AnalysisIndex(graph, kb)
        results = (analyze_publication(graph, kb, t, index) for t in targets)
        sections = ((f"published work {r.target}", r.reports, r.exit_class) for r in results)

    if args.output == "dot":
        reports = sort_reports([r for _, found, _ in sections for r in found])
        print(export_dot(graph, reports), end="")
        return exit_class_of(reports).value
    empty = "" if structural or targets else "no published works to analyze"
    return _print_sections(sections, args.output, empty)


def cmd_validate(args: argparse.Namespace) -> int:
    reports = validate_graph(_read_workflow(args.workflow))
    heading = f"validation of {args.workflow}"
    return _print_sections([(heading, reports, exit_class_of(reports))], args.output)


def cmd_licenses(args: argparse.Namespace) -> int:
    kb = _load_kb(args)
    print(DISCLAIMER)
    for license_id in sorted(kb.licenses):
        profile = kb.licenses[license_id]
        stance = "copyleft" if profile.copyleft else "permissive"
        types = ",".join(sorted(t.value for t in profile.intended_types))
        print(
            f"{profile.id}  framework={profile.framework.value}  {stance}  "
            f"types={types}  rules={len(profile.rules)}"
        )
    return ExitClass.CLEAN.value


def cmd_explain(args: argparse.Namespace) -> int:
    try:
        code = parse_code(args.code)
    except ValueError as err:
        return _fail(str(err))
    print(DISCLAIMER)
    print(f"{code.name} ({code.severity.value}): {render(code, '?work')}")
    return ExitClass.CLEAN.value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="licflow",
        description="License-aware analysis of machine learning workflows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--kb",
            action="append",
            default=[],
            metavar="PATH",
            help="license knowledge base file or directory (repeatable; "
            f"default ${KB_ENV_VAR} or the bundled set)",
        )
        p.add_argument(
            "--fuzz",
            choices=["on", "off"],
            default="on",
            help="widen form matching from concrete forms to their category",
        )

    analyze = sub.add_parser("analyze", help="reason over a workflow and report")
    analyze.set_defaults(run=cmd_analyze)
    analyze.add_argument("workflow", help="workflow file to analyze")
    add_common(analyze)
    analyze.add_argument(
        "--output", choices=["human", "structured", "dot"], default="human"
    )
    analyze.add_argument(
        "--target", metavar="WORK", help="published work to analyze (default: all)"
    )

    validate = sub.add_parser("validate", help="parse and structurally check")
    validate.set_defaults(run=cmd_validate)
    validate.add_argument("workflow", help="workflow file to validate")
    validate.add_argument(
        "--output", choices=["human", "structured"], default="human"
    )

    licenses = sub.add_parser("licenses", help="list the loaded license profiles")
    licenses.set_defaults(run=cmd_licenses)
    add_common(licenses)

    explain = sub.add_parser("explain", help="describe one report code")
    explain.set_defaults(run=cmd_explain)
    explain.add_argument("code", help="report code, e.g. E2 or W1")

    return parser


# Built once, at import: each parse makes a fresh namespace, so no call
# sees another's options.
_PARSER = _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else ExitClass.CLEAN.value
    # Reference counting frees every record of a verdict, which builds no
    # cycles, so the cyclic collector would only rescan the growing heap.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.run(args)
        # Written output is buffered; a closed reader must fail here, not at exit.
        sys.stdout.flush()
    except (KBError, InterchangeError, GraphError, NotPublished) as err:
        return _fail(str(err))
    except OSError as err:
        # Reads fail as licflow errors, so this is a closed pipe or a full
        # disk. Interpreter exit flushes stdout again, so point it where
        # writes succeed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(f"cannot write output: {err}")
    finally:
        if collecting:
            gc.enable()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
