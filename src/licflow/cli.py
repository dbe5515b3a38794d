"""Command-line front end.

Subcommands: analyze (full pipeline on a workflow file), validate
(parse and structural checks only), licenses (knowledge base listing),
explain (report code reference). Exit codes: 0 clean, 1 warnings only,
2 errors, 3 usage or input failure, including license ids unknown to the
loaded knowledge base.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional

from .analyzer import (
    AnalysisIndex,
    ExitClass,
    analyze_publication,
    exit_class_of,
    published_targets,
)
from .interchange import InterchangeError, export_dot, parse_workflow
from .kb import KBError, KnowledgeBase, bundled_rules_dir, load_kb
from .model import GraphError, WorkflowGraph, validate_graph
from .reasoner import run_all
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
    return load_kb([Path(p) for p in paths])


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise InterchangeError(f"cannot read {path}: {err}") from err


def _fail(message: str) -> int:
    print(f"licflow: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _structured_line(report: Report) -> str:
    return json.dumps(
        {
            "code": report.code.name,
            "severity": report.severity.value,
            "subject": report.subject,
            "target": report.target,
            "content": report.content,
        }
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


def _print_reports_human(reports: list[Report], heading: Optional[str]) -> None:
    if heading is not None:
        print(heading)
    if not reports:
        print("  no findings")
        return
    _print_lines(reports, _human_line)
    severities = [report.code.severity for report in reports]
    order = (Severity.ERROR, Severity.WARNING, Severity.NOTICE)
    counts = [severities.count(severity) for severity in order]
    print("  total: {} errors, {} warnings, {} notices".format(*counts))


def _unknown_licenses(graph: WorkflowGraph, kb: KnowledgeBase) -> list[str]:
    """Each declared or registered license id the loaded KB does not know."""
    unknown = [
        f"work '{wid}' declares unknown license '{work.license}'"
        for wid, work in sorted(graph.works.items())
        if work.license is not None and work.license not in kb.licenses
    ]
    unknown += [
        f"action '{aid}' registers unknown license '{action.license_to_register}'"
        for aid, action in sorted(graph.actions.items())
        if action.license_to_register is not None
        and action.license_to_register not in kb.licenses
    ]
    return unknown


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        kb = _load_kb(args)
    except (KBError, OSError) as err:
        return _fail(str(err))
    try:
        graph = parse_workflow(_read_file(args.workflow))
    except (InterchangeError, GraphError, OSError) as err:
        return _fail(str(err))
    # The reasoner skips licenses it does not know, so an unknown id
    # would silently drop every finding it should have raised.
    unknown = _unknown_licenses(graph, kb)
    if unknown:
        return _fail("; ".join(unknown))

    structural = validate_graph(graph)
    if structural:
        if args.output == "structured":
            _print_lines(structural, _structured_line)
        else:
            if args.output == "human":
                print(DISCLAIMER)
            _print_reports_human(structural, "workflow validation failed")
        return ExitClass.ERRORS.value

    reasoned, _stats = run_all(graph, kb, args.fuzz == "on")
    targets = published_targets(reasoned)
    if args.target is not None:
        if args.target not in targets:
            return _fail(f"work '{args.target}' is not the output of a publish action")
        targets = [args.target]
    # Each target is analysed as its output is written, so the reports of
    # every target are never held at once.
    index = AnalysisIndex(reasoned, kb)
    results = (analyze_publication(reasoned, kb, t, index) for t in targets)

    if args.output == "dot":
        reports = sort_reports([r for result in results for r in result.reports])
        print(export_dot(reasoned, reports), end="")
        return exit_class_of(reports).value

    if args.output == "human":
        print(DISCLAIMER)
        if not targets:
            print("no published works to analyze")
    worst = ExitClass.CLEAN
    for result in results:
        worst = max(worst, result.exit_class, key=lambda c: c.value)
        if args.output == "structured":
            _print_lines(result.reports, _structured_line)
        else:
            _print_reports_human(result.reports, f"published work {result.target}")
    return worst.value


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        graph = parse_workflow(_read_file(args.workflow))
    except (InterchangeError, GraphError, OSError) as err:
        return _fail(str(err))
    reports = validate_graph(graph)
    if args.output == "structured":
        _print_lines(reports, _structured_line)
    else:
        print(DISCLAIMER)
        _print_reports_human(reports, f"validation of {args.workflow}")
    return (ExitClass.ERRORS if reports else ExitClass.CLEAN).value


def cmd_licenses(args: argparse.Namespace) -> int:
    try:
        kb = _load_kb(args)
    except (KBError, OSError) as err:
        return _fail(str(err))
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else ExitClass.CLEAN.value
    try:
        code = args.run(args)
        # Written output is buffered; a closed reader must fail here, not at exit.
        sys.stdout.flush()
    except BrokenPipeError as err:
        # Interpreter exit flushes stdout again, so point it where writes succeed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(f"cannot write output: {err}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
