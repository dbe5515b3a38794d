"""The package's public names, and the seams the benchmark looks up by name."""

from __future__ import annotations

import ast
import importlib
import json
import types
from collections import Counter
from pathlib import Path

import licflow
from licflow import cli, interchange, parse_workflow, published_targets, reasoner

BENCH = Path(__file__).resolve().parents[1] / "bench"

PUBLIC = [
    "ActionInput",
    "ActionKind",
    "ActionNode",
    "AnalysisResult",
    "ArityViolation",
    "CycleIntroduced",
    "DEFAULT_LICENSE",
    "DanglingReference",
    "DependencyEdge",
    "DoubleProducer",
    "DuplicateId",
    "DuplicateLicenseId",
    "EdgeKind",
    "ExitClass",
    "FixpointStats",
    "GraphError",
    "InputRole",
    "InterchangeError",
    "InvalidWorkflow",
    "KBError",
    "KnowledgeBase",
    "LicenseFramework",
    "LicenseProfile",
    "NotPublished",
    "Origin",
    "OutputDefinition",
    "ParseError",
    "PublishManner",
    "RelicensePolicy",
    "Report",
    "ReportCode",
    "RequestRecord",
    "Requirement",
    "Restriction",
    "Revocability",
    "Rule",
    "RulingRecord",
    "SemanticError",
    "Severity",
    "UnknownLicense",
    "UnknownTerm",
    "UnknownWork",
    "Usage",
    "Work",
    "WorkForm",
    "WorkType",
    "WorkflowGraph",
    "WorkflowSyntaxError",
    "add_action",
    "add_work",
    "analyze_publication",
    "bundled_rules_dir",
    "dependency_closure",
    "derive_compositional",
    "export_dot",
    "generalize_output_typing",
    "load_kb",
    "parse_workflow",
    "published_targets",
    "run_all",
    "serialize_graph",
    "validate_graph",
]

WORKFLOW = """\
@prefix mg: <urn:licflow:v1#> .

mg:M a mg:Work ;
   mg:name "Model" ;
   mg:workType "model" ;
   mg:workForm "weights" .
"""


def test_the_package_root_exports_exactly_the_public_names():
    assert sorted(licflow.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(licflow, name)


def test_every_name_the_benchmark_imports_from_the_root_is_public():
    imported = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "licflow":
                imported.update(alias.name for alias in node.names)
    modules = {
        n for n in imported if isinstance(getattr(licflow, n, None), types.ModuleType)
    }
    assert {"serialize_graph", "dependency_closure"} <= imported
    assert sorted(imported - modules - set(licflow.__all__)) == []


def test_every_seam_the_traced_benchmark_replaces_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing._WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert callable(cli.run_all)
    assert callable(cli.bundled_rules_dir)
    for stage in (
        "derive_compositional",
        "derive_rulings",
        "determine_licenses",
        "derive_requests",
    ):
        assert callable(getattr(reasoner, stage))
    assert reasoner.FixpointStats(records_created=3).records_created == 3
    assert len(interchange.parse_document(WORKFLOW).statements) == 4


def _counting(calls: Counter, name: str, original):
    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


def test_every_seam_the_traced_benchmark_replaces_runs_in_a_verdict(monkeypatch, capsys):
    # A seam that is still there but no longer called would read 0 in its
    # per-layer metric, and the traced run would not notice.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    seams = {f"{module.__name__}.{attr}": (module, attr) for module, attr, _ in tracing._WRAPPED}
    seams["licflow.cli.run_all"] = (cli, "run_all")
    calls: Counter = Counter()
    for name, (module, attr) in seams.items():
        monkeypatch.setattr(module, attr, _counting(calls, name, getattr(module, attr)))
    path = Path(__file__).parent / "fixtures" / "setting-i.mgw"
    targets = published_targets(parse_workflow(path.read_text(encoding="utf-8")))
    assert len(targets) == 2
    code = cli.main(["analyze", str(path), "--output", "structured"])
    assert code == licflow.ExitClass.WARNINGS.value
    lines = capsys.readouterr().out.splitlines()
    assert {json.loads(line)["target"] for line in lines} == set(targets)
    per_target = {name for name in seams if ".check_" in name}
    per_target.add("licflow.cli.analyze_publication")
    assert len(per_target) == 5
    for name in seams:
        if name in per_target:
            assert calls[name] == len(targets), name
        else:
            assert calls[name] >= 1, name
