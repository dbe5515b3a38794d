"""The package's public names, and the seams the benchmark looks up by name."""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import licflow
from licflow import cli, interchange, reasoner

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
