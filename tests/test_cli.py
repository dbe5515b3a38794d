"""Command-line behavior: subcommands, exit codes, output formats."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import licflow
from licflow import ActionKind, ExitClass, bundled_rules_dir, serialize_graph
from licflow import analyzer, model, reasoner
from licflow.cli import DISCLAIMER, EXIT_USAGE, KB_ENV_VAR, main

from _helpers import action, graph_of, publish, work

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


@pytest.mark.parametrize("key", ["i", "ii", "iii", "iv", "free", "llama"])
def test_structured_and_human_reports_agree(key, setting_paths, capsys):
    main(["analyze", str(setting_paths[key]), "--output", "structured"])
    structured = _structured_multiset(capsys.readouterr().out)
    main(["analyze", str(setting_paths[key])])
    human = _human_multiset(capsys.readouterr().out)
    assert structured == human


@pytest.mark.parametrize("key", ["i", "ii", "iii", "iv", "free", "llama"])
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
    proc = subprocess.Popen(
        [sys.executable, "-m", "licflow.cli", "analyze", str(setting_paths["i"]),
         "--output", "structured"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # The reader goes away before the first write.
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert "Traceback" not in err
    assert err.startswith("licflow: error: ")
    assert err.count("\n") == 1


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
            for original in (model.edge_parents, reasoner.rulings_by_work):
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
    assert counts[0]["edge_parents"] > 0 and counts[0]["rulings_by_work"] > 0
    assert counts[0] == counts[1]


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
    code = main(["licenses", "--kb", str(tmp_path / "absent")])
    assert code == EXIT_USAGE
    assert "licflow: error:" in capsys.readouterr().err


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
