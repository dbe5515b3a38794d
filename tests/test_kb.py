"""Knowledge base loading, rule matching, and compatibility."""

from __future__ import annotations

import os
import re
import threading
from collections import Counter
from pathlib import Path

import pytest

from licflow import (
    ActionKind,
    DanglingReference,
    DuplicateLicenseId,
    ParseError,
    Requirement,
    Restriction,
    Revocability,
    UnknownLicense,
    Usage,
    WorkForm,
    bundled_rules_dir,
    load_kb,
)
from licflow import kb as kb_module
from licflow.kb import (
    _PROFILE_KEYS,
    _RULE_KEYS,
    match_rules,
    usage_requirement,
)

from _helpers import kb_of, profile, rule

MINIMAL_PROFILE = """\
[profile]
id = Test-1
name = Test License One
framework = model_license
intended_types = model
permissive = true
compatible_with = Test-1
"""

RULE_BLOCK = """\
[rule]
id = Test-1-main-rule
trigger_actions = modify, train
trigger_input_forms = weights
trigger_output_forms = weights, exe
output_def = derivative
relicense = none
publish_restrictions = include_license
use_restrictions = use_behavior
"""


def _write_kb(tmp_path: Path, text: str, name: str = "test-1.mgl") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _load_single(tmp_path: Path, text: str):
    return load_kb([_write_kb(tmp_path, text)])


# ---------------------------------------------------------------------------
# Loader happy path
# ---------------------------------------------------------------------------


def test_minimal_profile_loads(tmp_path):
    kb = _load_single(tmp_path, MINIMAL_PROFILE)
    prof = kb.profile("Test-1")
    assert prof.name == "Test License One"
    assert prof.permissive and not prof.copyleft
    assert prof.revocable is Revocability.UNSTATED
    assert prof.granted == set() and prof.reserved == set()
    assert prof.compatible_with == {"Test-1"}
    assert prof.rules == []


def test_profile_with_rule_and_metadata_loads(tmp_path):
    text = (
        MINIMAL_PROFILE
        + "revocable = no\n"
        + "granted = use, modify\n"
        + "reserved = commercial\n"
        + "meta.clarity = 3.5\n"
        + "meta.note = anything goes here\n"
        + RULE_BLOCK
    )
    kb = _load_single(tmp_path, text)
    prof = kb.profile("Test-1")
    assert prof.metadata == {"clarity": "3.5", "note": "anything goes here"}
    assert prof.granted == {Usage.USE, Usage.MODIFY}
    assert prof.reserved == {Usage.COMMERCIAL}
    assert len(prof.rules) == 1
    main = kb.rules["Test-1-main-rule"]
    assert main.license == "Test-1"
    assert main.trigger_actions == {ActionKind.MODIFY, ActionKind.TRAIN}
    assert main.trigger_input_forms == {WorkForm.WEIGHTS}
    assert main.trigger_output_forms == {WorkForm.WEIGHTS, WorkForm.EXE}
    assert main.publish_restrictions == {Restriction.INCLUDE_LICENSE}
    assert main.use_restrictions == {Restriction.USE_BEHAVIOR}
    assert main.allow_sharing is True
    assert main.fuzz_only is False


def test_directory_loading_picks_up_every_mgl_file(tmp_path):
    _write_kb(tmp_path, MINIMAL_PROFILE, "one.mgl")
    _write_kb(
        tmp_path,
        MINIMAL_PROFILE.replace("Test-1", "Test-2"),
        "two.mgl",
    )
    (tmp_path / "ignored.txt").write_text("not rules", encoding="utf-8")
    kb = load_kb([tmp_path])
    assert set(kb.licenses) == {"Test-1", "Test-2"}


def test_a_directory_loads_each_entry_named_mgl_in_name_order(tmp_path):
    # Hidden names load too, and the suffix is matched case by case.
    for name, license_id in (("b.mgl", "Test-1"), ("a.mgl", "Test-2"), (".c.mgl", "Test-3"),
                             ("Z.mgl", "Test-4"), ("X.MGL", "Test-5"), ("y.mgl.txt", "Test-6")):
        _write_kb(tmp_path, MINIMAL_PROFILE.replace("Test-1", license_id), name)
    assert list(load_kb([tmp_path]).licenses) == ["Test-3", "Test-4", "Test-2", "Test-1"]


def test_a_directory_named_as_a_rules_file_cannot_be_read(tmp_path):
    (tmp_path / "d.mgl").mkdir()
    with pytest.raises(ParseError, match=re.escape(f"cannot read {tmp_path / 'd.mgl'}: ")):
        load_kb([tmp_path])


# ---------------------------------------------------------------------------
# Loader error branches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutation",
    [
        "[weird]\n",
        "stray = entry\n[profile]\nid = X\n",
        MINIMAL_PROFILE + "no equals sign here\n",
        MINIMAL_PROFILE + "name = twice\n",
        MINIMAL_PROFILE + "unknown_key = value\n",
        MINIMAL_PROFILE.replace("name = Test License One\n", ""),
        MINIMAL_PROFILE.replace("model_license", "bogus_framework"),
        MINIMAL_PROFILE.replace("intended_types = model", "intended_types = person"),
        MINIMAL_PROFILE + "revocable = maybe\n",
        MINIMAL_PROFILE + "granted = use, fly\n",
        MINIMAL_PROFILE + "granted = use\nreserved = use\n",
        MINIMAL_PROFILE + "copyleft = true\n",
        MINIMAL_PROFILE.replace("permissive = true\n", ""),
        MINIMAL_PROFILE.replace(
            "compatible_with = Test-1", "compatible_with = Test-9"
        ),
        MINIMAL_PROFILE + "sublicense_waived_by_auto_relicense = yes\n",
        RULE_BLOCK + MINIMAL_PROFILE,
        MINIMAL_PROFILE + "[profile]\nid = Test-2\n",
    ],
)
def test_malformed_profile_is_rejected(tmp_path, mutation):
    with pytest.raises(ParseError):
        _load_single(tmp_path, mutation)


@pytest.mark.parametrize(
    "mutation",
    [
        RULE_BLOCK + "surprise = key\n",
        RULE_BLOCK.replace("output_def = derivative\n", ""),
        RULE_BLOCK.replace("trigger_actions = modify, train", "trigger_actions ="),
        RULE_BLOCK.replace("modify, train", "modify, dance"),
        RULE_BLOCK.replace("trigger_input_forms = weights", "trigger_input_forms = blob"),
        RULE_BLOCK.replace("derivative", "something_else"),
        RULE_BLOCK.replace("relicense = none", "relicense = sometimes"),
        RULE_BLOCK.replace(
            "publish_restrictions = include_license",
            "publish_restrictions = use_behavior",
        ),
        RULE_BLOCK.replace(
            "use_restrictions = use_behavior",
            "use_restrictions = include_license",
        ),
        RULE_BLOCK + "allow_sharing = maybe\n",
        RULE_BLOCK + "fuzz_only = true\n",
    ],
)
def test_malformed_rule_is_rejected(tmp_path, mutation):
    with pytest.raises(ParseError):
        _load_single(tmp_path, MINIMAL_PROFILE + mutation)


def _without(text: str, key: str) -> str:
    lines = text.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(f"{key} =")]
    assert len(kept) == len(lines) - 1
    return "".join(kept)


# Files with two faults each, and the one that is reported: unknown and
# missing keys first, then each value in field order, then the checks
# that relate one field to another.
@pytest.mark.parametrize(
    "text, message",
    [
        (
            MINIMAL_PROFILE + "revocable = maybe\ncopyleft = perhaps\n",
            "[profile] copyleft: expected true or false, got 'perhaps'",
        ),
        (
            MINIMAL_PROFILE
            + RULE_BLOCK.replace("derivative", "sculpture")
            + "colour = blue\n",
            "[rule Test-1-main-rule]: unknown key 'colour'",
        ),
        (
            MINIMAL_PROFILE
            + RULE_BLOCK.replace("modify, train", "").replace("none", "sometimes"),
            "[rule Test-1-main-rule] relicense: unknown token 'sometimes'",
        ),
        (
            _without(MINIMAL_PROFILE, "name") + "revocable = maybe\n",
            "[profile]: missing key 'name'",
        ),
        # A bad value in an earlier field still comes after a missing key.
        (
            _without(MINIMAL_PROFILE, "intended_types").replace(
                "model_license", "bogus_framework"
            ),
            "[profile]: missing key 'intended_types'",
        ),
        (
            MINIMAL_PROFILE
            + _without(RULE_BLOCK, "relicense").replace("derivative", "sculpture"),
            "[rule Test-1-main-rule]: missing key 'relicense'",
        ),
    ],
    ids=[
        "values-in-field-order",
        "unknown-key-first",
        "values-before-cross-field-checks",
        "missing-key-first",
        "missing-key-before-an-earlier-bad-value",
        "missing-rule-key-before-an-earlier-bad-value",
    ],
)
def test_the_first_of_two_rules_file_faults_is_reported(tmp_path, text, message):
    path = _write_kb(tmp_path, text)
    with pytest.raises(ParseError) as exc:
        load_kb([path])
    assert str(exc.value) == f"{path} {message}"


@pytest.mark.parametrize("key", ["id", "name", "framework", "intended_types"])
def test_a_profile_without_a_required_key_names_it(tmp_path, key):
    with pytest.raises(ParseError, match=re.escape(f"missing key '{key}'")):
        _load_single(tmp_path, _without(MINIMAL_PROFILE, key))


@pytest.mark.parametrize(
    "key",
    [
        "id",
        "trigger_actions",
        "trigger_input_forms",
        "trigger_output_forms",
        "output_def",
        "relicense",
    ],
)
def test_a_rule_without_a_required_key_names_it(tmp_path, key):
    with pytest.raises(ParseError, match=re.escape(f"missing key '{key}'")):
        _load_single(tmp_path, MINIMAL_PROFILE + _without(RULE_BLOCK, key))


def test_the_rules_file_keys_are_the_profile_and_rule_fields():
    assert _PROFILE_KEYS | _RULE_KEYS == {
        "id",
        "name",
        "framework",
        "intended_types",
        "copyleft",
        "permissive",
        "revocable",
        "granted",
        "reserved",
        "sublicense_waived_by_auto_relicense",
        "compatible_with",
        "trigger_actions",
        "trigger_input_forms",
        "trigger_output_forms",
        "output_def",
        "relicense",
        "publish_restrictions",
        "use_restrictions",
        "allow_sharing",
        "fuzz_only",
    }


def test_fuzz_only_rule_with_bare_forms_loads(tmp_path):
    text = MINIMAL_PROFILE + RULE_BLOCK.replace(
        "trigger_input_forms = weights", "trigger_input_forms = raw"
    ).replace(
        "trigger_output_forms = weights, exe", "trigger_output_forms = raw"
    ) + "fuzz_only = true\n"
    kb = _load_single(tmp_path, text)
    assert kb.rules["Test-1-main-rule"].fuzz_only is True


def test_a_file_that_is_not_utf8_is_rejected_by_name(tmp_path):
    path = tmp_path / "latin1.mgl"
    path.write_bytes(MINIMAL_PROFILE.replace("One", "\xd8ne").encode("latin-1"))
    with pytest.raises(ParseError, match=re.escape(f"cannot read {path}: 'utf-8'")):
        load_kb([path])


def test_a_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.mgl"
    path.write_bytes(b"\xef\xbb\xbf" + (MINIMAL_PROFILE + RULE_BLOCK).encode())
    plain = _load_single(tmp_path, MINIMAL_PROFILE + RULE_BLOCK)
    assert load_kb([path]) == plain


def _reads(monkeypatch, paths: list[Path]) -> tuple[Counter, int]:
    """How often `load_kb` opens each file, and how often it calls `_fault`."""
    opened, faults, fault = Counter(), [], kb_module._fault

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return open(file, *args, **kwargs)

    def counting_fault(*args):
        faults.append(args)
        return fault(*args)

    with monkeypatch.context() as patch:
        patch.setattr(kb_module, "open", counting_open, raising=False)
        patch.setattr(kb_module, "_fault", counting_fault)
        try:
            load_kb(paths)
        except ParseError:
            pass
    return opened, len(faults)


def test_each_rules_file_is_opened_once_and_a_sound_one_is_never_reread(
    tmp_path, monkeypatch
):
    # `_fault` words a faulty section's fault from what the one loop read;
    # a sound file never needs it.
    rewritten, doubled, bad = tmp_path / "rewritten", tmp_path / "doubled", tmp_path / "bad"
    edits = {doubled: "copyleft = false\n" * 2, bad: "copyleft = maybe\n"}
    for copy in (rewritten, *edits):
        copy.mkdir()
    for path in sorted(bundled_rules_dir().glob("*.mgl")):
        text = path.read_text(encoding="utf-8")
        (rewritten / path.name).write_bytes(("\ufeff" + text.replace("\n", "\r\n")).encode())
        for copy, edit in edits.items():
            edited = text.replace("copyleft = false\n", edit) if path.name == "mit.mgl" else text
            (copy / path.name).write_text(edited, encoding="utf-8")
    for copy in (bundled_rules_dir(), rewritten):
        opened, reads = _reads(monkeypatch, [copy])
        assert opened == Counter(str(path) for path in copy.glob("*.mgl")) and reads == 0
    assert load_kb([rewritten]) == load_kb([bundled_rules_dir()])
    # Loading stops at the first faulty file, which is opened once as well.
    for copy in (doubled, bad):
        opened, reads = _reads(monkeypatch, [copy])
        assert set(opened.values()) == {1} and str(copy / "mit.mgl") in opened
        assert reads == (1 if copy == bad else 0)
    with pytest.raises(ParseError, match=re.escape(f"{doubled / 'mit.mgl'}:9: duplicate key")):
        load_kb([doubled])
    with pytest.raises(ParseError, match=re.escape(f"{bad / 'mit.mgl'} [profile] copyleft:")):
        load_kb([bad])


def test_a_rules_path_that_is_a_pipe_is_read_as_one_file(tmp_path):
    # Such as a shell's `<(cat mit.mgl)`: it exists, but is neither a
    # directory nor a regular file.
    text = MINIMAL_PROFILE + RULE_BLOCK
    fifo = tmp_path / "pipe.mgl"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        loaded = load_kb([fifo])
    finally:  # frees the writer if nothing opened the pipe to read it
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert loaded == _load_single(tmp_path, text)


def test_missing_path_is_rejected():
    with pytest.raises(ParseError):
        load_kb(["/nonexistent/rules"])


def test_duplicate_license_across_files_is_rejected(tmp_path):
    _write_kb(tmp_path, MINIMAL_PROFILE, "one.mgl")
    _write_kb(tmp_path, MINIMAL_PROFILE, "two.mgl")
    with pytest.raises(DuplicateLicenseId):
        load_kb([tmp_path])


def test_duplicate_rule_id_is_rejected(tmp_path):
    with pytest.raises(ParseError):
        _load_single(tmp_path, MINIMAL_PROFILE + RULE_BLOCK + RULE_BLOCK)


def test_a_rule_of_another_license_is_a_dangling_reference():
    stray = rule("Other-1-rule", "Other-1", [ActionKind.MODIFY])
    message = "rule 'Other-1-rule' belongs to 'Other-1', not 'Test-1'"
    with pytest.raises(DanglingReference, match=re.escape(message)):
        kb_of(profile("Test-1", rules=[stray]))


def test_dangling_compatibility_reference_is_rejected(tmp_path):
    text = MINIMAL_PROFILE.replace(
        "compatible_with = Test-1", "compatible_with = Test-1, Ghost-1"
    )
    with pytest.raises(DanglingReference):
        _load_single(tmp_path, text)


def test_unknown_license_query_raises(seed_kb):
    with pytest.raises(UnknownLicense):
        seed_kb.profile("No-Such-License")


# ---------------------------------------------------------------------------
# Usage requirements
# ---------------------------------------------------------------------------


def test_usage_requirement_tiers():
    kb = kb_of(
        profile("L", granted={Usage.USE}, reserved={Usage.COMMERCIAL}),
    )
    assert usage_requirement(kb, "L", Usage.USE) is Requirement.GRANTED
    assert usage_requirement(kb, "L", Usage.COMMERCIAL) is Requirement.RESERVED
    assert usage_requirement(kb, "L", Usage.MODIFY) is Requirement.NOT_STATED


def test_sublicense_waiver_short_circuits_even_a_reservation():
    kb = kb_of(
        profile(
            "L",
            granted={Usage.USE},
            reserved={Usage.SUBLICENSE},
            sublicense_waived=True,
        ),
    )
    assert usage_requirement(kb, "L", Usage.SUBLICENSE) is Requirement.WAIVED


# ---------------------------------------------------------------------------
# Rule matching
# ---------------------------------------------------------------------------


def _match_kb():
    return kb_of(
        profile(
            "L",
            rules=[
                rule(
                    "L-exact",
                    "L",
                    [ActionKind.MODIFY],
                    in_forms=[WorkForm.WEIGHTS],
                    out_forms=[WorkForm.WEIGHTS],
                ),
                rule(
                    "L-bare",
                    "L",
                    [ActionKind.GENERATE],
                    in_forms=[WorkForm.RAW],
                    out_forms=[WorkForm.RAW],
                ),
                rule(
                    "L-fuzzy",
                    "L",
                    [ActionKind.COPY],
                    in_forms=[WorkForm.RAW],
                    out_forms=[WorkForm.SERVICE],
                    fuzz_only=True,
                ),
            ],
        )
    )


def test_exact_form_match_fires_without_fuzz():
    kb = _match_kb()
    hits = match_rules(
        kb, "L", ActionKind.MODIFY, WorkForm.WEIGHTS, WorkForm.WEIGHTS, fuzz=False
    )
    assert [r.id for r in hits] == ["L-exact"]


def test_wrong_action_kind_never_fires():
    kb = _match_kb()
    assert (
        match_rules(kb, "L", ActionKind.TRAIN, WorkForm.WEIGHTS, WorkForm.WEIGHTS)
        == []
    )


def test_fuzz_widens_concrete_triggers_to_their_category():
    kb = _match_kb()
    off = match_rules(
        kb, "L", ActionKind.MODIFY, WorkForm.CODE, WorkForm.WEIGHTS, fuzz=False
    )
    on = match_rules(
        kb, "L", ActionKind.MODIFY, WorkForm.CODE, WorkForm.WEIGHTS, fuzz=True
    )
    assert off == []
    assert [r.id for r in on] == ["L-exact"]


def test_bare_trigger_covers_its_category_without_fuzz():
    kb = _match_kb()
    hits = match_rules(
        kb, "L", ActionKind.GENERATE, WorkForm.TEXT, WorkForm.CORPUS, fuzz=False
    )
    assert [r.id for r in hits] == ["L-bare"]


def test_categories_never_mix_even_with_fuzz():
    kb = _match_kb()
    assert (
        match_rules(kb, "L", ActionKind.MODIFY, WorkForm.EXE, WorkForm.WEIGHTS, fuzz=True)
        == []
    )
    assert (
        match_rules(kb, "L", ActionKind.GENERATE, WorkForm.TEXT, WorkForm.SAAS, fuzz=True)
        == []
    )


def test_fuzz_only_rules_sit_out_exact_runs():
    kb = _match_kb()
    off = match_rules(kb, "L", ActionKind.COPY, WorkForm.TEXT, WorkForm.SAAS, fuzz=False)
    on = match_rules(kb, "L", ActionKind.COPY, WorkForm.TEXT, WorkForm.SAAS, fuzz=True)
    assert off == []
    assert [r.id for r in on] == ["L-fuzzy"]


def test_match_rules_unknown_license_raises():
    kb = _match_kb()
    with pytest.raises(UnknownLicense):
        match_rules(kb, "Ghost", ActionKind.COPY, WorkForm.RAW, WorkForm.RAW)
