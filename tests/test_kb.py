"""Knowledge base loading, rule matching, and compatibility."""

from __future__ import annotations

import re
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
    load_kb,
)
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
