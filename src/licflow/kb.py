"""License knowledge bases: profiles, encoded rules, and compatibility.

A knowledge base is loaded from one or more ``.mgl`` files. Each file
declares a single license profile followed by the rules encoded from the
license text. Each token is the value of the enum it becomes. A file is
read in one loop, and its sections are built once the loop is done. Only
its first fault is reported: a line fault, in line order, then a misplaced
section, then each section's own fault in turn.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import (
    Optional,
    Sequence,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from .model import ActionKind, WorkForm, WorkType


class KBError(ValueError):
    """Base class for knowledge base failures."""


class ParseError(KBError):
    """A rules file is malformed or uses an unknown token."""


class DanglingReference(KBError):
    """A profile or rule refers to a license id that is not in the KB."""


class DuplicateLicenseId(KBError):
    """Two profiles claim the same license id."""


class UnknownLicense(KBError):
    """A query names a license id that is not in the knowledge base."""


class Usage(Enum):
    __hash__ = object.__hash__  # by identity, as the model's hot enums
    USE = "use"
    MODIFY = "modify"
    REDISTRIBUTE = "redistribute"
    SUBLICENSE = "sublicense"
    COMMERCIAL = "commercial"
    RELICENSE = "relicense"


class Requirement(Enum):
    """How a license answers a request for one usage right."""

    __hash__ = object.__hash__
    GRANTED = "granted"
    RESERVED = "reserved"
    NOT_STATED = "not_stated"
    WAIVED = "waived"


class OutputDefinition(Enum):
    DERIVATIVE = "derivative"
    INDEPENDENT = "independent"
    VERBATIM_COPY = "verbatim_copy"
    GENERATED_OUTPUT = "generated_output"
    NO_DEFINITION = "no_definition"


class RelicensePolicy(Enum):
    __hash__ = object.__hash__
    NONE_ALLOWED = "none"
    COMPATIBLE_ONLY = "compatible"
    ANY = "any"


class Restriction(Enum):
    __hash__ = object.__hash__
    INCLUDE_LICENSE = "include_license"
    INCLUDE_NOTICE = "include_notice"
    STATE_CHANGES = "state_changes"
    IMPACT_REPORT = "impact_report"
    DISCLOSE_SELF = "disclose_self"
    DISCLOSE_UNMODIFIED = "disclose_unmodified"
    USE_BEHAVIOR = "use_behavior"
    RUNTIME_CONTROL = "runtime_control"
    GNU_FREEDOM = "gnu_freedom"
    CC_FREEDOM = "cc_freedom"
    LLAMA_EXCLUSIVE = "llama_exclusive"
    EXCLUSIVE_TERMS = "exclusive_terms"
    NON_COMMERCIAL_OUTPUT = "non_commercial_output"


# Restrictions on using a work; every other restriction applies on publishing.
_USE_SCOPED = {
    Restriction.USE_BEHAVIOR,
    Restriction.RUNTIME_CONTROL,
    Restriction.NON_COMMERCIAL_OUTPUT,
    Restriction.LLAMA_EXCLUSIVE,
}


class LicenseFramework(Enum):
    __hash__ = object.__hash__
    OSS = "oss"
    FREE_CONTENT = "free_content"
    MODEL_LICENSE = "model_license"
    PUBLIC_DOMAIN_LIKE = "public_domain_like"


class Revocability(Enum):
    __hash__ = object.__hash__
    YES = "yes"
    NO = "no"
    UNSTATED = "unstated"


@dataclass
class Rule:
    id: str
    license: str
    trigger_actions: set[ActionKind]
    trigger_input_forms: set[WorkForm]
    trigger_output_forms: set[WorkForm]
    output_def: OutputDefinition
    relicense: RelicensePolicy
    publish_restrictions: set[Restriction] = field(default_factory=set)
    use_restrictions: set[Restriction] = field(default_factory=set)
    allow_sharing: bool = True
    fuzz_only: bool = False


@dataclass
class LicenseProfile:
    id: str
    name: str
    framework: LicenseFramework
    intended_types: set[WorkType]
    copyleft: bool = False
    permissive: bool = False
    revocable: Revocability = Revocability.UNSTATED
    granted: set[Usage] = field(default_factory=set)
    reserved: set[Usage] = field(default_factory=set)
    sublicense_waived_by_auto_relicense: bool = False
    compatible_with: set[str] = field(default_factory=set)
    rules: list[Rule] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass
class KnowledgeBase:
    licenses: dict[str, LicenseProfile] = field(default_factory=dict)
    rules: dict[str, Rule] = field(default_factory=dict)

    def profile(self, license_id: str) -> LicenseProfile:
        try:
            return self.licenses[license_id]
        except KeyError:
            raise UnknownLicense(f"unknown license {license_id!r}") from None

    def add_license(self, profile: LicenseProfile) -> None:
        if profile.id in self.licenses:
            raise DuplicateLicenseId(f"license {profile.id!r} is declared twice")
        self.licenses[profile.id] = profile
        for rule in profile.rules:
            if rule.license != profile.id:
                raise DanglingReference(
                    f"rule {rule.id!r} belongs to {rule.license!r}, "
                    f"not {profile.id!r}"
                )
            if rule.id in self.rules:
                raise ParseError(f"rule {rule.id!r} is declared twice")
            self.rules[rule.id] = rule


def bundled_rules_dir() -> Path:
    """Directory holding the rules shipped with the package."""
    return Path(__file__).with_name("rules")


# Members read once per request, bound once (see `model._PRIMARY`).
_SUBLICENSE, _GRANTED = Usage.SUBLICENSE, Requirement.GRANTED
_RESERVED, _NOT_STATED, _WAIVED = Requirement.RESERVED, Requirement.NOT_STATED, Requirement.WAIVED


def usage_requirement(kb: KnowledgeBase, license_id: str, usage: Usage) -> Requirement:
    """How one license answers a request for one usage right."""
    profile = kb.profile(license_id)
    if usage is _SUBLICENSE and profile.sublicense_waived_by_auto_relicense:
        return _WAIVED
    if usage in profile.granted:
        return _GRANTED
    if usage in profile.reserved:
        return _RESERVED
    return _NOT_STATED


def _form_matches(query: WorkForm, triggers: set[WorkForm], fuzz: bool) -> bool:
    # A bare trigger covers its whole category. With fuzz on, concrete
    # triggers widen to their category as well. Categories never mix.
    return any(
        t is query or ((t.is_bare or fuzz) and t.category is query.category)
        for t in triggers
    )


def match_rules(
    kb: KnowledgeBase,
    license_id: str,
    action: ActionKind,
    in_form: WorkForm,
    out_form: WorkForm,
    fuzz: bool = True,
) -> list[Rule]:
    """Rules of one license that fire for an action and its form pair."""
    matched = []
    for rule in kb.profile(license_id).rules:
        if rule.fuzz_only and not fuzz:
            continue
        if action not in rule.trigger_actions:
            continue
        if not _form_matches(in_form, rule.trigger_input_forms, fuzz):
            continue
        if not _form_matches(out_form, rule.trigger_output_forms, fuzz):
            continue
        matched.append(rule)
    return matched


# Each .mgl key's item type, the value each of its tokens reads as (None
# for free text), and whether it is a set.
_Keys = dict[str, tuple[type, Optional[dict[str, object]], bool]]
_Schema = tuple[_Keys, frozenset[str]]


def _schema(kind: type, *skip: str) -> _Schema:
    """Each .mgl key of a dataclass's fields, and the keys it requires.

    A key is read as its field's type, or as comma-separated items of a
    set's item type. It is required when its field has no default.
    """
    hints = get_type_hints(kind)
    keys: _Keys = {}
    required = set()
    for f in fields(kind):
        if f.name in skip:
            continue
        hint = hints[f.name]
        many = get_origin(hint) is set
        item = get_args(hint)[0] if many else hint
        tokens = {"true": True, "false": False} if item is bool else None
        if issubclass(item, Enum):
            tokens = {member.value: member for member in item}
        keys[f.name] = (item, tokens, many)
        if f.default is MISSING and f.default_factory is MISSING:
            required.add(f.name)
    return keys, frozenset(required)


_PROFILE_SCHEMA = _schema(LicenseProfile, "rules", "metadata")
_RULE_SCHEMA = _schema(Rule, "license")
_PROFILE_KEYS = _PROFILE_SCHEMA[0].keys()
_RULE_KEYS = _RULE_SCHEMA[0].keys()


class _SectionFault(Exception):
    """A fault in one section; the caller names the file and section."""


def _fault(schema: _Schema, values: dict[str, object], bad: dict[str, Optional[str]]) -> str:
    """A faulty section's first fault, worded from what `_parse_file` read.

    An unknown key comes first, in line order, then a missing key, then
    the first value that did not convert, each in field order.
    """
    keys, required = schema
    unknown = next((key for key, token in bad.items() if token is None), None)
    if unknown is not None:
        return f": unknown key {unknown!r}"
    missing = next((k for k in keys if k in required and k not in values), None)
    if missing is not None:
        return f": missing key {missing!r}"
    key = next(key for key in keys if key in bad)
    fault = "expected true or false, got" if keys[key][0] is bool else "unknown token"
    return f" {key}: {fault} {bad[key]!r}"


def _build_profile(values: dict[str, object], metadata: dict[str, str]) -> LicenseProfile:
    profile = LicenseProfile(**values, metadata=metadata)

    overlap = profile.granted & profile.reserved
    if overlap:
        names = ", ".join(sorted(u.value for u in overlap))
        raise _SectionFault(f": usages both granted and reserved: {names}")
    if profile.copyleft == profile.permissive:
        raise _SectionFault(": exactly one of copyleft and permissive must be true")
    if profile.id not in profile.compatible_with:
        raise _SectionFault(f": compatible_with must include {profile.id!r} itself")
    return profile


def _build_rule(values: dict[str, object], license_id: str) -> Rule:
    rule = Rule(license=license_id, **values)

    if not (
        rule.trigger_actions and rule.trigger_input_forms and rule.trigger_output_forms
    ):
        raise _SectionFault(": triggers cannot be empty")
    # A set keeps no order, so the first misplaced restriction by value is named.
    for stray, scope, listed in (
        (rule.publish_restrictions & _USE_SCOPED, "use", "publish"),
        (rule.use_restrictions - _USE_SCOPED, "publish", "use"),
    ):
        if stray:
            value = min(r.value for r in stray)
            raise _SectionFault(
                f": {value!r} is {scope} scoped, not a {listed} restriction"
            )
    forms = rule.trigger_input_forms | rule.trigger_output_forms
    if rule.fuzz_only and not all(form.is_bare for form in forms):
        raise _SectionFault(": fuzz_only rules must use bare forms")
    return rule


def _parse_file(file: str) -> LicenseProfile:
    """The file's profile and its rules: one loop reads, then one step builds.

    The loop converts each value as its line is read and raises each line
    fault where it meets it. Then a misplaced section is raised, or each
    section is built in file order and the first faulty one worded by `_fault`.
    """
    try:
        with open(file, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {Path(file)}: {exc}") from exc
    sections: list[tuple[dict[str, object], dict[str, Optional[str]]]] = []
    metadata: dict[str, str] = {}  # the first section's `meta.*` entries
    misplaced: Optional[str] = "file must start with a [profile] section"
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip()
            if name == "profile":  # a leading one clears the starting fault
                misplaced = ((misplaced or "only one [profile] section per file")
                             if sections else None)
            elif name != "rule":
                raise ParseError(f"{Path(file)}:{lineno}: unknown section [{name}]")
            keys = _RULE_SCHEMA[0] if sections else _PROFILE_SCHEMA[0]
            values, bad = {}, {}  # bad: per key, its first unconverted token, or None
            sections.append((values, bad))
            continue
        # The line is stripped, so only the blanks around `=` are left.
        key, equals, raw = line.partition("=")
        key, raw = key.rstrip(), raw.lstrip()
        if not sections or not equals or key in values:
            what = ("entry outside any section" if not sections
                    else "expected key = value" if not equals else f"duplicate key {key!r}")
            raise ParseError(f"{Path(file)}:{lineno}: {what}")
        if key in keys:
            _, tokens, many = keys[key]
            try:
                if many:
                    items = filter(None, map(str.strip, raw.split(",")))
                    values[key] = set(map(tokens.__getitem__, items) if tokens else items)
                else:
                    values[key] = raw if tokens is None else tokens[raw]
                continue
            except KeyError as err:
                bad[key] = err.args[0]
        elif len(sections) > 1 or key[:5] != "meta.":
            bad[key] = None
        elif key[5:] in metadata:
            raise ParseError(f"{Path(file)}:{lineno}: duplicate key {key!r}")
        else:
            metadata[key[5:]] = raw
            continue
        values[key] = raw  # so that a second line of the key is a duplicate
    if misplaced is not None:
        raise ParseError(f"{Path(file)}: {misplaced}")
    profile: Optional[LicenseProfile] = None
    for values, bad in sections:
        build, owner, schema = ((_build_profile, metadata, _PROFILE_SCHEMA) if profile is None
                                else (_build_rule, profile.id, _RULE_SCHEMA))
        try:
            try:  # a required key left out fails the record's `__init__`
                section = None if bad else build(values, owner)
            except TypeError:
                section = None
            if section is None:
                raise _SectionFault(_fault(schema, values, bad))
        except _SectionFault as err:
            where = "profile" if profile is None else f"rule {values.get('id', '<missing id>')}"
            raise ParseError(f"{Path(file)} [{where}]{err}") from None
        if profile is None:
            profile = section
        else:
            profile.rules.append(section)
    return profile


def load_kb(paths: Sequence[Union[str, Path]]) -> KnowledgeBase:
    """Load and cross check every .mgl file under the given paths."""
    # Files open by plain string paths; `_parse_file` makes a `Path` of
    # one only to word its fault, and `Path(file)` reads as `path / name`.
    files: list[str] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            names = sorted(name for name in os.listdir(path) if name.endswith(".mgl"))
            files += [os.path.join(path, name) for name in names]
        elif path.exists():
            files.append(str(path))
        else:
            raise ParseError(f"no such rules file or directory: {path}")
    kb = KnowledgeBase()
    for file in files:
        kb.add_license(_parse_file(file))
    for profile in kb.licenses.values():
        for ref in sorted(profile.compatible_with):
            if ref not in kb.licenses:
                raise DanglingReference(
                    f"license {profile.id!r} lists unknown license {ref!r} "
                    f"as compatible"
                )
    return kb
