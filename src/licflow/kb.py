"""License knowledge bases: profiles, encoded rules, and compatibility.

A knowledge base is loaded from one or more ``.mgl`` files. Each file
declares a single license profile followed by the rules encoded from the
license text. Each token is the value of the enum it becomes.
"""

from __future__ import annotations

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


def usage_requirement(kb: KnowledgeBase, license_id: str, usage: Usage) -> Requirement:
    """How one license answers a request for one usage right."""
    profile = kb.profile(license_id)
    if usage is Usage.SUBLICENSE and profile.sublicense_waived_by_auto_relicense:
        return Requirement.WAIVED
    if usage in profile.granted:
        return Requirement.GRANTED
    if usage in profile.reserved:
        return Requirement.RESERVED
    return Requirement.NOT_STATED


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


def _read(schema: _Schema, entries: dict[str, str]) -> dict[str, object]:
    """The fields a section fills; a key left out keeps its field's default.

    Faults are reported in this order: an unknown key, a missing key,
    then each value in field order.
    """
    keys, required = schema
    if not entries.keys() <= keys.keys():
        unknown = next(key for key in entries if key not in keys)
        raise _SectionFault(f": unknown key {unknown!r}")
    if not entries.keys() >= required:
        missing = next(k for k in keys if k in required and k not in entries)
        raise _SectionFault(f": missing key {missing!r}")
    values: dict[str, object] = {}
    for key, (kind, tokens, many) in keys.items():
        raw = entries.get(key)
        if raw is None:
            continue
        try:
            if many:
                items = [item for item in map(str.strip, raw.split(",")) if item]
                values[key] = {tokens[i] for i in items} if tokens else set(items)
            else:
                values[key] = raw if tokens is None else tokens[raw]
        except KeyError as err:
            fault = "expected true or false, got" if kind is bool else "unknown token"
            raise _SectionFault(f" {key}: {fault} {err.args[0]!r}") from None
    return values


def _sections(path: Path, text: str) -> list[tuple[str, dict[str, str]]]:
    """Splits an .mgl file into (section name, key/value map) pairs."""
    sections: list[tuple[str, dict[str, str]]] = []
    current: Optional[dict[str, str]] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip()
            if name != "profile" and name != "rule":
                raise ParseError(f"{path}:{lineno}: unknown section [{name}]")
            current = {}
            sections.append((name, current))
            continue
        if current is None:
            raise ParseError(f"{path}:{lineno}: entry outside any section")
        # The line is stripped, so only the blanks around `=` are left.
        key, equals, value = line.partition("=")
        if not equals:
            raise ParseError(f"{path}:{lineno}: expected key = value")
        key = key.rstrip()
        if key in current:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        current[key] = value.lstrip()
    return sections


def _build_profile(entries: dict[str, str]) -> LicenseProfile:
    stated: dict[str, str] = {}
    metadata: dict[str, str] = {}
    for key, value in entries.items():
        if key.startswith("meta."):
            metadata[key[len("meta."):]] = value
        else:
            stated[key] = value
    profile = LicenseProfile(**_read(_PROFILE_SCHEMA, stated), metadata=metadata)

    overlap = profile.granted & profile.reserved
    if overlap:
        names = ", ".join(sorted(u.value for u in overlap))
        raise _SectionFault(f": usages both granted and reserved: {names}")
    if profile.copyleft == profile.permissive:
        raise _SectionFault(": exactly one of copyleft and permissive must be true")
    if profile.id not in profile.compatible_with:
        raise _SectionFault(f": compatible_with must include {profile.id!r} itself")
    return profile


def _build_rule(entries: dict[str, str], license_id: str) -> Rule:
    rule = Rule(license=license_id, **_read(_RULE_SCHEMA, entries))

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


def _parse_file(path: Path) -> LicenseProfile:
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    sections = _sections(path, text)
    if not sections or sections[0][0] != "profile":
        raise ParseError(f"{path}: file must start with a [profile] section")
    if any(name == "profile" for name, _ in sections[1:]):
        raise ParseError(f"{path}: only one [profile] section per file")
    try:
        profile = _build_profile(sections[0][1])
    except _SectionFault as fault:
        raise ParseError(f"{path} [profile]{fault}") from None
    for _, entries in sections[1:]:
        try:
            profile.rules.append(_build_rule(entries, profile.id))
        except _SectionFault as fault:
            rule_id = entries.get("id", "<missing id>")
            raise ParseError(f"{path} [rule {rule_id}]{fault}") from None
    return profile


def load_kb(paths: Sequence[Union[str, Path]]) -> KnowledgeBase:
    """Load and cross check every .mgl file under the given paths."""
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.glob("*.mgl")))
        elif path.is_file():
            files.append(path)
        else:
            raise ParseError(f"no such rules file or directory: {path}")
    kb = KnowledgeBase()
    for path in files:
        kb.add_license(_parse_file(path))
    for profile in kb.licenses.values():
        for ref in sorted(profile.compatible_with):
            if ref not in kb.licenses:
                raise DanglingReference(
                    f"license {profile.id!r} lists unknown license {ref!r} "
                    f"as compatible"
                )
    return kb
