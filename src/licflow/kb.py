"""License knowledge bases: profiles, encoded rules, and compatibility.

A knowledge base is loaded from one or more ``.mgl`` files. Each file
declares a single license profile followed by the rules encoded from the
license text. Each token is the value of the enum it becomes.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence, TypeVar, Union

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
    USE = "use"
    MODIFY = "modify"
    REDISTRIBUTE = "redistribute"
    SUBLICENSE = "sublicense"
    COMMERCIAL = "commercial"
    RELICENSE = "relicense"


class Requirement(Enum):
    """How a license answers a request for one usage right."""

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
    OSS = "oss"
    FREE_CONTENT = "free_content"
    MODEL_LICENSE = "model_license"
    PUBLIC_DOMAIN_LIKE = "public_domain_like"


class Revocability(Enum):
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
    return Path(str(resources.files(__package__).joinpath("rules")))


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


def are_compatible(
    kb: KnowledgeBase, target: str, candidates: Iterable[str]
) -> Optional[str]:
    """Pick a license acceptable to every candidate, or None.

    The result is a member of the intersection of the candidates'
    compatibility sets. Ties resolve deterministically: the proposed
    target itself wins, then the smallest qualifying candidate, then the
    smallest member of the intersection.
    """
    kb.profile(target)
    candidate_set = set(candidates)
    if not candidate_set:
        raise ValueError("are_compatible needs at least one candidate")
    intersection = set.intersection(
        *(set(kb.profile(c).compatible_with) for c in sorted(candidate_set))
    )
    if not intersection:
        return None
    if target in intersection:
        return target
    agreeable = candidate_set & intersection
    if agreeable:
        return min(agreeable)
    return min(intersection)


def _keys(kind: type, *skip: str) -> tuple[frozenset[str], list[str]]:
    """The .mgl keys of a dataclass's fields, and those without a default, in order."""
    kept = [f for f in fields(kind) if f.name not in skip]
    required = [
        f.name for f in kept if f.default is MISSING and f.default_factory is MISSING
    ]
    return frozenset(f.name for f in kept), required


_PROFILE_KEYS, _PROFILE_REQUIRED = _keys(LicenseProfile, "rules", "metadata")
_RULE_KEYS, _RULE_REQUIRED = _keys(Rule, "license")


def _parse_bool(raw: str, where: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ParseError(f"{where}: expected true or false, got {raw!r}")


def _split_tokens(raw: str) -> list[str]:
    return [token.strip() for token in raw.split(",") if token.strip()]


_E = TypeVar("_E", bound=Enum)


def _member(kind: type[_E], token: str, where: str) -> _E:
    try:
        return kind(token)
    except ValueError:
        raise ParseError(f"{where}: unknown token {token!r}") from None


def _members(kind: type[_E], raw: str, where: str) -> list[_E]:
    """Each comma-separated token of ``raw`` as its member of ``kind``."""
    return [_member(kind, token, where) for token in _split_tokens(raw)]


class _SectionReader:
    """Splits an .mgl file into (section name, key/value map) pairs."""

    def __init__(self, path: Path, text: str):
        self.path = path
        self.sections: list[tuple[str, dict[str, str]]] = []
        current: Optional[dict[str, str]] = None
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in ("profile", "rule"):
                    raise ParseError(f"{path}:{lineno}: unknown section [{name}]")
                current = {}
                self.sections.append((name, current))
                continue
            if current is None:
                raise ParseError(f"{path}:{lineno}: entry outside any section")
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in current:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
            current[key] = value


def _build_profile(path: Path, entries: dict[str, str]) -> LicenseProfile:
    where = f"{path} [profile]"
    for key in entries:
        if key not in _PROFILE_KEYS and not key.startswith("meta."):
            raise ParseError(f"{where}: unknown key {key!r}")
    for required in _PROFILE_REQUIRED:
        if required not in entries:
            raise ParseError(f"{where}: missing key {required!r}")
    framework = _member(LicenseFramework, entries["framework"], f"{where} framework")
    intended_types = _members(
        WorkType, entries["intended_types"], f"{where} intended_types"
    )
    revocable = _member(
        Revocability, entries.get("revocable", "unstated"), f"{where} revocable"
    )

    usage_sets = {
        key: set(_members(Usage, entries.get(key, ""), f"{where} {key}"))
        for key in ("granted", "reserved")
    }
    overlap = usage_sets["granted"] & usage_sets["reserved"]
    if overlap:
        names = ", ".join(sorted(u.value for u in overlap))
        raise ParseError(f"{where}: usages both granted and reserved: {names}")

    copyleft = _parse_bool(entries.get("copyleft", "false"), f"{where} copyleft")
    permissive = _parse_bool(entries.get("permissive", "false"), f"{where} permissive")
    if copyleft == permissive:
        raise ParseError(
            f"{where}: exactly one of copyleft and permissive must be true"
        )

    license_id = entries["id"]
    compatible_with = set(_split_tokens(entries.get("compatible_with", "")))
    if license_id not in compatible_with:
        raise ParseError(f"{where}: compatible_with must include {license_id!r} itself")

    metadata = {
        key[len("meta."):]: value
        for key, value in entries.items()
        if key.startswith("meta.")
    }
    return LicenseProfile(
        id=license_id,
        name=entries["name"],
        framework=framework,
        intended_types=set(intended_types),
        copyleft=copyleft,
        permissive=permissive,
        revocable=revocable,
        granted=usage_sets["granted"],
        reserved=usage_sets["reserved"],
        sublicense_waived_by_auto_relicense=_parse_bool(
            entries.get("sublicense_waived_by_auto_relicense", "false"),
            f"{where} sublicense_waived_by_auto_relicense",
        ),
        compatible_with=compatible_with,
        metadata=metadata,
    )


def _build_rule(path: Path, entries: dict[str, str], license_id: str) -> Rule:
    rule_id = entries.get("id", "<missing id>")
    where = f"{path} [rule {rule_id}]"
    for key in entries:
        if key not in _RULE_KEYS:
            raise ParseError(f"{where}: unknown key {key!r}")
    for key in _RULE_REQUIRED:
        if key not in entries:
            raise ParseError(f"{where}: missing key {key!r}")

    actions, in_forms, out_forms = (
        _members(kind, entries[key], f"{where} {key}")
        for kind, key in (
            (ActionKind, "trigger_actions"),
            (WorkForm, "trigger_input_forms"),
            (WorkForm, "trigger_output_forms"),
        )
    )
    if not actions or not in_forms or not out_forms:
        raise ParseError(f"{where}: triggers cannot be empty")
    output_def = _member(OutputDefinition, entries["output_def"], f"{where} output_def")
    relicense = _member(RelicensePolicy, entries["relicense"], f"{where} relicense")

    publish, use = (
        _members(Restriction, entries.get(key, ""), f"{where} {key}")
        for key in ("publish_restrictions", "use_restrictions")
    )
    for restriction in publish:
        if restriction in _USE_SCOPED:
            raise ParseError(
                f"{where}: {restriction.value!r} is use scoped, "
                f"not a publish restriction"
            )
    for restriction in use:
        if restriction not in _USE_SCOPED:
            raise ParseError(
                f"{where}: {restriction.value!r} is publish scoped, "
                f"not a use restriction"
            )

    fuzz_only = _parse_bool(entries.get("fuzz_only", "false"), f"{where} fuzz_only")
    if fuzz_only and not all(f.is_bare for f in in_forms + out_forms):
        raise ParseError(f"{where}: fuzz_only rules must use bare forms")

    return Rule(
        id=entries["id"],
        license=license_id,
        trigger_actions=set(actions),
        trigger_input_forms=set(in_forms),
        trigger_output_forms=set(out_forms),
        output_def=output_def,
        relicense=relicense,
        publish_restrictions=set(publish),
        use_restrictions=set(use),
        allow_sharing=_parse_bool(
            entries.get("allow_sharing", "true"), f"{where} allow_sharing"
        ),
        fuzz_only=fuzz_only,
    )


def _parse_file(path: Path) -> LicenseProfile:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    reader = _SectionReader(path, text)
    if not reader.sections or reader.sections[0][0] != "profile":
        raise ParseError(f"{path}: file must start with a [profile] section")
    if sum(1 for name, _ in reader.sections if name == "profile") > 1:
        raise ParseError(f"{path}: only one [profile] section per file")
    profile = _build_profile(path, reader.sections[0][1])
    for name, entries in reader.sections[1:]:
        if name == "rule":
            profile.rules.append(_build_rule(path, entries, profile.id))
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
