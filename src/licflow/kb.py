"""License knowledge bases: profiles, encoded rules, and compatibility.

A knowledge base is loaded from one or more ``.mgl`` files. Each file
declares a single license profile followed by the rules encoded from the
license text. Token spellings are pinned by ``rules/schema.json`` which
ships with the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .model import ActionKind, WorkForm, WorkType


class KBError(ValueError):
    """Base class for knowledge base failures."""


class ParseError(KBError):
    """A rules file is malformed or uses tokens outside the schema."""


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


class RestrictionScope(Enum):
    ON_PUBLISH = "publish"
    ON_USE = "use"


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

    @property
    def scope(self) -> RestrictionScope:
        return _RESTRICTION_SCOPE[self]


_USE_SCOPED = {
    Restriction.USE_BEHAVIOR,
    Restriction.RUNTIME_CONTROL,
    Restriction.NON_COMMERCIAL_OUTPUT,
    Restriction.LLAMA_EXCLUSIVE,
}

_RESTRICTION_SCOPE = {
    r: (RestrictionScope.ON_USE if r in _USE_SCOPED else RestrictionScope.ON_PUBLISH)
    for r in Restriction
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

    def rules_of(self, license_id: str) -> list[Rule]:
        return self.profile(license_id).rules

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


def load_schema() -> dict:
    """Token registry for rules files: the valid spellings of every field."""
    schema_path = bundled_rules_dir() / "schema.json"
    return json.loads(schema_path.read_text(encoding="utf-8"))


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
    for rule in kb.rules_of(license_id):
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


_PROFILE_KEYS = {
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
}

_RULE_KEYS = {
    "id",
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


def _parse_bool(raw: str, where: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ParseError(f"{where}: expected true or false, got {raw!r}")


def _split_tokens(raw: str) -> list[str]:
    return [token.strip() for token in raw.split(",") if token.strip()]


def _check_tokens(tokens: Iterable[str], allowed: Iterable[str], where: str) -> None:
    allowed_set = set(allowed)
    for token in tokens:
        if token not in allowed_set:
            raise ParseError(f"{where}: unknown token {token!r}")


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


def _build_profile(path: Path, entries: dict[str, str], schema: dict) -> LicenseProfile:
    where = f"{path} [profile]"
    for key in entries:
        if key not in _PROFILE_KEYS and not key.startswith("meta."):
            raise ParseError(f"{where}: unknown key {key!r}")
    for required in ("id", "name", "framework", "intended_types"):
        if required not in entries:
            raise ParseError(f"{where}: missing key {required!r}")
    framework = entries["framework"]
    _check_tokens([framework], schema["frameworks"], f"{where} framework")
    type_tokens = _split_tokens(entries["intended_types"])
    _check_tokens(type_tokens, schema["types"], f"{where} intended_types")
    revocable = entries.get("revocable", "unstated")
    _check_tokens([revocable], schema["revocable"], f"{where} revocable")

    usage_sets = {}
    for key in ("granted", "reserved"):
        tokens = _split_tokens(entries.get(key, ""))
        _check_tokens(tokens, schema["usages"], f"{where} {key}")
        usage_sets[key] = {Usage(t) for t in tokens}
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
        framework=LicenseFramework(framework),
        intended_types={WorkType(t) for t in type_tokens},
        copyleft=copyleft,
        permissive=permissive,
        revocable=Revocability(revocable),
        granted=usage_sets["granted"],
        reserved=usage_sets["reserved"],
        sublicense_waived_by_auto_relicense=_parse_bool(
            entries.get("sublicense_waived_by_auto_relicense", "false"),
            f"{where} sublicense_waived_by_auto_relicense",
        ),
        compatible_with=compatible_with,
        metadata=metadata,
    )


def _build_rule(
    path: Path, entries: dict[str, str], license_id: str, schema: dict
) -> Rule:
    rule_id = entries.get("id", "<missing id>")
    where = f"{path} [rule {rule_id}]"
    for key in entries:
        if key not in _RULE_KEYS:
            raise ParseError(f"{where}: unknown key {key!r}")
    required = (
        "id",
        "trigger_actions",
        "trigger_input_forms",
        "trigger_output_forms",
        "output_def",
        "relicense",
    )
    for key in required:
        if key not in entries:
            raise ParseError(f"{where}: missing key {key!r}")

    action_tokens = _split_tokens(entries["trigger_actions"])
    _check_tokens(action_tokens, schema["actions"], f"{where} trigger_actions")
    in_tokens = _split_tokens(entries["trigger_input_forms"])
    out_tokens = _split_tokens(entries["trigger_output_forms"])
    _check_tokens(in_tokens, schema["forms"], f"{where} trigger_input_forms")
    _check_tokens(out_tokens, schema["forms"], f"{where} trigger_output_forms")
    if not action_tokens or not in_tokens or not out_tokens:
        raise ParseError(f"{where}: triggers cannot be empty")
    _check_tokens([entries["output_def"]], schema["output_defs"], f"{where} output_def")
    _check_tokens([entries["relicense"]], schema["relicense"], f"{where} relicense")

    restriction_scopes = schema["restrictions"]
    publish_tokens = _split_tokens(entries.get("publish_restrictions", ""))
    use_tokens = _split_tokens(entries.get("use_restrictions", ""))
    _check_tokens(publish_tokens, restriction_scopes, f"{where} publish_restrictions")
    _check_tokens(use_tokens, restriction_scopes, f"{where} use_restrictions")
    for token in publish_tokens:
        if restriction_scopes[token] != "publish":
            raise ParseError(
                f"{where}: {token!r} is use scoped, not a publish restriction"
            )
    for token in use_tokens:
        if restriction_scopes[token] != "use":
            raise ParseError(
                f"{where}: {token!r} is publish scoped, not a use restriction"
            )

    fuzz_only = _parse_bool(entries.get("fuzz_only", "false"), f"{where} fuzz_only")
    in_forms = {WorkForm(t) for t in in_tokens}
    out_forms = {WorkForm(t) for t in out_tokens}
    if fuzz_only and not all(f.is_bare for f in in_forms | out_forms):
        raise ParseError(f"{where}: fuzz_only rules must use bare forms")

    return Rule(
        id=entries["id"],
        license=license_id,
        trigger_actions={ActionKind(t) for t in action_tokens},
        trigger_input_forms=in_forms,
        trigger_output_forms=out_forms,
        output_def=OutputDefinition(entries["output_def"]),
        relicense=RelicensePolicy(entries["relicense"]),
        publish_restrictions={Restriction(t) for t in publish_tokens},
        use_restrictions={Restriction(t) for t in use_tokens},
        allow_sharing=_parse_bool(
            entries.get("allow_sharing", "true"), f"{where} allow_sharing"
        ),
        fuzz_only=fuzz_only,
    )


def _parse_file(path: Path, schema: dict) -> LicenseProfile:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    reader = _SectionReader(path, text)
    if not reader.sections or reader.sections[0][0] != "profile":
        raise ParseError(f"{path}: file must start with a [profile] section")
    if sum(1 for name, _ in reader.sections if name == "profile") > 1:
        raise ParseError(f"{path}: only one [profile] section per file")
    profile = _build_profile(path, reader.sections[0][1], schema)
    for name, entries in reader.sections[1:]:
        if name == "rule":
            profile.rules.append(_build_rule(path, entries, profile.id, schema))
    return profile


def load_kb(paths: Sequence[Union[str, Path]]) -> KnowledgeBase:
    """Load and cross check every .mgl file under the given paths."""
    schema = load_schema()
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
        kb.add_license(_parse_file(path, schema))
    for profile in kb.licenses.values():
        for ref in sorted(profile.compatible_with):
            if ref not in kb.licenses:
                raise DanglingReference(
                    f"license {profile.id!r} lists unknown license {ref!r} "
                    f"as compatible"
                )
    return kb
