"""Naive reference implementations used to cross-check the engine.

Everything here trades speed for obviousness: rules files are read a
line at a time, rules are matched by scanning the whole rule table,
reliance paths are re-enumerated from scratch on every round, and the
fixpoint simply loops until a round adds nothing. The engine must agree with these functions record for
record.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Iterable, Optional, get_args, get_origin, get_type_hints

from licflow import (
    ActionKind,
    ActionNode,
    CycleIntroduced,
    DanglingReference,
    InputRole,
    KnowledgeBase,
    LicenseFramework,
    LicenseProfile,
    Origin,
    ParseError,
    PublishManner,
    RelicensePolicy,
    Restriction,
    Revocability,
    Rule,
    Usage,
    WorkflowGraph,
    WorkflowSyntaxError,
    WorkForm,
)
from licflow.kb import _USE_SCOPED

DEFAULT = "Unlicense"

_IDENTITY = (ActionKind.COPY, ActionKind.PUBLISH)


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

# A local name, spelled as a run of name characters where a dot counts
# only when a name character follows it. The engine spells the same
# language without the per-character lookahead.
NAIVE_NAME_RE = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_:-]|\.(?=[A-Za-z0-9_:-]))*")

_TOKEN_RES = [
    ("IRIREF", re.compile(r"<([^<>\s]*)>")),
    ("STRING", re.compile(r'"((?:[^"\\\n]|\\.)*)"')),
    ("PREFIX_KW", re.compile(r"@prefix\b")),
    ("INTEGER", re.compile(r"[+-]?[0-9]+(?![A-Za-z0-9_:.+-])")),
    ("NAME", NAIVE_NAME_RE),
    ("PUNCT", re.compile(r"[.;,]")),
]


def naive_tokens(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, value, line, column) of every token, one line at a time.

    Each regex is tried in turn at each position and blanks are skipped
    one character at a time. EOF is placed at column 1 of the line after
    the last `\\n`-split piece; the engine places it just past the last
    character instead.
    """
    tokens: list[tuple[str, str, int, int]] = []
    line = 1
    for raw_line in text.split("\n"):
        pos = 0
        while pos < len(raw_line):
            ch = raw_line[pos]
            if ch in " \t\r":
                pos += 1
                continue
            if ch == "#":
                break
            for kind, pattern in _TOKEN_RES:
                match = pattern.match(raw_line, pos)
                if match:
                    value = match.group(1) if kind in ("IRIREF", "STRING") else match.group(0)
                    tokens.append((kind, value, line, pos + 1))
                    pos = match.end()
                    break
            else:
                raise WorkflowSyntaxError(f"unexpected character {ch!r}", line, pos + 1)
        line += 1
    tokens.append(("EOF", "", line, 1))
    return tokens


# ---------------------------------------------------------------------------
# Rules files
# ---------------------------------------------------------------------------


def _naive_schema(kind: type, *skip: str) -> dict[str, tuple[type, bool, bool]]:
    """(item type, is a set, is required) of each key, read off the fields."""
    hints = get_type_hints(kind)
    schema = {}
    for f in fields(kind):
        if f.name in skip:
            continue
        hint = hints[f.name]
        many = get_origin(hint) is set
        required = f.default is MISSING and f.default_factory is MISSING
        schema[f.name] = (get_args(hint)[0] if many else hint, many, required)
    return schema


_NAIVE_PROFILE_SCHEMA = _naive_schema(LicenseProfile, "rules", "metadata")
_NAIVE_RULE_SCHEMA = _naive_schema(Rule, "license")


def _naive_value(kind: type, raw: str, where: str) -> object:
    if kind is str:
        return raw
    if kind is bool:
        if raw not in ("true", "false"):
            raise ParseError(f"{where}: expected true or false, got {raw!r}")
        return raw == "true"
    try:
        return kind(raw)
    except ValueError:
        raise ParseError(f"{where}: unknown token {raw!r}") from None


def _naive_read(schema: dict, entries: dict[str, str], where: str) -> dict[str, object]:
    """Unknown keys, then missing ones, then each value in field order."""
    for key in entries:
        if key not in schema:
            raise ParseError(f"{where}: unknown key {key!r}")
    for key, (_, _, required) in schema.items():
        if required and key not in entries:
            raise ParseError(f"{where}: missing key {key!r}")
    values: dict[str, object] = {}
    for key, (kind, many, _) in schema.items():
        if key in entries:
            raw, at = entries[key], f"{where} {key}"
            if many:
                tokens = (token.strip() for token in raw.split(","))
                values[key] = {_naive_value(kind, token, at) for token in tokens if token}
            else:
                values[key] = _naive_value(kind, raw, at)
    return values


def _naive_sections(path: Path, text: str) -> list[tuple[str, dict[str, str]]]:
    """(section name, key/value map) pairs, one `str.splitlines` line at a time."""
    sections: list[tuple[str, dict[str, str]]] = []
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
            sections.append((name, current))
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
    return sections


def _naive_profile(path: Path, entries: dict[str, str]) -> LicenseProfile:
    where = f"{path} [profile]"
    stated = {k: v for k, v in entries.items() if not k.startswith("meta.")}
    metadata = {k[len("meta."):]: v for k, v in entries.items() if k.startswith("meta.")}
    values = _naive_read(_NAIVE_PROFILE_SCHEMA, stated, where)
    profile = LicenseProfile(**values, metadata=metadata)
    overlap = profile.granted & profile.reserved
    if overlap:
        names = ", ".join(sorted(u.value for u in overlap))
        raise ParseError(f"{where}: usages both granted and reserved: {names}")
    if profile.copyleft == profile.permissive:
        raise ParseError(f"{where}: exactly one of copyleft and permissive must be true")
    if profile.id not in profile.compatible_with:
        raise ParseError(f"{where}: compatible_with must include {profile.id!r} itself")
    return profile


def _naive_rule(path: Path, entries: dict[str, str], license_id: str) -> Rule:
    where = f"{path} [rule {entries.get('id', '<missing id>')}]"
    rule = Rule(license=license_id, **_naive_read(_NAIVE_RULE_SCHEMA, entries, where))
    if not (
        rule.trigger_actions and rule.trigger_input_forms and rule.trigger_output_forms
    ):
        raise ParseError(f"{where}: triggers cannot be empty")
    for stray, scope, listed in (
        (rule.publish_restrictions & _USE_SCOPED, "use", "publish"),
        (rule.use_restrictions - _USE_SCOPED, "publish", "use"),
    ):
        if stray:
            value = min(r.value for r in stray)
            raise ParseError(
                f"{where}: {value!r} is {scope} scoped, not a {listed} restriction"
            )
    forms = rule.trigger_input_forms | rule.trigger_output_forms
    if rule.fuzz_only and not all(form.is_bare for form in forms):
        raise ParseError(f"{where}: fuzz_only rules must use bare forms")
    return rule


def naive_load_kb(paths: list[Path]) -> KnowledgeBase:
    """The knowledge base the rules files give, read one line at a time.

    Every value is converted by calling its enum, and every location
    string is built whether a fault is raised or not.
    """
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.glob("*.mgl")))
        elif path.is_file():
            files.append(path)
        else:
            raise ParseError(f"no such rules file or directory: {path}")
    kb = KnowledgeBase()
    for path in files:
        try:
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        sections = _naive_sections(path, text)
        if not sections or sections[0][0] != "profile":
            raise ParseError(f"{path}: file must start with a [profile] section")
        if sum(1 for name, _ in sections if name == "profile") > 1:
            raise ParseError(f"{path}: only one [profile] section per file")
        profile = _naive_profile(path, sections[0][1])
        for _, entries in sections[1:]:
            profile.rules.append(_naive_rule(path, entries, profile.id))
        kb.add_license(profile)
    for profile in kb.licenses.values():
        for ref in sorted(profile.compatible_with):
            if ref not in kb.licenses:
                raise DanglingReference(
                    f"license {profile.id!r} lists unknown license {ref!r} as compatible"
                )
    return kb


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def naive_toposort(graph: WorkflowGraph) -> list[ActionNode]:
    """Actions in dependency order, ties broken by action id.

    Rescans every pending action once per level, so a chain of n steps
    costs O(n^2).
    """
    producers = graph.producers
    pending: dict[str, set[str]] = {}
    for action in graph.actions.values():
        deps = {
            producers[inp.work].id for inp in action.inputs if inp.work in producers
        }
        pending[action.id] = deps
    ordered: list[ActionNode] = []
    while pending:
        ready = sorted(aid for aid, deps in pending.items() if not deps)
        if not ready:
            raise CycleIntroduced("action graph contains a cycle")
        for aid in ready:
            del pending[aid]
            ordered.append(graph.actions[aid])
        for deps in pending.values():
            deps.difference_update(ready)
    return ordered


def naive_edge_set(graph: WorkflowGraph) -> set[tuple[str, str, str]]:
    """(kind value, source, target) triples the compositional pass must add."""
    edges: set[tuple[str, str, str]] = set()

    def mix(src: str, dst: str) -> None:
        edges.add(("mixwork", src, dst))

    def aux(src: str, dst: str) -> None:
        edges.add(("auxwork", src, dst))

    for act in graph.actions.values():
        out = act.output
        for inp in act.inputs:
            if inp.role is InputRole.AUXILIARY:
                aux(inp.work, out)
            elif inp.role is InputRole.TRAINING_DATA:
                if inp.work in act.copublish:
                    edges.add(("subwork", inp.work, out))
                else:
                    aux(inp.work, out)
            elif act.kind in (
                ActionKind.COPY,
                ActionKind.MODIFY,
                ActionKind.AMALGAMATE,
                ActionKind.PUBLISH,
                ActionKind.COMBINE,
                ActionKind.TRAIN,
            ):
                mix(inp.work, out)
            elif act.kind in (
                ActionKind.GENERATE,
                ActionKind.DISTILL,
                ActionKind.EMBED,
            ):
                aux(inp.work, out)
            elif act.kind is ActionKind.REGISTER_LICENSE:
                edges.add(("provenance", inp.work, out))
    return edges


def _producer(graph: WorkflowGraph, work_id: str):
    for act in graph.actions.values():
        if act.output == work_id:
            return act
    return None


def _is_user_licensed(graph: WorkflowGraph, work_id: str) -> bool:
    w = graph.works[work_id]
    return w.license is not None and w.origin is Origin.USER_DECLARED


def _step_kind(act) -> ActionKind:
    if act.kind is ActionKind.COMBINE:
        primaries = [i for i in act.inputs if i.role is InputRole.PRIMARY]
        if len(primaries) == 1:
            return ActionKind.COPY
    return act.kind


def naive_paths(graph: WorkflowGraph, act) -> list[tuple[str, tuple[ActionKind, ...]]]:
    """Every (relied work, action-kind path) pair one action relies on."""
    found: list[tuple[str, tuple[ActionKind, ...]]] = []

    def walk(work_id: str, path: tuple[ActionKind, ...]) -> None:
        found.append((work_id, path))
        if _is_user_licensed(graph, work_id):
            return
        producer = _producer(graph, work_id)
        if producer is None:
            return
        inner = _step_kind(producer)
        for inp in producer.inputs:
            if mix_edge_exists(graph, inp, producer):
                walk(inp.work, (inner,) + path)

    def mix_edge_exists(g: WorkflowGraph, inp, producer) -> bool:
        return ("mixwork", inp.work, producer.output) in naive_edge_set(g)

    first = _step_kind(act)
    for inp in act.inputs:
        walk(inp.work, (first,))
    return found


def naive_effective_kind(path: tuple[ActionKind, ...]) -> ActionKind:
    for kind in reversed(path):
        if kind not in _IDENTITY:
            return kind
    return path[0]


# ---------------------------------------------------------------------------
# License resolution
# ---------------------------------------------------------------------------


def _bruteforce_intersection(kb: KnowledgeBase, candidates: set[str]) -> set[str]:
    return {
        lic
        for lic in kb.licenses
        if all(lic in kb.profile(c).compatible_with for c in candidates)
    }


def bruteforce_compatible(
    kb: KnowledgeBase, target: str, candidates: Iterable[str]
) -> Optional[str]:
    """Re-derive the compatibility pick by scanning every known license."""
    candidate_set = set(candidates)
    inter = _bruteforce_intersection(kb, candidate_set)
    if not inter:
        return None
    if target in inter:
        return target
    both = candidate_set & inter
    if both:
        return min(both)
    return min(inter)


def naive_license_of(
    graph: WorkflowGraph,
    kb: KnowledgeBase,
    work_id: str,
    rulings: set[tuple[str, str, str]],
) -> Optional[str]:
    """One work's license given the current rulings; None marks a conflict."""
    w = graph.works[work_id]
    if w.license is not None and w.origin is Origin.USER_DECLARED:
        return w.license
    # A plain scan for the work's own register actions: the oracle reads
    # no engine index such as `graph.producers`.
    registered = [
        act.license_to_register
        for act in graph.actions.values()
        if act.output == work_id and act.kind is ActionKind.REGISTER_LICENSE
    ]
    if registered:
        return registered[-1]
    mine = sorted(r for (wk, _, r) in rulings if wk == work_id)
    if not mine:
        return DEFAULT
    none_allowed: list[str] = []
    compat_only: list[str] = []
    for rule_id in mine:
        rule = kb.rules[rule_id]
        if rule.relicense is RelicensePolicy.NONE_ALLOWED:
            none_allowed.append(rule.license)
        elif rule.relicense is RelicensePolicy.COMPATIBLE_ONLY:
            compat_only.append(rule.license)
    none_allowed = sorted(set(none_allowed))
    compat_only = sorted(set(compat_only))
    if not none_allowed and not compat_only:
        return DEFAULT
    if len(none_allowed) > 1:
        return None
    if len(none_allowed) == 1:
        fixed = none_allowed[0]
        if not compat_only:
            return fixed
        pick = bruteforce_compatible(kb, fixed, compat_only)
        return fixed if pick == fixed else None
    return bruteforce_compatible(kb, min(compat_only), compat_only)


def naive_members(
    graph: WorkflowGraph,
    kb: KnowledgeBase,
    work_id: str,
    rulings: set[tuple[str, str, str]],
) -> set[str]:
    """Licenses treated as governing one work, unknown ids dropped."""
    w = graph.works[work_id]
    if w.license is not None and w.origin is Origin.USER_DECLARED:
        return {w.license} if w.license in kb.licenses else set()
    members: set[str] = set()
    assigned = naive_license_of(graph, kb, work_id, rulings)
    if assigned is None:
        assigned = _conflict_fallback(graph, kb, work_id, rulings)
    if assigned in kb.licenses:
        members.add(assigned)
    for (wk, _, rule_id) in rulings:
        if wk != work_id:
            continue
        rule = kb.rules[rule_id]
        if rule.relicense is not RelicensePolicy.ANY and rule.license in kb.licenses:
            members.add(rule.license)
    return members


def _conflict_fallback(
    graph: WorkflowGraph,
    kb: KnowledgeBase,
    work_id: str,
    rulings: set[tuple[str, str, str]],
) -> str:
    implicated = sorted(
        {
            kb.rules[r].license
            for (wk, _, r) in rulings
            if wk == work_id
            and kb.rules[r].relicense is not RelicensePolicy.ANY
        }
    )
    for lic in implicated:
        if kb.profile(lic).copyleft:
            return lic
    return implicated[0]


# ---------------------------------------------------------------------------
# Fixpoint
# ---------------------------------------------------------------------------


def _rule_fires(rule, kind: ActionKind, in_form: WorkForm, out_form: WorkForm, fuzz: bool) -> bool:
    if rule.fuzz_only and not fuzz:
        return False
    if kind not in rule.trigger_actions:
        return False

    def form_ok(query: WorkForm, triggers) -> bool:
        for trig in triggers:
            if trig is query:
                return True
            if (trig.is_bare or fuzz) and trig.category is query.category:
                return True
        return False

    return form_ok(in_form, rule.trigger_input_forms) and form_ok(
        out_form, rule.trigger_output_forms
    )


def naive_rulings(
    graph: WorkflowGraph, kb: KnowledgeBase, fuzz: bool = True
) -> set[tuple[str, str, str]]:
    """Fixpoint of rule firing, recomputed from scratch each round."""
    rulings: set[tuple[str, str, str]] = set()
    while True:
        fresh: set[tuple[str, str, str]] = set()
        for act in graph.actions.values():
            out_form = graph.works[act.output].form
            for relied, path in naive_paths(graph, act):
                kind = naive_effective_kind(path)
                in_form = graph.works[relied].form
                for lic in sorted(naive_members(graph, kb, relied, rulings)):
                    for rule in kb.rules.values():
                        if rule.license != lic:
                            continue
                        if _rule_fires(rule, kind, in_form, out_form, fuzz):
                            fresh.add((act.output, relied, rule.id))
        if fresh <= rulings:
            return rulings
        rulings |= fresh


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def _usages_for(act) -> tuple[Usage, ...]:
    if act.kind is ActionKind.PUBLISH:
        return {
            PublishManner.INTERNAL: (Usage.USE,),
            PublishManner.SHARE: (Usage.USE, Usage.REDISTRIBUTE),
            PublishManner.SELL: (
                Usage.USE,
                Usage.REDISTRIBUTE,
                Usage.COMMERCIAL,
                Usage.SUBLICENSE,
            ),
        }[act.publish_manner]
    return {
        ActionKind.COPY: (Usage.USE,),
        ActionKind.COMBINE: (Usage.USE,),
        ActionKind.GENERATE: (Usage.USE,),
        ActionKind.DISTILL: (Usage.USE,),
        ActionKind.EMBED: (Usage.USE,),
        ActionKind.MODIFY: (Usage.USE, Usage.MODIFY),
        ActionKind.AMALGAMATE: (Usage.USE, Usage.MODIFY),
        ActionKind.TRAIN: (Usage.USE, Usage.MODIFY),
        ActionKind.REGISTER_LICENSE: (),
    }[act.kind]


def _mix_ancestors(graph: WorkflowGraph, work_id: str) -> set[str]:
    edges = naive_edge_set(graph)
    closure = {work_id}
    changed = True
    while changed:
        changed = False
        for (kind, src, dst) in edges:
            if kind == "mixwork" and dst in closure and src not in closure:
                closure.add(src)
                changed = True
    return closure


def naive_requests(
    graph: WorkflowGraph,
    kb: KnowledgeBase,
    rulings: set[tuple[str, str, str]],
) -> set[tuple[str, str, str, str]]:
    requests: set[tuple[str, str, str, str]] = set()
    for act in graph.actions.values():
        usages = _usages_for(act)
        for inp in act.inputs:
            for target in _mix_ancestors(graph, inp.work):
                for usage in usages:
                    if usage is Usage.SUBLICENSE and _all_waive(
                        graph, kb, target, rulings
                    ):
                        continue
                    requests.add((act.id, inp.work, target, usage.value))
    return requests


def _all_waive(
    graph: WorkflowGraph,
    kb: KnowledgeBase,
    work_id: str,
    rulings: set[tuple[str, str, str]],
) -> bool:
    members = naive_members(graph, kb, work_id, rulings)
    if not members:
        return False
    return all(
        kb.profile(m).sublicense_waived_by_auto_relicense for m in members
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

_FULL_EDGES = ("mixwork", "subwork", "auxwork")
_CONTAINED_EDGES = ("mixwork", "subwork")

_DERIVING = (
    ActionKind.MODIFY,
    ActionKind.AMALGAMATE,
    ActionKind.TRAIN,
    ActionKind.COMBINE,
    ActionKind.DISTILL,
    ActionKind.EMBED,
)

_PUBLISH_NOTICES = {
    Restriction.INCLUDE_LICENSE: "N1",
    Restriction.INCLUDE_NOTICE: "N2",
    Restriction.STATE_CHANGES: "N3",
    Restriction.IMPACT_REPORT: "N4",
    Restriction.DISCLOSE_SELF: "W5",
    Restriction.DISCLOSE_UNMODIFIED: "W6",
}
_USE_NOTICES = {
    Restriction.USE_BEHAVIOR: "W7",
    Restriction.RUNTIME_CONTROL: "W8",
}


def _edge_ancestors(
    graph: WorkflowGraph, work_id: str, kinds: tuple[str, ...]
) -> set[str]:
    """The work plus every work that reaches it backwards over the given edges."""
    closure = {work_id}
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            if (
                edge.kind.value in kinds
                and edge.target in closure
                and edge.source not in closure
            ):
                closure.add(edge.source)
                changed = True
    return closure


def _answer(kb: KnowledgeBase, license_id: str, usage: Usage) -> str:
    profile = kb.licenses[license_id]
    if usage is Usage.SUBLICENSE and profile.sublicense_waived_by_auto_relicense:
        return "waived"
    if usage in profile.granted:
        return "granted"
    if usage in profile.reserved:
        return "reserved"
    return "not stated"


def naive_reports(
    graph: WorkflowGraph, kb: KnowledgeBase, target: str
) -> list[tuple[str, str, str]]:
    """(code, subject, target) for every finding on one published work.

    Works on a reasoned graph and re-derives each N/W/E code from its
    catalog definition. E1 is a structural code raised before reasoning,
    so it never appears here.
    """
    manner = next(
        act.publish_manner
        for act in graph.actions.values()
        if act.kind is ActionKind.PUBLISH and act.output == target
    )
    rulings = {(r.work, r.relied_work, r.rule) for r in graph.rulings}
    full = _edge_ancestors(graph, target, _FULL_EDGES)
    contained = _edge_ancestors(graph, target, _CONTAINED_EDGES)
    found: list[tuple[str, str]] = []

    def members(work_id: str) -> set[str]:
        return naive_members(graph, kb, work_id, rulings)

    for wid in full:
        profiles = [kb.licenses[lic] for lic in members(wid)]
        # W1: a non public-domain license not meant for the work's type.
        if any(
            p.framework is not LicenseFramework.PUBLIC_DOMAIN_LIKE
            and graph.works[wid].work_type not in p.intended_types
            for p in profiles
        ):
            found.append(("W1", wid))
        # W2 / W3: revocable, or revocability never stated.
        if any(p.revocable is Revocability.YES for p in profiles):
            found.append(("W2", wid))
        if any(p.revocable is Revocability.UNSTATED for p in profiles):
            found.append(("W3", wid))
        # E10: the work's rulings admit no consistent license.
        if naive_license_of(graph, kb, wid, rulings) is None:
            found.append(("E10", wid))

    # E2 / E4 / W4: one finding per rights request made inside the closure.
    for req in graph.requests:
        if graph.actions[req.action].output not in full:
            continue
        answers = {_answer(kb, lic, req.usage) for lic in members(req.target_work)}
        if "reserved" in answers:
            code = "E4" if req.usage is Usage.SUBLICENSE else "E2"
            found.append((code, req.target_work))
        if "not stated" in answers:
            found.append(("W4", req.target_work))

    # The publication adds exclusive terms of its own.
    exclusive = any(
        Usage.COMMERCIAL in p.reserved or any(r.use_restrictions for r in p.rules)
        for p in (kb.licenses[lic] for lic in members(target))
        if p.framework is not LicenseFramework.PUBLIC_DOMAIN_LIKE
    )
    sharing = manner in (PublishManner.SHARE, PublishManner.SELL)
    for record in graph.rulings:
        rule = kb.rules[record.rule]
        subject = record.relied_work
        if record.work in contained:
            if manner is not PublishManner.INTERNAL:
                for restriction in rule.publish_restrictions:
                    if restriction in _PUBLISH_NOTICES:
                        found.append((_PUBLISH_NOTICES[restriction], subject))
            for restriction in rule.use_restrictions:
                if restriction in _USE_NOTICES:
                    found.append((_USE_NOTICES[restriction], subject))
            if (
                Restriction.NON_COMMERCIAL_OUTPUT in rule.use_restrictions
                and manner is PublishManner.SELL
            ):
                found.append(("E5", subject))
            if sharing and not rule.allow_sharing:
                found.append(("E3", subject))
            if exclusive and Restriction.GNU_FREEDOM in rule.publish_restrictions:
                found.append(("E7", subject))
            if exclusive and Restriction.CC_FREEDOM in rule.publish_restrictions:
                found.append(("E8", subject))
        if record.work not in full:
            continue
        # E9 fires once per Llama ruling and deriving action that feeds
        # the ruled work into a non-Llama output, as the engine does; the
        # catalog leaves that multiplicity open.
        if Restriction.LLAMA_EXCLUSIVE in rule.use_restrictions:
            for act in graph.actions.values():
                if (
                    act.kind in _DERIVING
                    and act.output in full
                    and any(inp.work == record.work for inp in act.inputs)
                    and graph.works[act.output].license != rule.license
                ):
                    found.append(("E9", record.work))
        if (
            Restriction.EXCLUSIVE_TERMS in rule.publish_restrictions
            and graph.works[record.work].license != rule.license
        ):
            found.append(("E10", record.work))

    # E6: a registered license that the source's terms forbid.
    for act in graph.actions.values():
        if act.kind is not ActionKind.REGISTER_LICENSE or act.output not in full:
            continue
        source = act.inputs[0].work
        new = act.license_to_register
        terms = [kb.rules[rule_id] for (wk, _, rule_id) in rulings if wk == source]
        forbidden = (
            any(
                rule.relicense is RelicensePolicy.NONE_ALLOWED and rule.license != new
                for rule in terms
            )
            or any(
                rule.relicense is RelicensePolicy.COMPATIBLE_ONLY
                and new not in kb.licenses[rule.license].compatible_with
                for rule in terms
            )
            or any(
                Usage.RELICENSE in kb.licenses[lic].reserved for lic in members(source)
            )
        )
        if forbidden:
            found.append(("E6", act.output))

    return [(code, subject, target) for code, subject in found]
