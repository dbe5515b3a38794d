"""Report catalog: notices, warnings, and errors raised by the analyzer.

Each report has a stable code, a severity derived from that code, a subject
work (the work the wording refers to), and a target work (the work under
analysis when the report was raised, usually a published work). The wording
is fixed per code; only the subject's display name is interpolated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    """How serious a report is; drives the process exit class."""

    NOTICE = "notice"    # obligation to carry out, not a problem
    WARNING = "warning"  # risky or unusual, deserves review
    ERROR = "error"      # the workflow violates a license term


# Severity by a code's first letter, most serious first: the order is the sort rank.
_SEVERITY_BY_PREFIX = {"E": Severity.ERROR, "W": Severity.WARNING, "N": Severity.NOTICE}


class ReportCode(Enum):
    """Stable identifiers for every report the analyzer can emit."""

    __hash__ = object.__hash__
    N1 = "N1"    # retain original license file
    N2 = "N2"    # retain notices
    N3 = "N3"    # state modifications
    N4 = "N4"    # derivative impact report
    W1 = "W1"    # license not intended for this work type
    W2 = "W2"    # revocable license
    W3 = "W3"    # revocability not claimed
    W4 = "W4"    # required right not explicitly granted
    W5 = "W5"    # must disclose own source
    W6 = "W6"    # must disclose unmodified source
    W7 = "W7"    # usage behavior restrictions apply
    W8 = "W8"    # runtime restriction clause
    E1 = "E1"    # work type inconsistent with form
    E2 = "E2"    # required right reserved
    E3 = "E3"    # redistribution prohibited
    E4 = "E4"    # sublicensing prohibited
    E5 = "E5"    # commercial use prohibited
    E6 = "E6"    # invalid relicensing
    E7 = "E7"    # GNU freedom clauses violated
    E8 = "E8"    # CC freedom clauses violated
    E9 = "E9"    # Llama output used outside Llama derivatives
    E10 = "E10"  # prohibited additional terms

    def __init__(self, value: str) -> None:
        # Fixed once per member, so that sorting and exit classes read plain
        # attributes: rank orders errors, warnings, notices, then number.
        self.severity = _SEVERITY_BY_PREFIX[value[0]]
        self.number = int(value[1:])
        self.rank = (list(_SEVERITY_BY_PREFIX).index(value[0]), self.number)


TEMPLATES: dict[ReportCode, str] = {
    ReportCode.N1: "The original license file from {work} should be retained.",
    ReportCode.N2: "The notices (e.g., attribution, copyright, patent, trademark) from {work} should be retained.",
    ReportCode.N3: "A notice stating the modifications made to {work} should be provided.",
    ReportCode.N4: "You need to complete a Derivative Impact Report.",
    ReportCode.W1: "Non-standard licensing of {work}.",
    ReportCode.W2: "The license of {work} is revocable.",
    ReportCode.W3: "The revocability of the license of {work} is not claimed.",
    ReportCode.W4: "The required right is not explicitly granted by {work}.",
    ReportCode.W5: "This work should disclose its source code.",
    ReportCode.W6: "The unmodified source code of {work} should be disclosed.",
    ReportCode.W7: "The use of this work must comply with the usage behavior restrictions of {work}.",
    ReportCode.W8: "There is a runtime restriction clause in {work} (e.g., forced updates).",
    ReportCode.E1: "The type of {work} is inconsistent with its form.",
    ReportCode.E2: "The required right is reserved by the license of {work}.",
    ReportCode.E3: "Redistribution of this work is prohibited.",
    ReportCode.E4: "Sublicensing of {work} is prohibited.",
    ReportCode.E5: "Commercial use of {work} is prohibited.",
    ReportCode.E6: "The license of this work is invalid because {work} cannot be relicensed, or relicensing is prohibited.",
    ReportCode.E7: "The additional terms applied in this work may violate the GNU freedom clauses of {work}.",
    ReportCode.E8: "The additional terms applied in this work may violate the CC freedom clauses of {work}.",
    ReportCode.E9: "Using Llama 2/3's output in non-Llama 2/3 derivatives is prohibited.",
    ReportCode.E10: "The additional terms applied in this work are prohibited by the license of {work}.",
}


@dataclass(frozen=True)
class Report:
    """One finding: a coded message about a subject work, raised for a target work."""

    code: ReportCode  # catalog code, e.g. E2
    subject: str      # id of the work the wording refers to
    target: str       # id of the work under analysis when raised
    content: str      # rendered wording

    @property
    def severity(self) -> Severity:
        return self.code.severity


def render(code: ReportCode, subject_name: str) -> str:
    """Render the fixed wording for a code with the subject's display name."""
    return TEMPLATES[code].format(work=subject_name)


def sort_reports(reports: list[Report]) -> list[Report]:
    """Deterministic presentation order: errors, warnings, notices; then code and subject."""
    return sorted(reports, key=lambda r: (r.code.rank, r.subject, r.target))


def parse_code(text: str) -> ReportCode:
    """Look up a code from its string form, e.g. "E2"."""
    text = text.strip().upper()
    if not re.fullmatch(r"[NWE]\d+", text):
        raise ValueError(f"not a report code: {text!r}")
    try:
        return ReportCode(text)
    except ValueError:
        raise ValueError(f"unknown report code: {text!r}") from None
