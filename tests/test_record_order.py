"""The reasoner's derived records, pinned in the order it writes them.

The CLI sorts what it prints, so a change to the order of edges, rulings
or requests shows only in the record lists themselves. Each digest covers
`serialize_graph` of the reasoned graph and every edge, ruling and
request in list order, for one family of inputs with fuzz on or off.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from licflow import parse_workflow, run_all, serialize_graph

from _helpers import copy_chain, diamond_ladder
from graphgen import random_graph

_FIXTURES = Path(__file__).parent / "fixtures"

_FAMILIES = {
    "fixtures": lambda: [
        parse_workflow((_FIXTURES / f"{name}.mgw").read_text(encoding="utf-8"))
        for name in ("setting-i", "setting-ii", "setting-iii", "setting-iv",
                     "setting-free", "llama-train")
    ],
    "ladder": lambda: [diamond_ladder(6)],
    "chain": lambda: [copy_chain(40, "GPL-3.0")],
    "graphgen": lambda: [random_graph(seed, max_works=13) for seed in range(50)],
}

# Taken from the engine before its records became named tuples.
_DIGESTS = {
    ("fixtures", True):
        "6ac30b3ed489e8ff5b37e8aec876dba85783555ce591cbd3e5f247c9435d5ac2",
    ("fixtures", False):
        "0df6d72619598563d74fd7f33e497017343701833d1722afbce5dd327f5d5ca9",
    ("ladder", True):
        "13cb4c93a98b449796610645521f4922bb31db0e04c73c0809e58e091a6a8cac",
    ("ladder", False):
        "13cb4c93a98b449796610645521f4922bb31db0e04c73c0809e58e091a6a8cac",
    ("chain", True):
        "ef6d898c862b6df4e98116d7ba466dde9f28b1f788620697ee6ff26d59028401",
    ("chain", False):
        "ef6d898c862b6df4e98116d7ba466dde9f28b1f788620697ee6ff26d59028401",
    ("graphgen", True):
        "cc0849ed8346d0bafb427b77762147818eb56af142f43655ce53b8debe3030d3",
    ("graphgen", False):
        "4ea2902b2f9defee6307565bd223fea9ff6870a1867892254f95b7c388f67d9e",
}


def record_digest(family: str, fuzz: bool, kb) -> str:
    digest = hashlib.sha256()
    for graph in _FAMILIES[family]():
        reasoned, _ = run_all(graph, kb, fuzz)
        lines = [serialize_graph(reasoned)]
        lines += [f"{e.kind.value} {e.source} {e.target}" for e in reasoned.edges]
        lines += [f"{r.id} {r.output_def.value}" for r in reasoned.rulings]
        lines += [r.id for r in reasoned.requests]
        digest.update("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("family, fuzz", list(_DIGESTS))
def test_derived_records_keep_their_order(family, fuzz, seed_kb):
    assert record_digest(family, fuzz, seed_kb) == _DIGESTS[(family, fuzz)]
