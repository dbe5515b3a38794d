"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from licflow import KnowledgeBase, bundled_rules_dir, load_kb

# The shared helpers assert engine results against the naive oracles, so
# their asserts must be rewritten too, or `python -O` strips them.
pytest.register_assert_rewrite("_helpers", "oracleutil")


@pytest.fixture(scope="session")
def seed_kb() -> KnowledgeBase:
    return load_kb([bundled_rules_dir()])


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def setting_paths(fixtures_dir: Path) -> dict[str, Path]:
    return {
        "i": fixtures_dir / "setting-i.mgw",
        "ii": fixtures_dir / "setting-ii.mgw",
        "iii": fixtures_dir / "setting-iii.mgw",
        "iv": fixtures_dir / "setting-iv.mgw",
        "free": fixtures_dir / "setting-free.mgw",
        "llama": fixtures_dir / "llama-train.mgw",
        "relicense": fixtures_dir / "relicense.mgw",
    }
