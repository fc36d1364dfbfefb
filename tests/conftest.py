from __future__ import annotations

import gc
from pathlib import Path

import pytest

from bibnet.corpus import Organisation, Publication, build_corpus

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def abc_corpus():
    """Three orgs, three pubs: the hand-checkable pair-counting example."""
    orgs = [
        Organisation(id="A", name="Org A"),
        Organisation(id="B", name="Org B"),
        Organisation(id="C", name="Org C"),
    ]
    pubs = [
        Publication(id="p1", research_orgs=("A", "B", "C")),
        Publication(id="p2", research_orgs=("A", "B")),
        Publication(id="p3", research_orgs=("A",)),
    ]
    return build_corpus(pubs, orgs)


@pytest.fixture
def fixtures_dir() -> Path:
    assert FIXTURES_DIR.is_dir(), "run scripts/gen_fixtures.py to regenerate fixtures"
    return FIXTURES_DIR


@pytest.fixture
def collector_state():
    """Puts the cyclic collector back as the test found it: enabled or not,
    and with nothing left frozen that the test froze."""
    enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    yield
    if not frozen:
        gc.unfreeze()
    if enabled:
        gc.enable()
    else:
        gc.disable()
