"""Golden collective pricing: bit-exact simulated seconds and comm records.

``tests/data/golden_pricing.json`` pins, for every BSP system under every
``--collective`` and ``--sparse-comm`` mode on a two-tier cluster (with
and without injected faults), the evaluation clock, every
:class:`~repro.engine.driver.CommRecord` and a digest of the gantt spans
— all as ``repr`` floats, so any change to how a collective is priced
shows up here as an exact mismatch.

The file was captured before the collectives were lowered to one
schedule type; a refactor of the pricing must reproduce it unchanged.
If a PR changes collective pricing *intentionally*, regenerate with::

    PYTHONPATH=src python tests/data/make_golden_pricing.py

and say so in the PR description.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from data.make_golden_pricing import cases, run_case

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_pricing.json"

CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_pricing_matches_golden(name, golden):
    fresh = run_case(**CASES[name])
    pinned = golden[name]
    assert fresh["seconds"] == pinned["seconds"], (
        f"{name}: simulated clock drifted from the golden pricing")
    assert fresh["comm"] == pinned["comm"], (
        f"{name}: comm records drifted from the golden pricing")
    assert fresh["spans"] == pinned["spans"], (
        f"{name}: gantt spans drifted from the golden pricing")


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
