"""Acceptance criteria, one test each, at the stated sizes and tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines as they complete, or via ``bmlab acceptance``.
"""

import pytest

from bmlab.acceptance import CRITERIA, AcceptanceContext, run_criterion


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext(fast=False)


@pytest.mark.parametrize("number", range(1, len(CRITERIA) + 1))
def test_criterion(number, ctx):
    res = run_criterion(number, ctx)
    print(res.line())
    assert res.passed, f"criterion {number} failed: {res.details}"
