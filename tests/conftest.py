"""Fixtures every test module shares."""

import pytest

from stabledp import verify


@pytest.fixture(autouse=True)
def empty_draw_memo():
    """Start every test with the oracles' draw memo empty.

    A test that patches sampling then draws through its patch, and is never
    served an earlier test's neighbours and probes.
    """
    verify._forget_draws()
