"""Shared fixtures."""

import pytest

from qmoney import sdp


@pytest.fixture()
def interior_point(monkeypatch):
    """The solver with its spectral first step switched off, so that every problem,
    flat ones included, is solved by the interior-point iteration."""
    monkeypatch.setattr(sdp, "_spectral_solution", lambda *args: None)
