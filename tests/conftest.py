"""Fixtures shared by the test modules."""

import pytest

from arl import losses


@pytest.fixture
def solve_passes(monkeypatch):
    """The passes of the tempered solve in a one-item list: a pass is one call of
    ``losses._exp_t_neg_args``, the name ``benchmark/run.py`` counts as ``SOLVE_PASS``."""
    passes = [0]
    exp_t_neg_args = losses._exp_t_neg_args

    def counted(X, s):
        passes[0] += 1
        return exp_t_neg_args(X, s)

    monkeypatch.setattr(losses, "_exp_t_neg_args", counted)
    return passes
