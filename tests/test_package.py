import numpy as np
import pytest

import a2l
from a2l import bandit, dynamics, fisher
from a2l.games import generate_game


def test_every_export_resolves_to_a_callable_or_class():
    # a stale name in __all__ must not outlive the function it exported
    assert [name for name in a2l.__all__ if not callable(getattr(a2l, name, None))] == []


_RPS, _SPEC, _THEORY = generate_game("rps"), dynamics.LearnerSpec(), bandit.EpochSchedule.theory()
_MARKET = fisher.random_linear_market(2, 2, seed=0)
# The five run entry points, each a call of its count: T or epochs.
_COUNTED_RUNS = {
    "run_full_feedback": ("T", lambda k: dynamics.run_full_feedback(_RPS, _SPEC, k)),
    "run_prd": ("T", lambda k: fisher.run_prd(_MARKET, k)),
    "run_a2l_prd": ("T", lambda k: fisher.run_a2l_prd(_MARKET, k)),
    "run_bandit": ("epochs", lambda k: bandit.run_bandit(_RPS, _THEORY, epochs=k)),
    "run_bandit_vs_environment": ("epochs", lambda k: bandit.run_bandit_vs_environment(
        2, lambda t: np.array([1.0, 0.0]), _THEORY, 1 / 12, epochs=k)),
}


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "3", np.float64(3)], ids=repr)
@pytest.mark.parametrize("entry", sorted(_COUNTED_RUNS))
def test_every_run_refuses_a_count_that_is_not_a_positive_integer(entry, bad):
    name, run = _COUNTED_RUNS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got "):
        run(bad)


@pytest.mark.parametrize("entry", sorted(_COUNTED_RUNS))
def test_every_run_takes_a_numpy_integer_count(entry):
    _COUNTED_RUNS[entry][1](np.int64(3))
