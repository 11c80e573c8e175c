"""Average-to-last-iterate learning dynamics in games with linear utilities."""

from .bandit import EpochSchedule, run_bandit
from .dynamics import (
    LearnerSpec,
    Trajectory,
    gradient_step_size,
    regret_report,
    run_full_feedback,
    run_full_feedback_batch,
)
from .fisher import FisherMarket, run_a2l_prd, run_prd, verify_ce
from .games import PolymatrixGame, generate_game, load_game, save_game
from .learners import MWU, OMWU, mwu_next, omwu_next, rvu_diagnostic
from .reduction import A2L, ProtocolError

__all__ = [
    "A2L",
    "EpochSchedule",
    "FisherMarket",
    "LearnerSpec",
    "MWU",
    "OMWU",
    "PolymatrixGame",
    "ProtocolError",
    "Trajectory",
    "generate_game",
    "gradient_step_size",
    "load_game",
    "mwu_next",
    "omwu_next",
    "regret_report",
    "run_a2l_prd",
    "run_bandit",
    "run_full_feedback",
    "run_full_feedback_batch",
    "run_prd",
    "rvu_diagnostic",
    "save_game",
    "verify_ce",
]

__version__ = "0.1.0"
