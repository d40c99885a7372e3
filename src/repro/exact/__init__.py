"""Exact game-theoretic ground truth for micro-heaps.

The paper's model is a program-vs-manager game; this package solves it
*exactly* for tiny parameters (attractor computation on the finite game
graph), giving ground truth that anchors the analytic bounds — see
:mod:`repro.exact.game` for the model and
:mod:`repro.exact.solver` for the scaled engine (canonical orbits,
transposition tables, bracketed search).  A solve runs in the calling
process: fanning its frontier out to worker processes cost more in
pickling than the successor generation it moved.
"""

from .adversary import ExactAdversaryProgram, solve_program_strategy
from .budgeted import (
    BudgetedConfig,
    compaction_value_curve,
    minimum_heap_words_budgeted,
    naive_program_wins_budgeted,
    program_wins_budgeted,
)
from .canonical import (
    MAX_HEAP_WORDS,
    canonical_code,
    decode_state,
    encode_state,
    mirror_state,
)
from .game import (
    GameConfig,
    exact_waste_factor,
    manager_placements,
    minimum_heap_words,
    naive_program_wins,
    program_moves,
    program_wins,
)
from .solver import GameSolver, SolveReport, SolveStats, solver_ceiling
from .strategy import OptimalMicroManager, solve_strategy

__all__ = [
    "BudgetedConfig",
    "ExactAdversaryProgram",
    "GameConfig",
    "GameSolver",
    "MAX_HEAP_WORDS",
    "OptimalMicroManager",
    "SolveReport",
    "SolveStats",
    "canonical_code",
    "compaction_value_curve",
    "decode_state",
    "encode_state",
    "exact_waste_factor",
    "manager_placements",
    "minimum_heap_words",
    "minimum_heap_words_budgeted",
    "mirror_state",
    "naive_program_wins",
    "naive_program_wins_budgeted",
    "program_moves",
    "program_wins",
    "program_wins_budgeted",
    "solve_program_strategy",
    "solve_strategy",
    "solver_ceiling",
]
