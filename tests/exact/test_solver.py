"""Tests for the scaled canonical solver.

The contract is byte-identical verdicts with :mod:`repro.exact.game`'s
naive explorer on every previously solvable point, plus the scaling
machinery itself: transposition-table reuse across heap sizes, the
bracketed search, single-process exploration at every ``--jobs``, and
the stats/report surface the benches and ``repro solve`` consume.
"""

import re

import pytest

from repro.exact.budgeted import BudgetedConfig, naive_program_wins_budgeted
from repro.exact.game import GameConfig, naive_program_wins
from repro.exact.solver import (
    GameSolver,
    formula_guess,
    solver_ceiling,
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GameSolver(0, 1)
        with pytest.raises(ValueError):
            GameSolver(4, 8)
        with pytest.raises(ValueError):
            GameSolver(4, 2, move_budget=-1)
        with pytest.raises(ValueError):
            GameSolver(4, 2, move_budget=128)  # budget field is 7 bits

    def test_heap_guards(self):
        solver = GameSolver(4, 2)
        with pytest.raises(ValueError):
            solver.solve(64)  # beyond the packed encoding
        with pytest.raises(ValueError):
            solver.solve(3)  # below the live bound


class TestParityWithNaive:
    @pytest.mark.parametrize("power_of_two", [True, False])
    def test_verdicts_match_on_micro_grid(self, power_of_two):
        for live in range(1, 6):
            for objects in range(1, live + 1):
                solver = GameSolver(
                    live, objects, power_of_two_sizes=power_of_two
                )
                for heap in range(live, live + 5):
                    config = GameConfig(
                        live, objects, heap,
                        power_of_two_sizes=power_of_two,
                    )
                    assert solver.program_wins(heap) == naive_program_wins(
                        config
                    ), (live, objects, heap, power_of_two)

    def test_known_game_values(self):
        values = {(2, 2): 2, (4, 2): 5, (4, 4): 5, (6, 2): 8}
        for (live, objects), expected in values.items():
            assert GameSolver(live, objects).minimum_heap_words() == expected

    def test_budgeted_parity(self):
        for live, objects in [(3, 2), (4, 2), (4, 4)]:
            for budget in range(3):
                solver = GameSolver(live, objects, move_budget=budget)
                for heap in range(live, live + 4):
                    config = BudgetedConfig(
                        GameConfig(live, objects, heap), budget
                    )
                    assert solver.program_wins(heap) == (
                        naive_program_wins_budgeted(config)
                    ), (live, objects, budget, heap)


class TestSearch:
    @pytest.mark.parametrize("live, objects", [(4, 2), (5, 2), (4, 3), (6, 2)])
    def test_modes_agree(self, live, objects):
        values = {
            mode: GameSolver(live, objects).minimum_heap_words(search=mode)
            for mode in ("linear", "gallop", "auto")
        }
        assert len(set(values.values())) == 1, values

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GameSolver(4, 2).minimum_heap_words(search="psychic")

    def test_formula_guess_within_ceiling(self):
        for live in range(1, 12):
            for objects in (1, 2, 4):
                if objects > live:
                    continue
                assert live <= formula_guess(live, objects)
                assert formula_guess(live, objects) <= solver_ceiling(
                    live, objects
                )


class TestTranspositionTables:
    def test_warm_walk_prunes(self):
        """The second probe of a walk reuses facts harvested by the
        first — fewer orbits than a cold solve of the same heap."""
        solver = GameSolver(6, 2)
        solver.minimum_heap_words()
        warm_orbits = {
            stats.heap_words: stats.orbits_visited
            for stats in solver.history
        }
        cold = GameSolver(6, 2, use_tt=False)
        for heap, orbits in warm_orbits.items():
            cold_report = cold.solve(heap)
            assert orbits <= cold_report.stats.orbits_visited

    def test_warm_hits_are_counted(self):
        solver = GameSolver(6, 2)
        solver.minimum_heap_words()
        assert sum(
            stats.tt_safe_hits + stats.tt_win_hits
            for stats in solver.history
        ) > 0

    def test_repeat_queries_are_cached(self):
        solver = GameSolver(4, 2)
        first = solver.minimum_heap_words()
        probes = len(solver.history)
        assert solver.minimum_heap_words() == first
        assert solver.program_wins(first) is False
        assert solver.program_wins(first - 1) is True
        assert len(solver.history) == probes  # watermarks, no new solves


class TestSingleProcess:
    def test_jobs_flag_forks_nothing_and_changes_nothing(
            self, monkeypatch, capsys):
        from repro.cli import main

        def without_timings(out):
            return [re.sub(r" wall=\S+|, [0-9.]+s\]$", "", line)
                    for line in out.splitlines()]

        argv = ["solve", "--live", "6", "--object", "2", "--stats"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = without_timings(capsys.readouterr().out)

        def no_pool(*args, **kwargs):
            raise AssertionError("a solve must not start a process pool")

        monkeypatch.setattr("repro.parallel.engine.ProcessPoolExecutor",
                            no_pool)
        assert main(argv + ["--jobs", "2"]) == 0
        assert without_timings(capsys.readouterr().out) == serial
        assert serial[0].endswith(": 8 words [solved")
        assert serial[1].startswith("probes: ")
        assert any(line.startswith("  H=") for line in serial)


class TestReportSurface:
    def test_stats_sanity(self):
        solver = GameSolver(6, 2)
        report = solver.solve(8)
        stats = report.stats
        assert not report.program_wins
        assert stats.orbits_visited == stats.p_orbits + stats.q_orbits
        assert stats.winning_orbits + stats.safe_orbits == (
            stats.orbits_visited
        )
        assert stats.epochs == len(stats.frontier_widths)
        assert stats.peak_frontier == max(stats.frontier_widths)
        assert stats.raw_successors >= stats.edges
        assert stats.as_dict()["heap_words"] == 8

    def test_manager_win_reports_are_settled(self):
        report = GameSolver(6, 2).solve(8)
        assert report.settled
        root = 0  # the empty state, program to move
        assert report.is_explored_safe(root)
        assert not report.is_winning(root)

    def test_ranks_mode(self):
        report = GameSolver(4, 2).solve(4, compute_ranks=True)
        assert report.program_wins
        assert report.rank is not None
        root_rank = report.node_rank(0)
        assert root_rank is not None and root_rank > 0

    def test_history_accumulates(self):
        solver = GameSolver(4, 2)
        solver.minimum_heap_words()
        assert len(solver.history) >= 2  # at least one win + one loss probe
        verdicts = {s.heap_words: s.program_wins for s in solver.history}
        assert verdicts[5] is False
        assert verdicts[4] is True
