"""The scaled attractor solver behind :func:`minimum_heap_words`.

The naive solver in :mod:`repro.exact.game` materializes every state
tuple and a predecessor ``set`` per node; it stops around ``M = 8``.
This module rebuilds the same computation for scale while keeping every
verdict identical (the differential suite in ``tests/exact`` and the
``solver-parity`` CI step enforce that):

**Canonical states.**  Nodes are explored one per reflection orbit
(:mod:`repro.exact.canonical`): mirroring the heap is the one game
automorphism available, and halves the graph.  The stronger multiset
abstraction the paper's prose suggests is unsound — see the canonical
module's docstring.

**Compact encoding.**  A node is a single interned integer —
``state_code << 7 | tag`` with tag ``0`` for program nodes and
``64 | size`` for manager nodes (budgeted games splice a 7-bit budget
between state and tag).  Adjacency is two flat ``array('q')`` edge
lists; the attractor runs over a reverse CSR built by one stable
counting sort (numpy-accelerated when available, bit-identical without
it).  No per-node tuples or sets survive exploration.

**Transposition tables.**  Verdicts transfer across heap sizes: a
state the manager can hold at ``H`` words is safe in any larger heap
(ignore the extra words), and a state the program wins at ``H`` is won
in any smaller heap it fits in.  Each solve harvests its full verdict
map into two tables (``safe``: minimum safe ``H``; ``win``: maximum
winning ``H``) and later solves prune whole subgraphs at discovery
time.  Tables are keyed by *unmirrored* encodings of both orientations
because the mirror map itself depends on ``H``.

**Bracketed search.**  ``2^H``-ish node growth means the largest heap
probed dominates the walk, so :meth:`GameSolver.minimum_heap_words`
probes Robson's closed form first (when it is exact — every point
measured so far — the answer costs two solves: one manager win at the
formula value, one program win just below) and falls back to a
galloped bracket plus binary search, every probe sharing the
transposition tables.  The seeded-region idea from the roadmap is
realized by these tables: safe regions flow up the walk, winning
regions flow down.

**One process.**  Exploration is level-synchronous BFS in the calling
process.  The base game runs a fused generate-and-consume loop;
budgeted games generate each node's candidates with
:func:`_node_candidates` and consume them in frontier order.  A
process pool does not pay for itself here: workers could only generate
candidates while the parent still interned every one, and pickling the
lists back cost more than generating them.  Measured at (8,4) on a
2-core host, 27 per-epoch pools took 1.34 s of a 2.08 s solve, and the
widest epoch (7,582 nodes) spent 0.165 s in the pool against about
0.13 s (17 µs an orbit) in process.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import deque
from dataclasses import dataclass, field

from .canonical import (
    ADDRESS_BITS,
    SEGMENT_BITS,
    check_heap_words,
    encode_mirror,
    encode_state,
)
from .game import State

__all__ = [
    "GameSolver",
    "SolveReport",
    "SolveStats",
    "solver_ceiling",
    "formula_guess",
]

#: Node-key tag layout: low 7 bits are ``0`` for a program (P) node and
#: ``Q_FLAG | size`` for a manager (Q) node awaiting a placement.
TAG_BITS = 7
Q_FLAG = 1 << 6
SIZE_MASK = Q_FLAG - 1
_CHUNK_MASK = (1 << SEGMENT_BITS) - 1
#: Budgeted games splice the remaining move budget between the state
#: code and the tag, bounding budgets at 127 words.
BUDGET_BITS = 7
MAX_MOVE_BUDGET = (1 << BUDGET_BITS) - 1

# Node status codes.  "Derived" facts are new knowledge harvested into
# the transposition tables; "tt" facts came *from* the tables.
_OPEN = 0
_WIN = 1          # derived winning (attractor / dead end / truncation)
_SAFE_TT = 2      # known safe via the transposition table
_SAFE = 3         # derived safe (manager keeps a safe placement)
_WIN_TT = 4       # known winning via the transposition table

_ENV_NO_NUMPY = "REPRO_SOLVER_NUMPY"


def request_sizes(max_object: int, power_of_two_sizes: bool) -> tuple[int, ...]:
    """The request-size family (mirrors ``GameConfig.sizes``)."""
    if power_of_two_sizes:
        return tuple(
            1 << e for e in range(max_object.bit_length())
            if (1 << e) <= max_object
        )
    return tuple(range(1, max_object + 1))


def solver_ceiling(live_bound: int, max_object: int) -> int:
    """The analytic search ceiling (Robson's bound, rounded up)."""
    log_n = max(1, max_object).bit_length() - 1
    return live_bound * (log_n + 2) + max_object + 1


def formula_guess(live_bound: int, max_object: int) -> int:
    """Robson's closed form ``M (log2 n / 2 + 1) - n + 1``, floored.

    Only a *guess* to aim the bracketed search — correctness never
    depends on it.  Exact at every micro point solved so far.
    """
    log_n = max(1, max_object).bit_length() - 1
    return max(
        live_bound,
        live_bound * (log_n + 2) // 2 - max_object + 1,
    )


def _numpy_csr_enabled() -> bool:
    """Whether the vectorized CSR successor kernel is allowed.

    Value-neutral by contract: both backends are pinned byte-identical
    by the parity suites, so the toggle may stay out of the result
    cache key (``StaticCheckConfig.cache_neutral_env_vars`` declares
    ``REPRO_SOLVER_NUMPY``; the ``cache-key-completeness`` rule holds
    every other env read in solve scope to the digest).
    """
    return os.environ.get(_ENV_NO_NUMPY, "1") != "0"


# ---------------------------------------------------------------------------
# Successor generation (budgeted games; the base game fuses it inline)
# ---------------------------------------------------------------------------

def _node_candidates(
    key: int,
    alt_scode: int,
    heap_words: int,
    live_bound: int,
    sizes: tuple[int, ...],
    move_budget: int | None,
) -> list[int]:
    """Successor candidates of one canonical node, deterministic order.

    ``alt_scode`` is the encoding of the node's *other* orientation
    (its mirror; equal to the canonical code for palindromes) — with
    both orientations of the parent in hand, every child encoding is a
    chunk splice on the parent's packed integers, so the hot path
    builds no intermediate tuples and never re-encodes a state.

    Returns a flat list alternating ``successor_key,
    other_orientation_state_code`` (flat to spare a tuple allocation
    per successor).  Pure function of its arguments; duplicates are
    *not* removed here (the solver dedupes while interning).
    """
    if move_budget is None:
        state_shift = TAG_BITS
        mid_bits = 0
    else:
        state_shift = TAG_BITS + BUDGET_BITS
        mid_bits = key & (MAX_MOVE_BUDGET << TAG_BITS)
    tag = key & (Q_FLAG | SIZE_MASK)
    code = key >> state_shift
    mirror = alt_scode
    chunk_bits = SEGMENT_BITS
    addr_bits = ADDRESS_BITS
    rep_addr: list[int] = []
    rep_size: list[int] = []
    remaining = code
    while remaining:
        chunk = remaining & _CHUNK_MASK
        rep_addr.append(chunk >> addr_bits)
        rep_size.append(chunk & SIZE_MASK)
        remaining >>= chunk_bits
    count = len(rep_addr)
    out: list[int] = []
    append = out.append
    if not tag & Q_FLAG:
        # Program node: frees keep the turn, requests hand it over.
        # Freeing segment ``j`` drops chunk ``j`` of the code and chunk
        # ``count-1-j`` of the mirror code (mirror chunks are reversed).
        top = (count - 1) * chunk_bits
        for j in range(count):
            low = j * chunk_bits
            cc = (code & ((1 << low) - 1)) | (
                (code >> (low + chunk_bits)) << low
            )
            high = top - low
            mm = (mirror & ((1 << high) - 1)) | (
                (mirror >> (high + chunk_bits)) << high
            )
            if cc <= mm:
                append((cc << state_shift) | mid_bits)
                append(mm)
            else:
                append((mm << state_shift) | mid_bits)
                append(cc)
        live = sum(rep_size)
        base = (code << state_shift) | mid_bits | Q_FLAG
        for size in sizes:
            if live + size <= live_bound:
                append(base | size)
                append(mirror)
        return out
    size = tag & SIZE_MASK
    if move_budget is not None:
        budget = (key >> TAG_BITS) & MAX_MOVE_BUDGET
        # Moves (stay on turn, spend the moved size from the budget).
        # Cold path — budgeted games are small — so plain tuples.
        rep = tuple(zip(rep_addr, rep_size))
        for index, (seg_address, seg_size) in enumerate(rep):
            if seg_size > budget:
                continue
            rest = rep[:index] + rep[index + 1:]
            child_mid = (budget - seg_size) << TAG_BITS
            for target in range(heap_words - seg_size + 1):
                if target == seg_address:
                    continue
                if not _fits_sorted(rest, target, seg_size):
                    continue
                moved = _insert_sorted(rest, target, seg_size)
                cc = encode_state(moved)
                mm = encode_mirror(moved, heap_words)
                if cc > mm:
                    cc, mm = mm, cc
                append((cc << state_shift) | child_mid | Q_FLAG | size)
                append(mm)
    # Placements (answer the request, yield the turn).  Walk the free
    # gaps of the sorted representative, addresses ascending; placing
    # at rep position ``i`` splices a chunk into the code at position
    # ``i`` and into the mirror code at position ``count - i``.
    chunk_base = size  # (address << ADDRESS_BITS) | size, address = 0
    mirror_base = ((heap_words - size) << addr_bits) | size
    previous_end = 0
    position = 0
    while True:
        if position < count:
            gap_limit = rep_addr[position] - size
        else:
            gap_limit = heap_words - size
        if gap_limit >= previous_end:
            low = position * chunk_bits
            code_low = code & ((1 << low) - 1)
            code_high = (code >> low) << (low + chunk_bits)
            high = (count - position) * chunk_bits
            mirror_low = mirror & ((1 << high) - 1)
            mirror_high = (mirror >> high) << (high + chunk_bits)
            for address in range(previous_end, gap_limit + 1):
                offset = address << addr_bits
                cc = code_low | ((chunk_base + offset) << low) | code_high
                mm = (mirror_low | ((mirror_base - offset) << high)
                      | mirror_high)
                if cc > mm:
                    cc, mm = mm, cc
                append((cc << state_shift) | mid_bits)
                append(mm)
        if position == count:
            break
        previous_end = rep_addr[position] + rep_size[position]
        position += 1
    return out


def _fits_sorted(state: State, address: int, size: int) -> bool:
    """Overlap test against a sorted segment tuple (bounds pre-checked
    by the caller's target range)."""
    end = address + size
    for seg_address, seg_size in state:
        if seg_address >= end:
            return True
        if address < seg_address + seg_size:
            return False
    return True


def _insert_sorted(state: State, address: int, size: int) -> State:
    """Insert a segment into a sorted tuple, preserving order."""
    for index, (seg_address, _) in enumerate(state):
        if seg_address > address:
            return state[:index] + ((address, size),) + state[index:]
    return state + ((address, size),)


# ---------------------------------------------------------------------------
# Per-solve results
# ---------------------------------------------------------------------------

@dataclass
class SolveStats:
    """Counters from one attractor solve (one heap size)."""

    heap_words: int
    program_wins: bool
    orbits_visited: int = 0
    p_orbits: int = 0
    q_orbits: int = 0
    raw_successors: int = 0
    edges: int = 0
    epochs: int = 0
    frontier_widths: list[int] = field(default_factory=list)
    tt_safe_hits: int = 0
    tt_win_hits: int = 0
    winning_orbits: int = 0
    safe_orbits: int = 0
    wall_seconds: float = 0.0  # lint: float-ok - measurement, not budget

    @property
    def peak_frontier(self) -> int:
        return max(self.frontier_widths, default=0)

    def as_dict(self) -> dict[str, object]:
        return {
            "heap_words": self.heap_words,
            "program_wins": self.program_wins,
            "orbits_visited": self.orbits_visited,
            "p_orbits": self.p_orbits,
            "q_orbits": self.q_orbits,
            "raw_successors": self.raw_successors,
            "edges": self.edges,
            "epochs": self.epochs,
            "peak_frontier": self.peak_frontier,
            "frontier_widths": list(self.frontier_widths),
            "tt_safe_hits": self.tt_safe_hits,
            "tt_win_hits": self.tt_win_hits,
            "winning_orbits": self.winning_orbits,
            "safe_orbits": self.safe_orbits,
            "wall_seconds": round(self.wall_seconds, 6),
        }


@dataclass
class SolveReport:
    """One solved heap size, with the tables strategy extraction needs."""

    heap_words: int
    program_wins: bool
    stats: SolveStats
    index: dict[int, int]
    keys: list[int]
    status: bytearray
    rank: list[int] | None
    state_shift: int
    #: True when exploration and attractor ran to completion, so every
    #: node's status is final (strategy extraction requires this);
    #: False when the solve stopped early because the root resolved.
    settled: bool = True

    def node_status(self, key: int) -> int | None:
        node = self.index.get(key)
        return None if node is None else self.status[node]

    def is_winning(self, key: int) -> bool:
        node = self.index.get(key)
        return node is not None and self.status[node] in (_WIN, _WIN_TT)

    def is_explored_safe(self, key: int) -> bool:
        node = self.index.get(key)
        return node is not None and self.status[node] not in (_WIN, _WIN_TT)

    def node_rank(self, key: int) -> int | None:
        if self.rank is None:
            return None
        node = self.index.get(key)
        if node is None:
            return None
        value = self.rank[node]
        return None if value < 0 else value


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

class GameSolver:
    """Canonical attractor solver for one ``(M, n, family[, budget])``.

    Holds the cross-``H`` transposition tables, so one instance walking
    several heap sizes shares work between them; fresh instances are
    fully independent (the benches construct one per measurement).
    """

    def __init__(
        self,
        live_bound: int,
        max_object: int,
        *,
        power_of_two_sizes: bool = True,
        move_budget: int | None = None,
        use_tt: bool = True,
    ) -> None:
        if live_bound < 1:
            raise ValueError("live_bound must be at least 1")
        if not 1 <= max_object <= live_bound:
            raise ValueError("need 1 <= max_object <= live_bound")
        if max_object > SIZE_MASK:
            raise ValueError(
                f"packed encoding bounds max_object at {SIZE_MASK}"
            )
        if move_budget is not None and not 0 <= move_budget <= MAX_MOVE_BUDGET:
            raise ValueError(
                f"need 0 <= move_budget <= {MAX_MOVE_BUDGET}"
            )
        self.live_bound = live_bound
        self.max_object = max_object
        self.power_of_two_sizes = power_of_two_sizes
        self.move_budget = move_budget
        self.sizes = request_sizes(max_object, power_of_two_sizes)
        self.use_tt = use_tt
        self._state_shift = (
            TAG_BITS if move_budget is None else TAG_BITS + BUDGET_BITS
        )
        #: unmirrored node key -> minimum heap where the manager holds it
        self._safe_tt: dict[int, int] = {}
        #: unmirrored node key -> maximum heap where the program wins it
        self._win_tt: dict[int, int] = {}
        # Verdict watermarks: program wins below, manager wins above.
        self._max_program_win = live_bound - 1
        self._min_manager_win: int | None = None
        self._value: int | None = None
        #: :class:`SolveStats` of every real solve, in order.
        self.history: list[SolveStats] = []

    # -- public API ---------------------------------------------------------

    def program_wins(self, heap_words: int) -> bool:
        """Verdict at one heap size (watermark-cached across calls)."""
        if heap_words <= self._max_program_win:
            return True
        if (self._min_manager_win is not None
                and heap_words >= self._min_manager_win):
            return False
        return self.solve(heap_words).program_wins

    def minimum_heap_words(self, *, search: str = "auto") -> int:
        """The exact game value — least ``H`` where the manager wins.

        ``search`` picks the walk: ``"auto"`` brackets around the
        analytic guess (default), ``"gallop"`` doubles upward from
        ``M`` then bisects, ``"linear"`` replays the naive upward walk.
        All three share the transposition tables and return identical
        values; only the probe sequence (and hence the wall clock)
        differs.
        """
        if self._value is not None:
            return self._value
        if search == "linear":
            value = self._search_linear()
        elif search == "gallop":
            value = self._search_bracket(self.live_bound)
        elif search == "auto":
            value = self._search_bracket(
                min(formula_guess(self.live_bound, self.max_object),
                    self.ceiling())
            )
        else:
            raise ValueError(f"unknown search mode: {search!r}")
        self._value = value
        return value

    def ceiling(self) -> int:
        return solver_ceiling(self.live_bound, self.max_object)

    # -- search strategies --------------------------------------------------

    def _search_linear(self) -> int:
        heap = self.live_bound
        ceiling = self.ceiling()
        while heap <= ceiling:
            if not self.program_wins(heap):
                return heap
            heap += 1
        raise AssertionError(
            "exact search exceeded the analytic ceiling — solver bug"
        )

    def _search_bracket(self, guess: int) -> int:
        """Bracket the game value around ``guess``.

        The guess is probed first: when it is exact (every point
        measured so far), the walk costs one full solve at the guess
        plus one verify solve just below it — and the verify solve is
        truncated by the winning orbits the first solve harvested
        (program wins transfer to smaller heaps, and every placement
        into a known-winning position prunes at discovery).  When the
        guess is off, the gallop/bisection probes keep sharing the
        tables: manager-win solves seed safe facts for the larger
        probes, program-win solves seed winning facts for the smaller
        ones.
        """
        ceiling = self.ceiling()
        if not self.program_wins(guess):
            # Manager wins at the guess; the value is at or below it.
            if guess == self.live_bound or self.program_wins(guess - 1):
                return guess
            low = self.live_bound - 1  # virtual program win below M
            high = guess - 1
        else:
            low = guess
            step = 1
            high = None
            while high is None:
                probe = min(low + step, ceiling)
                if not self.program_wins(probe):
                    high = probe
                elif probe >= ceiling:
                    raise AssertionError(
                        "exact search exceeded the analytic ceiling — "
                        "solver bug"
                    )
                else:
                    low = probe
                    step *= 2
        while high - low > 1:
            mid = (high + low) // 2
            if self.program_wins(mid):
                low = mid
            else:
                high = mid
        return high

    # -- the solve ----------------------------------------------------------

    def solve(
        self,
        heap_words: int,
        *,
        compute_ranks: bool = False,
        use_tt: bool | None = None,
    ) -> SolveReport:
        """Explore the canonical game graph at ``heap_words`` and run
        the full attractor.

        ``compute_ranks`` switches the attractor to FIFO order and
        records per-node attractor ranks (strategy extraction needs
        them); it also disables truncation-by-known-winner so ranks
        match the naive definition.  ``use_tt`` overrides the
        instance-wide setting; extraction solves pass ``False`` so the
        explored graph covers every reachable orbit.
        """
        check_heap_words(heap_words)
        if heap_words < self.live_bound:
            raise ValueError(
                "heap_words below live_bound is trivially unwinnable"
            )
        tt_enabled = self.use_tt if use_tt is None else use_tt
        if compute_ranks:
            tt_enabled = False
        started = time.perf_counter()  # lint: float-ok - wall timing
        heap = heap_words
        shift = self._state_shift
        low_mask = (1 << shift) - 1
        safe_tt = self._safe_tt
        win_tt = self._win_tt
        sizes = self.sizes
        live_bound = self.live_bound
        move_budget = self.move_budget

        index: dict[int, int] = {}
        keys: list[int] = []
        alts: list[int] = []
        status = bytearray()
        pending: list[int] = []
        edge_src = array("q")
        edge_dst = array("q")
        seeds: list[int] = []
        frontier: list[int] = []

        stats = SolveStats(heap_words=heap, program_wins=False)
        # Tables only fill at harvest, so within one solve the read
        # guard is stable; the first solve skips the lookups entirely.
        tt_read = tt_enabled and bool(safe_tt or win_tt)

        def discover(ckey: int, alt_code: int) -> int:
            # Callers check ``index`` first; this is the miss path.
            state = _OPEN
            if tt_read:
                alt_key = (alt_code << shift) | (ckey & low_mask)
                known = safe_tt.get(ckey)
                if (known is not None and known <= heap) or (
                    alt_key != ckey
                    and (known := safe_tt.get(alt_key)) is not None
                    and known <= heap
                ):
                    state = _SAFE_TT
                    stats.tt_safe_hits += 1
                else:
                    known = win_tt.get(ckey)
                    if (known is not None and known >= heap) or (
                        alt_key != ckey
                        and (known := win_tt.get(alt_key)) is not None
                        and known >= heap
                    ):
                        state = _WIN_TT
                        stats.tt_win_hits += 1
            node = len(keys)
            index[ckey] = node
            keys.append(ckey)
            alts.append(alt_code)
            status.append(state)
            pending.append(0)
            if state == _OPEN:
                frontier.append(node)
            elif state == _WIN_TT:
                seeds.append(node)
            return node

        root_key = (
            0 if move_budget is None else move_budget << TAG_BITS
        )
        discover(root_key, 0)

        # -- level-synchronous exploration ---------------------------------
        # Candidate lists are NOT deduplicated: a duplicate successor
        # adds a duplicate edge, which increments ``alive`` and is
        # decremented once per occurrence by the attractor, so pending
        # counts stay consistent and verdicts are unaffected.
        #
        # Two exploration paths produce identical decisions: a fused
        # generate-and-consume loop (base game — no candidate lists
        # are materialized and truncation stops *generation*, not just
        # consumption), and a two-phase path over
        # :func:`_node_candidates` output (budgeted games).
        # ``raw_successors`` counts candidates actually generated: the
        # two-phase path generates a node's whole list before a
        # truncation is seen, so it counts those tails too.
        index_get = index.get
        src_append = edge_src.append
        dst_append = edge_dst.append
        seeds_append = seeds.append
        raw_successors = 0
        fuse_serial = move_budget is None
        chunk_bits = SEGMENT_BITS
        addr_bits = ADDRESS_BITS
        settled = True  # exploration + attractor ran to completion
        while frontier:
            if status[0] != _OPEN and not compute_ranks:
                # The root resolved during exploration (possible with
                # warm tables): the verdict is already known, so stop
                # expanding; unsettled statuses are excluded from the
                # harvest below.
                settled = False
                break
            current = frontier
            frontier = []
            stats.epochs += 1
            stats.frontier_widths.append(len(current))
            if not fuse_serial:
                for node in current:
                    candidates = _node_candidates(
                        keys[node], alts[node], heap, live_bound, sizes,
                        move_budget,
                    )
                    flat_length = len(candidates)
                    raw_successors += flat_length >> 1
                    if keys[node] & Q_FLAG:
                        alive = 0
                        for cursor in range(0, flat_length, 2):
                            ckey = candidates[cursor]
                            child = index_get(ckey)
                            if child is None:
                                child = discover(
                                    ckey, candidates[cursor + 1]
                                )
                            child_status = status[child]
                            if (child_status == _SAFE_TT
                                    or child_status == _SAFE):
                                # Some answer is provably safe: this
                                # manager node is safe; stop.
                                status[node] = _SAFE
                                alive = -1
                                break
                            if (child_status == _WIN
                                    or child_status == _WIN_TT
                                    ) and not compute_ranks:
                                # Known lost answer: skipping the edge
                                # pre-pays the attractor's pending
                                # decrement.  (Ranks mode keeps the
                                # edge so Q ranks match the naive
                                # max-over-successors definition.)
                                continue
                            src_append(node)
                            dst_append(child)
                            alive += 1
                        if alive == 0:
                            # No placement helps (dead end, or every
                            # answer known winning): the program wins.
                            status[node] = _WIN
                            seeds_append(node)
                        elif alive > 0:
                            pending[node] = alive
                    else:
                        for cursor in range(0, flat_length, 2):
                            ckey = candidates[cursor]
                            child = index_get(ckey)
                            if child is None:
                                child = discover(
                                    ckey, candidates[cursor + 1]
                                )
                            child_status = status[child]
                            if (child_status == _WIN
                                    or child_status == _WIN_TT):
                                if not compute_ranks:
                                    # Some move is provably winning:
                                    # this program node wins; stop.
                                    status[node] = _WIN
                                    seeds_append(node)
                                    break
                                src_append(node)
                                dst_append(child)
                            elif (child_status != _SAFE_TT
                                  and child_status != _SAFE):
                                src_append(node)
                                dst_append(child)
                continue
            # Fused path (base game).  Mirrors
            # :func:`_node_candidates` exactly — same chunk splices,
            # same order — with the consumption decisions inlined.
            # Chunks are non-zero, so the segment count falls out of
            # ``bit_length`` and states are peeled without temporary
            # lists; within one gap, consecutive child encodings
            # differ by a constant, so the inner loop steps two
            # cursors instead of re-splicing.
            for node in current:
                key = keys[node]
                code = key >> shift
                mirror = alts[node]
                count = (
                    (code.bit_length() + chunk_bits - 1) // chunk_bits
                )
                if key & Q_FLAG:
                    # Manager node: placements, gap by gap.
                    size = key & SIZE_MASK
                    mirror_base = ((heap - size) << addr_bits) | size
                    alive = 0
                    previous_end = 0
                    position = 0
                    remaining = code
                    while True:
                        if position < count:
                            chunk = remaining & _CHUNK_MASK
                            gap_limit = (chunk >> addr_bits) - size
                        else:
                            gap_limit = heap - size
                        if gap_limit >= previous_end:
                            low = position * chunk_bits
                            high = (count - position) * chunk_bits
                            start = previous_end << addr_bits
                            cc_cursor = (
                                (code & ((1 << low) - 1))
                                | ((size + start) << low)
                                | ((code >> low) << (low + chunk_bits))
                            )
                            mm_cursor = (
                                (mirror & ((1 << high) - 1))
                                | ((mirror_base - start) << high)
                                | ((mirror >> high) << (high + chunk_bits))
                            )
                            cc_step = 1 << (low + addr_bits)
                            mm_step = 1 << (high + addr_bits)
                            raw_successors += gap_limit + 1 - previous_end
                            for _ in range(previous_end, gap_limit + 1):
                                cc = cc_cursor
                                mm = mm_cursor
                                cc_cursor += cc_step
                                mm_cursor -= mm_step
                                if cc > mm:
                                    cc, mm = mm, cc
                                ckey = cc << shift
                                child = index_get(ckey)
                                if child is None:
                                    child = discover(ckey, mm)
                                child_status = status[child]
                                if (child_status == _SAFE_TT
                                        or child_status == _SAFE):
                                    status[node] = _SAFE
                                    alive = -1
                                    break
                                if (child_status == _WIN
                                        or child_status == _WIN_TT):
                                    # Known lost placement: skip the
                                    # edge (pre-paid decrement).
                                    continue
                                src_append(node)
                                dst_append(child)
                                alive += 1
                            if alive < 0:
                                break
                        if position == count:
                            break
                        previous_end = (
                            (chunk >> addr_bits) + (chunk & SIZE_MASK)
                        )
                        remaining >>= chunk_bits
                        position += 1
                    if alive == 0:
                        status[node] = _WIN
                        seeds_append(node)
                    elif alive > 0:
                        pending[node] = alive
                    continue
                # Program node: frees, then requests.
                top = (count - 1) * chunk_bits
                truncated = False
                for j in range(count):
                    low = j * chunk_bits
                    cc = (code & ((1 << low) - 1)) | (
                        (code >> (low + chunk_bits)) << low
                    )
                    high = top - low
                    mm = (mirror & ((1 << high) - 1)) | (
                        (mirror >> (high + chunk_bits)) << high
                    )
                    raw_successors += 1
                    if cc > mm:
                        cc, mm = mm, cc
                    ckey = cc << shift
                    child = index_get(ckey)
                    if child is None:
                        child = discover(ckey, mm)
                    child_status = status[child]
                    if child_status == _WIN or child_status == _WIN_TT:
                        if not compute_ranks:
                            status[node] = _WIN
                            seeds_append(node)
                            truncated = True
                            break
                        src_append(node)
                        dst_append(child)
                    elif (child_status != _SAFE_TT
                          and child_status != _SAFE):
                        src_append(node)
                        dst_append(child)
                if truncated:
                    continue
                live = 0
                remaining = code
                while remaining:
                    live += remaining & SIZE_MASK
                    remaining >>= chunk_bits
                base = key | Q_FLAG
                for size in sizes:
                    if live + size > live_bound:
                        continue
                    ckey = base | size
                    raw_successors += 1
                    child = index_get(ckey)
                    if child is None:
                        child = discover(ckey, mirror)
                    child_status = status[child]
                    if child_status == _WIN or child_status == _WIN_TT:
                        if not compute_ranks:
                            status[node] = _WIN
                            seeds_append(node)
                            break
                        src_append(node)
                        dst_append(child)
                    elif (child_status != _SAFE_TT
                          and child_status != _SAFE):
                        src_append(node)
                        dst_append(child)

        stats.raw_successors = raw_successors
        stats.edges = len(edge_dst)

        # -- attractor over the reverse CSR --------------------------------
        rank: list[int] | None = None
        if compute_ranks or settled:
            rev_offsets, rev = _reverse_csr(len(keys), edge_src, edge_dst)
        if compute_ranks:
            rank = [-1] * len(keys)
            for seed in seeds:
                rank[seed] = 0
            queue: deque[int] = deque(seeds)
            while queue:
                node = queue.popleft()
                next_rank = rank[node] + 1
                for position in range(rev_offsets[node],
                                      rev_offsets[node + 1]):
                    pred = rev[position]
                    if status[pred] != _OPEN:
                        continue
                    if keys[pred] & Q_FLAG:
                        pending[pred] -= 1
                        if pending[pred]:
                            continue
                    status[pred] = _WIN
                    rank[pred] = next_rank
                    queue.append(pred)
        elif settled:
            stack = list(seeds)
            early = False
            while stack and not early:
                node = stack.pop()
                for position in range(rev_offsets[node],
                                      rev_offsets[node + 1]):
                    pred = rev[position]
                    if status[pred] != _OPEN:
                        continue
                    if keys[pred] & Q_FLAG:
                        pending[pred] -= 1
                        if pending[pred]:
                            continue
                    status[pred] = _WIN
                    if pred == 0:
                        # Root verdict settled — the rest of the
                        # attractor would only enlarge the harvest.
                        early = True
                        break
                    stack.append(pred)
            if early:
                settled = False

        # -- harvest verdicts into the transposition tables -----------------
        # After a completed attractor, ``_OPEN`` means the winning
        # region never reached the node: safe, by the greatest-
        # fixpoint reading of the safety game.  After an early exit
        # (``settled`` false) only explicitly derived statuses are
        # sound, so ``_OPEN`` nodes are left out of the harvest.
        wins = status[0] in (_WIN, _WIN_TT)
        stats.program_wins = wins
        stats.orbits_visited = len(keys)
        q_flag = Q_FLAG
        for node, key in enumerate(keys):
            if key & q_flag:
                stats.q_orbits += 1
            else:
                stats.p_orbits += 1
            node_status = status[node]
            if node_status == _WIN:
                stats.winning_orbits += 1
                if tt_enabled:
                    alt_key = (alts[node] << shift) | (key & low_mask)
                    _record(win_tt, key, alt_key, heap, maximum=True)
            elif node_status == _WIN_TT:
                stats.winning_orbits += 1
            elif node_status == _OPEN:
                if settled:
                    stats.safe_orbits += 1
                    if tt_enabled:
                        alt_key = (alts[node] << shift) | (key & low_mask)
                        _record(safe_tt, key, alt_key, heap, maximum=False)
            elif node_status == _SAFE:
                stats.safe_orbits += 1
                if tt_enabled:
                    alt_key = (alts[node] << shift) | (key & low_mask)
                    _record(safe_tt, key, alt_key, heap, maximum=False)
            else:
                stats.safe_orbits += 1

        if wins:
            if heap > self._max_program_win:
                self._max_program_win = heap
        elif (self._min_manager_win is None
              or heap < self._min_manager_win):
            self._min_manager_win = heap
        stats.wall_seconds = (  # lint: float-ok - wall timing
            time.perf_counter() - started)
        self.history.append(stats)
        return SolveReport(
            heap_words=heap,
            program_wins=wins,
            stats=stats,
            index=index,
            keys=keys,
            status=status,
            rank=rank,
            state_shift=shift,
            settled=settled,
        )


def _record(
    table: dict[int, int],
    key: int,
    alt_key: int,
    heap: int,
    *,
    maximum: bool,
) -> None:
    """Record one verdict under both orientations of the node's orbit."""
    known = table.get(key)
    if known is None or (known < heap if maximum else known > heap):
        table[key] = heap
    if alt_key != key:
        known = table.get(alt_key)
        if known is None or (known < heap if maximum else known > heap):
            table[alt_key] = heap


def _reverse_csr(
    node_count: int, edge_src: "array[int]", edge_dst: "array[int]"
) -> tuple[list[int], list[int]]:
    """Predecessor lists in CSR form, grouped by destination.

    Stable in edge-insertion order within each destination, so the
    numpy fast path (stable argsort) and the pure-Python counting sort
    produce identical attractor traversals.
    """
    edge_count = len(edge_dst)
    if edge_count == 0:
        return [0] * (node_count + 1), []
    if _numpy_csr_enabled():
        try:
            import numpy
        except ImportError:
            numpy = None
        if numpy is not None:
            dst = numpy.frombuffer(edge_dst, dtype=numpy.int64)
            src = numpy.frombuffer(edge_src, dtype=numpy.int64)
            order = numpy.argsort(dst, kind="stable")
            rev = src[order].tolist()
            counts = numpy.bincount(dst, minlength=node_count)
            offsets_array = numpy.zeros(node_count + 1, dtype=numpy.int64)
            numpy.cumsum(counts, out=offsets_array[1:])
            return offsets_array.tolist(), rev
    counts = [0] * (node_count + 1)
    for dst_node in edge_dst:
        counts[dst_node + 1] += 1
    for position in range(1, node_count + 1):
        counts[position] += counts[position - 1]
    offsets = list(counts)
    cursor = list(counts[:-1])
    rev = [0] * edge_count
    for position in range(edge_count):
        dst_node = edge_dst[position]
        rev[cursor[dst_node]] = edge_src[position]
        cursor[dst_node] += 1
    return offsets, rev
