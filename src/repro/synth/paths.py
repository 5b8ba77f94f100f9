"""Batched path labeling: the Circuit Path Dataset's labels (Table 5).

A circuit path is a token chain like ``['io8', 'mul16', 'add16',
'dff16']``, synthesized as a standalone linear chain of functional
units — including MAC fusion, so the label depends on token *order*:
the paper's ``[mul, add]`` vs ``[add, mul]`` example produces different
timing/area here.

:func:`synthesize_path_batch` labels many chains in one shot: per-token
cost tables are gathered once per library, MAC fusion is a vectorized
adjacent-pair rewrite, and arrival/area/power reduce to cumulative
sweeps across the batch, position by position, so each path sees the
float operation sequence of a serial left fold over its cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphir import SEQUENTIAL_TYPES, Vocabulary, parse_token
from .library import FREEPDK15, TechLibrary
from .power import DEFAULT_COMB_ACTIVITY, DEFAULT_SEQ_ACTIVITY

__all__ = ["PathResult", "synthesize_path_batch"]


@dataclass(frozen=True)
class PathResult:
    """Path-level synthesis outcome (Table 5 row format)."""

    tokens: tuple[str, ...]
    timing_ps: float
    area_um2: float
    power_mw: float


class _PathTables:
    """Per-library cost tables over the standard 79-token vocabulary.

    Row ``i`` describes vocabulary token ``i`` (``Vocabulary.standard()``
    order); the MAC rows are indexed by log2(width).  ``dyn`` folds the
    default activity factor into the switching energy exactly as
    :func:`~repro.synth.power.total_power` does per cell.
    """

    def __init__(self, library: TechLibrary):
        vocab = Vocabulary.standard()
        self.vocab = vocab
        parsed = [parse_token(t) for t in vocab.tokens]
        ntok = len(parsed)

        def col(fn):
            return np.array([fn(nt, w) for nt, w in parsed], np.float64)

        cost = library.cost
        self.delay = col(lambda nt, w: cost(nt, w).delay)
        self.area = col(lambda nt, w: cost(nt, w).area)
        self.leak = col(lambda nt, w: cost(nt, w).leakage)
        self.is_seq = np.array([nt in SEQUENTIAL_TYPES for nt, _ in parsed], bool)
        self.setup = np.array(
            [library.dff_setup if nt == "dff" else 0.0 for nt, _ in parsed],
            np.float64)
        self.dyn = np.array(
            [cost(nt, w).energy
             * (DEFAULT_SEQ_ACTIVITY if nt in SEQUENTIAL_TYPES
                else DEFAULT_COMB_ACTIVITY * 1.0)
             for nt, w in parsed], np.float64)
        self.is_mul = np.array([nt == "mul" for nt, _ in parsed], bool)
        self.is_add = np.array([nt == "add" for nt, _ in parsed], bool)
        self.wlog = np.array([int(w).bit_length() - 1 for _, w in parsed],
                             np.int64)

        # MAC rows by log2(width); fused widths are max(w_mul, w_add),
        # always one of the arithmetic widths 8..64.
        max_log = int(self.wlog.max()) + 1
        self.mac_delay = np.zeros(max_log, np.float64)
        self.mac_area = np.zeros(max_log, np.float64)
        self.mac_leak = np.zeros(max_log, np.float64)
        self.mac_dyn = np.zeros(max_log, np.float64)
        for lg in range(3, max_log):  # widths 8..64
            c = cost("mac", 1 << lg)
            self.mac_delay[lg] = c.delay
            self.mac_area[lg] = c.area
            self.mac_leak[lg] = c.leakage
            self.mac_dyn[lg] = c.energy * (DEFAULT_COMB_ACTIVITY * 1.0)

        # Fusion area guard — always evaluated against FREEPDK15, exactly
        # like ``mac_fusion(net)`` with no library argument.
        self.guard_ok = np.zeros((max_log, max_log), bool)
        for lm in range(3, max_log):
            for la in range(3, max_log):
                wm, wa = 1 << lm, 1 << la
                mac_area = FREEPDK15.cost("mac", max(wm, wa)).area
                self.guard_ok[lm, la] = not (
                    mac_area > FREEPDK15.cost("mul", wm).area
                    + FREEPDK15.cost("add", wa).area + 1e-12)


_PATH_TABLES: dict[int, tuple[TechLibrary, _PathTables]] = {}


def _tables_for(library: TechLibrary) -> _PathTables:
    entry = _PATH_TABLES.get(id(library))
    if entry is None or entry[0] is not library:
        entry = (library, _PathTables(library))
        _PATH_TABLES[id(library)] = entry
    return entry[1]


def synthesize_path_batch(paths, library: TechLibrary) -> list[PathResult]:
    """Label many token chains in one vectorized shot.

    Returns one :class:`PathResult` per input chain, the same as
    synthesizing each chain alone (map, area-guarded MAC fusion, STA,
    area and power at the default activity): fusion becomes a
    vectorized adjacent-pair rewrite (candidate pairs in a chain can
    never overlap), and arrival/critical/area/power are cumulative
    sweeps run position-by-position across the whole batch — each path
    sees the exact float operation sequence of the serial fold, just B
    lanes at a time.

    Raises ``ValueError`` for an empty chain and ``KeyError`` for a
    token outside the standard vocabulary.
    """
    paths = [list(p) for p in paths]
    if not paths:
        return []
    tables = _tables_for(library)
    lookup = tables.vocab._lookup
    nspecial = Vocabulary.NUM_SPECIAL

    B = len(paths)
    L = max(len(p) for p in paths)
    if min(len(p) for p in paths) == 0:
        raise ValueError("a circuit path needs at least one token")
    tok = np.zeros((B, L), np.int64)
    valid = np.zeros((B, L), bool)
    for b, p in enumerate(paths):
        try:
            tok[b, :len(p)] = [lookup[t] for t in p]
        except KeyError as exc:
            raise KeyError(f"token not in vocabulary: {exc.args[0]!r}") from None
        valid[b, :len(p)] = True
    tok -= nspecial  # vocabulary ids -> table rows

    # Per-cell cost columns straight from the tables.
    delay = tables.delay[tok]
    area = tables.area[tok]
    dyn = tables.dyn[tok]
    leak = tables.leak[tok]
    is_seq = tables.is_seq[tok] & valid
    setup = tables.setup[tok]

    # MAC fusion as an adjacent-pair rewrite: a chain candidate is
    # (mul at p, add at p+1); candidates cannot overlap (the middle cell
    # would have to be both), so all guarded pairs fuse independently.
    dropped = np.zeros((B, L), bool)
    if L >= 2:
        wlog = tables.wlog[tok]
        pair = (tables.is_mul[tok[:, :-1]] & valid[:, :-1]
                & tables.is_add[tok[:, 1:]] & valid[:, 1:]
                & tables.guard_ok[wlog[:, :-1], wlog[:, 1:]])
        if pair.any():
            dropped[:, :-1] = pair
            mac_rows, mac_cols = np.nonzero(pair)
            mac_cols = mac_cols + 1  # the add position becomes the mac
            mac_wlog = np.maximum(wlog[mac_rows, mac_cols - 1],
                                  wlog[mac_rows, mac_cols])
            delay[mac_rows, mac_cols] = tables.mac_delay[mac_wlog]
            area[mac_rows, mac_cols] = tables.mac_area[mac_wlog]
            dyn[mac_rows, mac_cols] = tables.mac_dyn[mac_wlog]
            leak[mac_rows, mac_cols] = tables.mac_leak[mac_wlog]

    # Position-by-position sweep over the batch.  State per lane: the
    # previous remaining cell's arrival, a running strict-> critical
    # (first max wins), the arrival max (degenerate all-register paths),
    # and the left-fold area/power accumulators.
    zeros = np.zeros(B, np.float64)
    last_arr = zeros.copy()
    has_prev = np.zeros(B, bool)
    crit = zeros.copy()
    any_cand = np.zeros(B, bool)
    run_max = zeros.copy()
    area_sum = zeros.copy()
    dyn_sum = zeros.copy()
    leak_sum = zeros.copy()
    for p in range(L):
        live = valid[:, p] & ~dropped[:, p]
        own = delay[:, p]
        seq_here = is_seq[:, p]
        arrive = np.where(seq_here | ~has_prev, own, last_arr + own)
        # Capture at sequential cells that have a predecessor.
        cand = last_arr + setup[:, p]
        cand_mask = live & seq_here & has_prev
        take = cand_mask & (cand > crit)
        crit = np.where(take, cand, crit)
        any_cand |= cand_mask
        # Advance lane state.
        last_arr = np.where(live, arrive, last_arr)
        run_max = np.where(live & (arrive > run_max), arrive, run_max)
        has_prev |= live
        area_sum = area_sum + np.where(live, area[:, p], 0.0)
        dyn_sum = dyn_sum + np.where(live, dyn[:, p], 0.0)
        leak_sum = leak_sum + np.where(live, leak[:, p], 0.0)

    # The final remaining cell, if combinational, is a sink endpoint —
    # its candidate is evaluated last, in the chain's cell order.
    live_all = valid & ~dropped
    last_pos = (L - 1) - np.argmax(live_all[:, ::-1], axis=1)
    rows = np.arange(B)
    end_comb = ~is_seq[rows, last_pos]
    take = end_comb & (last_arr > crit)
    crit = np.where(take, last_arr, crit)
    any_cand |= end_comb

    critical = np.where(any_cand, crit, run_max)
    freq = np.where(critical > 0,
                    1000.0 / np.where(critical > 0, critical, 1.0), 0.0)
    power = dyn_sum * freq * 1e-3 + leak_sum * 1e-6

    return [PathResult(tokens=tuple(p),
                       timing_ps=float(critical[b]),
                       area_um2=float(area_sum[b]),
                       power_mw=float(power[b]))
            for b, p in enumerate(paths)]
