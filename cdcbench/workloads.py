"""Workload definitions: every input size and engine setting of a run.

One ``Workload`` fixes the engine configuration, the shape of the WAL
the generator writes, and what the timed loop does. ``scale="tiny"``
shrinks every size for the smoke test; nothing else changes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "catchup" (repeated catch-up rounds) or "follow" (tick loop)
    # engine
    num_buckets: int
    write_mode: str
    merge_engine: str
    compact_over: int | None  # maybe_compact(max_chain=...) after each tick
    # WAL shape (lakecdc.synth.generate_segment knobs)
    n_docs: int
    zipf_a: float
    mean_tokens: int
    p_invalid: float
    p_patch: float
    # catchup: backlog epochs per round, events per backlog epoch;
    # follow: events per tick epoch (1 % of the doc universe)
    backlog_epochs: int
    events_per_epoch: int
    # setup: warm-up epochs applied untimed in every setup repetition
    warmup_epochs: int
    warmup_events: int
    setup_reps: int
    # reads: lookups per iteration, keys per lookup, a full scan every
    # `scan_every` iterations, lookups checked after the last tick
    lookups_per_iter: int
    keys_per_lookup: int
    scan_every: int
    final_lookups: int
    # Fixed tail percentiles: the highest percentile that keeps >= 10
    # samples beyond it at the lowest sample count seen on a contended
    # host (fewer ticks or rounds fit in the run). Fixed
    # (not re-derived per run) so that a faster commit, which collects
    # more samples, still reports the same percentile as its parent.
    freshness_tail_pct: int
    lookup_tail_pct: int
    # follow: the tick-epoch pool covers ticks down to this duration
    # (today's ticks take ~0.2-0.3 s), so a commit up to ~2x faster
    # still never runs dry.
    min_tick_s: float = 0.12

    def tick_quantum(self) -> int:
        """follow: the timed loop runs a whole multiple of this many
        ticks. With auto-compaction every partition's delta chain grows
        by one file per tick and is folded every ``compact_over`` ticks,
        so lake size, write bytes and lookup cost cycle with that
        period; ending every run at the same phase of the cycle keeps
        them from depending on where the time ran out."""
        return self.compact_over or 1

    def tick_pool_size(self, seconds: float) -> int:
        if self.kind != "follow":
            return 0
        return max(8, math.ceil(seconds / self.min_tick_s)) + self.tick_quantum()

    def gen_params(self) -> dict:
        """The fields that determine the generated WAL (the pool key)."""
        keys = (
            "kind", "n_docs", "zipf_a", "mean_tokens", "p_invalid", "p_patch",
            "backlog_epochs", "events_per_epoch", "warmup_epochs",
            "warmup_events", "min_tick_s",
        )
        d = asdict(self)
        return {k: d[k] for k in keys}


_FULL = {
    # A follower back from an outage: one folded apply of a large
    # backlog (events >> docs, Zipf 1.2, ~32 tokens, `source` evolution
    # mid-backlog, 0.5 % invalid). Map-side decode/validate/combine and
    # the shuffle dominate; the manifest holds a handful of records.
    "catchup": Workload(
        name="catchup", kind="catchup",
        num_buckets=8, write_mode="cow", merge_engine="lww", compact_over=None,
        n_docs=5_000, zipf_a=1.2, mean_tokens=32, p_invalid=0.005, p_patch=0.0,
        backlog_epochs=6, events_per_epoch=10_000,
        warmup_epochs=2, warmup_events=3_000, setup_reps=3,
        lookups_per_iter=30, keys_per_lookup=8, scan_every=1, final_lookups=0,
        freshness_tail_pct=55, lookup_tail_pct=90,
    ),
    # A live copy-on-write follower: fixed per-tick costs (Ray Data
    # planning, shuffle barrier, manifest/rollup scans that grow with
    # history) and the CoW rewrite of every touched partition dominate.
    "follow_cow": Workload(
        name="follow_cow", kind="follow",
        num_buckets=8, write_mode="cow", merge_engine="lww", compact_over=None,
        n_docs=10_000, zipf_a=1.2, mean_tokens=32, p_invalid=0.005, p_patch=0.0,
        backlog_epochs=0, events_per_epoch=100,
        warmup_epochs=2, warmup_events=100, setup_reps=3,
        lookups_per_iter=1, keys_per_lookup=8, scan_every=4, final_lookups=24,
        freshness_tail_pct=55, lookup_tail_pct=75,
    ),
    # The same loop on merge-on-read with the partial engine, 30 %
    # patches and maybe_compact(max_chain=8) per tick: ticks write only
    # deltas, so cost moves to read-time chain folds and compaction.
    "follow_mor_patch": Workload(
        name="follow_mor_patch", kind="follow",
        num_buckets=8, write_mode="mor", merge_engine="partial", compact_over=8,
        n_docs=10_000, zipf_a=1.2, mean_tokens=32, p_invalid=0.005, p_patch=0.3,
        backlog_epochs=0, events_per_epoch=100,
        warmup_epochs=2, warmup_events=100, setup_reps=3,
        lookups_per_iter=1, keys_per_lookup=8, scan_every=4, final_lookups=24,
        freshness_tail_pct=55, lookup_tail_pct=75,
    ),
}


def _tiny(w: Workload) -> Workload:
    return replace(
        w,
        n_docs=max(w.n_docs // 40, 100),
        events_per_epoch=max(w.events_per_epoch // 20, 20),
        warmup_events=max(w.warmup_events // 20, 20),
        backlog_epochs=min(w.backlog_epochs, 2),
        setup_reps=2,
        final_lookups=min(w.final_lookups, 4),
    )


NAMES = tuple(_FULL)
SCALES = ("full", "tiny")


def get(name: str, scale: str = "full") -> Workload:
    w = _FULL[name]
    return _tiny(w) if scale == "tiny" else w
