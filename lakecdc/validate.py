"""Post-apply invariant validation — the `validate_outputs.py` analogue
(reference: scripts/validate_outputs.py, 10 check families over the 18
outputs; here the families from SURVEY §5 over the lake + manifest +
lineage).

Each check returns (name, ok, detail); `validate_lake` runs them all
and raises on the first violation unless `raise_on_fail=False`.
Runs distributed (Ray Dataset aggregations) so it works on a lake that
does not fit on the driver.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from lakecdc import manifest
from lakecdc.config import EngineConfig
from lakecdc.evolve import read_concat
from lakecdc.lake import read_lake
from lakecdc.lineage import rollup
from lakecdc.shuffle import bucket_of


def _checks(cfg: EngineConfig) -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []
    snap = manifest.snapshot(cfg)

    # 1. Primary-key uniqueness + n_tok invariant + partition purity,
    #    in ONE distributed pass (reference: duplicate check
    #    validate_outputs.py:124-147; TOTAL_SUPPORT recompute :211-252;
    #    office purity :150-188).
    ds = read_lake(cfg)
    num_buckets = cfg.num_buckets

    def per_batch(t: pa.Table) -> pa.Table:
        n_bad_ntok = (
            pc.sum(
                pc.cast(
                    pc.not_equal(
                        pc.list_value_length(t["tokens"]), t["n_tok"]
                    ),
                    pa.int64(),
                )
            ).as_py()
            or 0
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "bad_ntok": pa.array([n_bad_ntok] + [0] * (t.num_rows - 1))
                if t.num_rows
                else pa.array([], type=pa.int64()),
            }
        )

    audited = ds.map_batches(per_batch, batch_format="pyarrow")
    total_rows = audited.count()
    from ray.data.aggregate import Count, Sum

    distinct = audited.groupby("doc_id").aggregate(Count(alias_name="n"))
    dups = distinct.map_batches(
        lambda t: pa.table(
            {"d": [pc.sum(pc.cast(pc.greater(t["n"], 1), pa.int64())).as_py() or 0]}
        ),
        batch_format="pyarrow",
    ).to_pandas()["d"].sum()
    results.append(("pk_unique", int(dups) == 0, f"{int(dups)} duplicated doc_ids"))

    bad_ntok = audited.aggregate(Sum("bad_ntok", alias_name="s"))["s"] or 0
    results.append(("n_tok_invariant", int(bad_ntok) == 0, f"{bad_ntok} rows with n_tok != len(tokens)"))

    # 2. Partition disjointness: every row's hash-bucket matches the
    #    partition directory it is stored in (reference: S+P split
    #    disjointness validate_outputs.py:324-387).
    view = manifest.partition_view(cfg)
    misplaced = 0
    for p, files in view.items():
        t = read_concat(files, pa.schema([("doc_id", pa.string())]))
        if t.num_rows:
            misplaced += int((bucket_of(t["doc_id"], cfg.num_buckets) != p).sum())
    results.append(("partition_purity", misplaced == 0, f"{misplaced} rows in wrong bucket"))

    # 3. Lineage accounting: sum of per-partition live rows == lake
    #    rows (reference: final + no_support = all,
    #    validate_outputs.py:277-321). Only meaningful when every
    #    latest record is a base (after CoW applies or a compaction);
    #    a merge-on-read delta's rows_live counts only its delta.
    if all(r.get("kind", "base") == "base" for r in snap.values()):
        live_sum = sum(r.get("lineage", {}).get("rows_live", 0) for r in snap.values())
        results.append(
            ("lineage_live_total", live_sum == total_rows, f"lineage {live_sum} vs lake {total_rows}")
        )
    else:
        results.append(("lineage_live_total", True, "skipped (merge-on-read deltas present)"))

    # 4. Manifest integrity: every referenced file exists; watermarks
    #    are per-partition monotone across epochs (reference:
    #    intermediate-containment checks validate_outputs.py:390-408).
    missing = [
        f for files in view.values() for f in files if not os.path.exists(f)
    ]
    results.append(("manifest_files_exist", not missing, f"{len(missing)} missing files"))
    non_monotone = 0
    hi: dict[int, int] = {}  # per partition, the highest watermark so far
    entries = manifest.log(cfg)
    for entry in entries:  # version order
        for rec in entry["records"]:
            wm, p = rec["lsn_watermark"], rec["partition"]
            if wm >= 0:
                non_monotone += wm < hi.get(p, wm)
                hi[p] = max(wm, hi.get(p, wm))
    results.append(("watermark_monotone", non_monotone == 0, f"{non_monotone} regressions"))

    # 5. Lineage rollup consistency with manifest commits.
    roll = rollup(cfg)
    results.append(
        (
            "lineage_rollup_rows",
            roll.num_rows
            == sum(len(e["records"]) for e in entries if e["kind"] == "apply"),
            "rollup rows != committed apply records",
        )
    )
    return results


def _index_checks(cfg: EngineConfig, sample_tokens: int = 8) -> list[tuple[str, bool, str]]:
    """Secondary-index consistency (only when a token index exists):
    (a) freshness — the lake log version the index's log reflects is
    the lake head's (a crashed update's files do not count); (b) sampled
    correctness — for a deterministic sample of tokens, the
    bucket-pruned index lookup (at the pinned modulus) equals a brute
    scan of the live lake. Catches the silent-staleness failure mode of
    any secondary structure (maintenance skipped or crashed between
    apply and update_index)."""
    import numpy as np

    from lakecdc import chainstore
    from lakecdc.index import TOKEN, index_dir, lookup_token
    from lakecdc.lake import read_lake_local

    if chainstore.load_meta(index_dir(cfg)) is None:  # refuses an older layout
        return []  # no index built: nothing to validate
    have, head = TOKEN.version(cfg), manifest.head(cfg)["version"]
    lag = f"index at lake version {have}, head {head} (lag {head - have})"
    out = [("index_fresh", have >= head, lag)]
    lake = read_lake_local(cfg)
    flat = (
        np.concatenate([np.asarray(t) for t in lake["tokens"] if len(t)])
        if len(lake)
        else np.empty(0, dtype=np.int64)
    )
    uniq = np.unique(flat)
    step = max(1, len(uniq) // sample_tokens)
    ok = True
    detail = "all sampled tokens match brute scan"
    for tok in uniq[::step][:sample_tokens]:
        got = lookup_token(cfg, int(tok))
        want = sorted(
            d for d, t in zip(lake["doc_id"], lake["tokens"]) if tok in set(t)
        )
        if got != want:
            ok, detail = False, f"token {int(tok)}: index {len(got)} != scan {len(want)}"
            break
    out.append(("index_sampled_lookup", ok, detail))
    return out


def validate_lake(cfg: EngineConfig, raise_on_fail: bool = True) -> list[tuple[str, bool, str]]:
    results = _checks(cfg) + _index_checks(cfg)
    failures = [r for r in results if not r[1]]
    if failures and raise_on_fail:
        raise AssertionError(f"lake validation failed: {failures}")
    return results
