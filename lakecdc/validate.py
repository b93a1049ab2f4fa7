"""Post-apply invariant validation — the `validate_outputs.py` analogue
(reference: scripts/validate_outputs.py, 10 check families over the 18
outputs; here the families from SURVEY §5 over the lake + manifest +
lineage).

Each check returns (name, ok, detail); `validate_lake` runs them all
and raises on the first violation unless `raise_on_fail=False`.
The lake is read ONCE, partition-locally: one raw Ray task per
``shuffle.bucket_groups`` range of partitions folds each chain and
returns only counts (and the brute posting lists of the sampled index
tokens), so no lake row reaches the driver. The lake is hash-partitioned
by doc_id, so per-partition uniqueness plus partition purity is global
uniqueness: no shuffle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from lakecdc import chainstore, manifest
from lakecdc.config import EngineConfig
from lakecdc.evolve import read_concat
from lakecdc.index import TOKEN, index_dir, lookup_token
from lakecdc.lake import _merge_chain
from lakecdc.lineage import rollup
from lakecdc.shuffle import bucket_groups, bucket_of, cluster_cpus

POSTINGS = pa.schema([("token", pa.int32()), ("doc_id", pa.string())])


@ray.remote
def _audit(items: list[tuple[int, list[str]]], engine: str, num_buckets: int, tokens: list[int]):
    """One bucket group's (partition, chain) items folded and audited:
    (rows, distinct doc_ids summed per partition, rows with ``n_tok !=
    len(tokens)``, rows outside their hash bucket, the (token, doc_id)
    live postings of ``tokens``)."""
    rows = distinct = bad_ntok = misplaced = 0
    sample = pa.array(tokens, pa.int32())
    postings = [POSTINGS.empty_table()]
    for p, files in items:
        t = _merge_chain(files, include_meta=False, engine=engine)
        rows += t.num_rows
        distinct += pc.count_distinct(t["doc_id"]).as_py()
        ne = pc.not_equal(pc.list_value_length(t["tokens"]), t["n_tok"])
        bad_ntok += pc.sum(pc.cast(ne, pa.int64())).as_py() or 0
        misplaced += int((bucket_of(t["doc_id"], num_buckets) != p).sum())
        toks = t["tokens"].combine_chunks()
        flat = pc.list_flatten(toks)
        hit = pc.is_in(flat, value_set=sample)
        docs = t["doc_id"].combine_chunks().take(pc.filter(pc.list_parent_indices(toks), hit))
        postings.append(pa.table([pc.filter(flat, hit), docs], schema=POSTINGS))
    return rows, distinct, bad_ntok, misplaced, pa.concat_tables(postings)


def _sample_tokens(cfg: EngineConfig, n: int = 8) -> list[int] | None:
    """A deterministic spread of ``n`` tokens from the token index's own
    chains (None when no index is built; an older layout is refused)."""
    root = index_dir(cfg)
    if chainstore.load_meta(root) is None:
        return None
    files = [f for fs in manifest.partition_view(root).values() for f in fs]
    uniq = np.unique(read_concat(files, pa.schema([POSTINGS.field("token")]))["token"].to_numpy())
    return [int(t) for t in uniq[:: max(1, len(uniq) // n)][:n]]


def validate_lake(cfg: EngineConfig, raise_on_fail: bool = True) -> list[tuple[str, bool, str]]:
    tokens = _sample_tokens(cfg)
    view = manifest.partition_view(cfg)
    items = sorted(view.items())
    groups = bucket_groups(len(items), cluster_cpus())
    args = (cfg.merge_engine, cfg.num_buckets, tokens or [])
    audits = ray.get([_audit.remote(items[g.start : g.stop], *args) for g in groups])
    rows, distinct, bad_ntok, misplaced = (sum(a[i] for a in audits) for i in range(4))

    # 1. Primary-key uniqueness + n_tok invariant + partition purity,
    #    from the one pass (reference: duplicate check
    #    validate_outputs.py:124-147; TOTAL_SUPPORT recompute :211-252;
    #    office purity :150-188; S+P split disjointness :324-387).
    #    Uniqueness is per partition: global with partition_purity.
    dups = rows - distinct
    results = [
        ("pk_unique", dups == 0, f"{dups} duplicated doc_ids within a partition"),
        ("n_tok_invariant", bad_ntok == 0, f"{bad_ntok} rows with n_tok != len(tokens)"),
        ("partition_purity", misplaced == 0, f"{misplaced} rows in wrong bucket"),
    ]

    # 2. Lineage accounting: sum of per-partition live rows == lake
    #    rows (reference: final + no_support = all,
    #    validate_outputs.py:277-321). Only meaningful when every
    #    latest record is a base (after CoW applies or a compaction);
    #    a merge-on-read delta's rows_live counts only its delta.
    snap = manifest.snapshot(cfg)
    if all(r.get("kind", "base") == "base" for r in snap.values()):
        live_sum = sum(r.get("lineage", {}).get("rows_live", 0) for r in snap.values())
        results.append(("lineage_live_total", live_sum == rows, f"lineage {live_sum} vs lake {rows}"))
    else:
        results.append(("lineage_live_total", True, "skipped (merge-on-read deltas present)"))

    # 3. Manifest integrity: every referenced file exists; watermarks
    #    are per-partition monotone across epochs (reference:
    #    intermediate-containment checks validate_outputs.py:390-408).
    missing = [f for files in view.values() for f in files if not os.path.exists(f)]
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

    # 4. Lineage rollup consistency with manifest commits.
    applied = sum(len(e["records"]) for e in entries if e["kind"] == "apply")
    ok = rollup(cfg).num_rows == applied
    results.append(("lineage_rollup_rows", ok, "rollup rows != committed apply records"))
    if tokens is not None:
        postings = pa.concat_tables([POSTINGS.empty_table(), *(a[4] for a in audits)])
        results += _index_checks(cfg, tokens, postings)
    failures = [r for r in results if not r[1]]
    if failures and raise_on_fail:
        raise AssertionError(f"lake validation failed: {failures}")
    return results


def _index_checks(cfg: EngineConfig, tokens: list[int], postings: pa.Table) -> list[tuple[str, bool, str]]:
    """Secondary-index consistency: (a) freshness — the lake log version
    the index's log reflects is the lake head's (a crashed update's
    files do not count); (b) sampled correctness — for each sampled
    token, the bucket-pruned index lookup (at the pinned modulus) equals
    the pass's brute posting list of the live lake. Catches the
    silent-staleness failure mode of any secondary structure
    (maintenance skipped or crashed between apply and update_index)."""
    have, head = TOKEN.version(cfg), manifest.head(cfg)["version"]
    lag = f"index at lake version {have}, head {head} (lag {head - have})"
    out = [("index_fresh", have >= head, lag)]
    ok, detail = True, "all sampled tokens match brute scan"
    for tok in tokens:
        got = lookup_token(cfg, tok)
        want = sorted(set(postings.filter(pc.equal(postings["token"], tok))["doc_id"].to_pylist()))
        if got != want:
            ok, detail = False, f"token {tok}: index {len(got)} != scan {len(want)}"
            break
    out.append(("index_sampled_lookup", ok, detail))
    return out
