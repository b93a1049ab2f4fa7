"""Relational operator library — one named pipeline per reference
operator family from SURVEY.md §2, expressed Ray-Data-first over the
driver's testdata tables, each with a DuckDB oracle (registry.py).

Column-name contract: every computed column is named identically here
and in the oracle SQL (driver compares sorted-by-name value hashes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Count, Max, Sum

from lakecdc.qutil import cents, read, read_small, with_int_bucket
from lakecdc.shuffle import cluster_cpus


# ---------------------------------------------------------------------------
# Filters / maps / projections
# ---------------------------------------------------------------------------

def filter_project(sf_dir: str) -> rd.Dataset:
    """F1/F4 predicate routing + F7 projection.

    Reference: office filter `CAND_OFFICE.isin(office_filter)`
    (scripts/superpac_ie_support.py:60) and transaction-type predicates
    (superpac_ie_support.py:82); projection merge_support.py:178-180.
    """
    ds = read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity"],
    )

    def f(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_in(t["l_returnflag"], value_set=pa.array(["A", "R"])),
            pc.greater(t["l_quantity"], 25.0),
        )
        return t.filter(keep)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def regex_extract_filter(sf_dir: str) -> pd.DataFrame:
    """F2 regex parse + F5 numeric-coerce-and-threshold.

    Reference: year normalizer `str.extract(r"(\\d{4})")`
    (scripts/superpac_ie_support.py:63, merge_support.py:38-47) and the
    amount positivity gate (superpac_ie_support.py:96-102).
    """
    ds = read(sf_dir, "events", ["event_type", "props"])

    def f(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"], pattern=r"(?P<k>\d+)")
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        t = t.append_column("k_val", k)
        return t.filter(pc.greater(pc.fill_null(k, -1), 50))

    ds = ds.map_batches(f, batch_format="pyarrow")
    out = ds.groupby("event_type").aggregate(Count(alias_name="n"), Sum("k_val", alias_name="k_sum"))
    df = out.to_pandas()
    df["k_sum"] = df["k_sum"].astype("int64")
    return df[["event_type", "n", "k_sum"]]


def derived_flag_split(sf_dir: str) -> pd.DataFrame:
    """F8 derived columns + F9 flag split, on the merged-support shape.

    Reference: `TOTAL_SUPPORT = Σ support cols`, `HAS_MONEY =
    (TOTAL_SUPPORT > 0).astype(int)` (scripts/merge_support.py:276-277)
    and the HAS_MONEY==1 / ==0 split (merge_support.py:308-317).
    Here: per-customer order totals with a zero-total universe kept.
    """
    df = multiway_left_join(sf_dir)
    out = df.groupby("has_money", as_index=False).agg(
        n_candidates=("c_custkey", "count"),
        total_support_cents=("total_support_cents", "sum"),
    )
    out["total_support_cents"] = out["total_support_cents"].astype("int64")
    return out[["has_money", "n_candidates", "total_support_cents"]]


# ---------------------------------------------------------------------------
# Aggregations
# ---------------------------------------------------------------------------

def grouped_sum(sf_dir: str) -> pd.DataFrame:
    """A1 two-phase grouped sum (the pricing-summary / support-sum).

    Reference: per-chunk `groupby(CAND_ID).sum()` + cross-chunk dict
    accumulate (scripts/superpac_ie_support.py:104-106). Here the
    partial phase runs inside map_batches (one row per key per batch)
    and the final phase is a small shuffle over partials.
    """
    ds = read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        qty = pc.cast(t["l_quantity"], pa.int64())
        price_c = cents(t["l_extendedprice"])
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])
        )
        rev_c = cents(rev)
        g = pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "sum_qty": qty,
                "sum_price_cents": price_c,
                "sum_rev_cents": rev_c,
                "n_rows": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        ).group_by("l_returnflag").aggregate(
            [
                ("sum_qty", "sum"),
                ("sum_price_cents", "sum"),
                ("sum_rev_cents", "sum"),
                ("n_rows", "sum"),
            ]
        )
        return g.rename_columns(
            ["l_returnflag", "sum_qty", "sum_price_cents", "sum_rev_cents", "n_rows"]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    out = partials.groupby("l_returnflag").aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_price_cents", alias_name="sum_price_cents"),
        Sum("sum_rev_cents", alias_name="sum_rev_cents"),
        Sum("n_rows", alias_name="n_rows"),
    )
    df = out.to_pandas()
    for c in ["sum_qty", "sum_price_cents", "sum_rev_cents", "n_rows"]:
        df[c] = df[c].astype("int64")
    return df


def conditional_two_sum(sf_dir: str) -> pd.DataFrame:
    """A2: one stream, two simultaneous conditional grouped sums.

    Reference: corp vs nonconnected accumulators over the same txn
    stream (scripts/pac_support_corp_union.py:116-127).
    """
    ds = read(sf_dir, "events", ["user_id", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = cents(t["value"])
        is_p = pc.equal(t["event_type"], "purchase")
        is_c = pc.equal(t["event_type"], "click")
        z = pa.scalar(0, type=pa.int64())
        tbl = pa.table(
            {
                "user_id": t["user_id"],
                "purchase_cents": pc.if_else(is_p, v, z),
                "click_cents": pc.if_else(is_c, v, z),
            }
        )
        g = tbl.group_by("user_id").aggregate(
            [("purchase_cents", "sum"), ("click_cents", "sum")]
        )
        return g.rename_columns(["user_id", "purchase_cents", "click_cents"])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    out = partials.groupby("user_id").aggregate(
        Sum("purchase_cents", alias_name="purchase_cents"),
        Sum("click_cents", alias_name="click_cents"),
    )
    df = out.to_pandas()
    for c in ["purchase_cents", "click_cents"]:
        df[c] = df[c].astype("int64")
    return df


def collapse_dedup_sum(sf_dir: str) -> pd.DataFrame:
    """A3 key-collapse ("no money lost"): force one row per key by
    summing before any join. Reference: `_collapse_support`
    (scripts/merge_support.py:49-84)."""
    ds = read(sf_dir, "orders", ["o_custkey", "o_orderstatus", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return t.append_column("total_cents", cents(t["o_totalprice"])).drop_columns(
            ["o_totalprice"]
        )

    out = (
        ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["o_custkey", "o_orderstatus"])
        .aggregate(Sum("total_cents", alias_name="sum_total_cents"), Count(alias_name="n_orders"))
    )
    df = out.to_pandas()
    df["sum_total_cents"] = df["sum_total_cents"].astype("int64")
    return df


def grouped_nunique(sf_dir: str) -> pd.DataFrame:
    """A4 grouped distinct-count. Reference: multi-year diagnostic
    `groupby(CAND_ID).CAND_ELECTION_YR.nunique()`
    (scripts/merge_support.py:138-146)."""
    ds = read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def add_bucket(t: pa.Table) -> pa.Table:
        return with_int_bucket(t, "o_custkey", 64)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("o_custkey", as_index=False)
            .agg(n_priorities=("o_orderpriority", "nunique"))
        )
        return out

    out = (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
    df = out.to_pandas()[["o_custkey", "n_priorities"]]
    df["n_priorities"] = df["n_priorities"].astype("int64")
    return df


def global_stats(sf_dir: str) -> pd.DataFrame:
    """A5 global scalar aggregates. Reference: summary stats over
    support columns (scripts/merge_support.py:297-301)."""
    ds = read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({"price_cents": cents(t["l_extendedprice"])})

    c = ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
    agg = c.aggregate(
        Sum("price_cents", alias_name="sum_cents"),
        Max("price_cents", alias_name="max_cents"),
        Count(alias_name="n"),
    )
    n = int(agg["n"])
    total = int(agg["sum_cents"])
    return pd.DataFrame(
        {
            "n": [n],
            "sum_cents": [total],
            "max_cents": [int(agg["max_cents"])],
            "mean_cents": [total // n],
        }
    )


def value_counts(sf_dir: str) -> pd.DataFrame:
    """A6 value_counts. Reference: per-office row breakdown
    (scripts/combine_csv.py:80-82)."""
    out = read(sf_dir, "events", ["event_type"]).groupby("event_type").aggregate(
        Count(alias_name="n")
    )
    return out.to_pandas()


def dup_key_census(sf_dir: str) -> pd.DataFrame:
    """A7 duplicate-group census. Reference: dup reporting before
    collapse (scripts/merge_support.py:68-78,165-176)."""
    counts = read(sf_dir, "lineitem", ["l_orderkey"]).groupby("l_orderkey").aggregate(
        Count(alias_name="n")
    )

    def partial(t: pa.Table) -> pa.Table:
        dup = pc.cast(pc.greater(t["n"], 1), pa.int64())
        return pa.table(
            {
                "n_dup_keys": [pc.sum(dup).as_py() or 0],
                "n_keys": [t.num_rows],
                "max_group": [pc.max(t["n"]).as_py() or 0],
            }
        )

    parts = counts.map_batches(partial, batch_format="pyarrow")
    df = parts.to_pandas()
    return pd.DataFrame(
        {
            "n_dup_keys": [int(df["n_dup_keys"].sum())],
            "n_keys": [int(df["n_keys"].sum())],
            "max_group": [int(df["max_group"].max())],
        }
    )


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

def broadcast_semi_join(sf_dir: str) -> pd.DataFrame:
    """J1/J2 broadcast semi-join: filter the fact stream by a small key
    set. Reference: Super-PAC set probe
    (scripts/superpac_ie_support.py:53,87)."""
    sup = read_small(sf_dir, "supplier", ["s_suppkey", "s_acctbal"])
    good = set(
        sup.filter(pc.greater(sup["s_acctbal"], 0.0))["s_suppkey"].to_pylist()
    )
    ds = read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice"])

    def f(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["l_suppkey"], value_set=pa.array(sorted(good), type=pa.int64()))
        t = t.filter(keep)
        return pa.table(
            {"l_suppkey": t["l_suppkey"], "price_cents": cents(t["l_extendedprice"])}
        )

    out = (
        ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_suppkey")
        .aggregate(Sum("price_cents", alias_name="sum_price_cents"), Count(alias_name="n"))
    )
    df = out.to_pandas()
    df["sum_price_cents"] = df["sum_price_cents"].astype("int64")
    return df


def broadcast_hash_join(sf_dir: str) -> pd.DataFrame:
    """J3 broadcast hash join (inner; unmapped rows dropped).

    Reference: CMTE_ID -> CAND_ID translate-then-drop
    (scripts/individual_support.py:99-100). The small side is a
    driver-built dict applied vectorized per batch — no shuffle.
    """
    part = read_small(sf_dir, "part", ["p_partkey", "p_brand"])
    keys = part["p_partkey"].to_numpy()
    import numpy as np

    lut = dict(zip(keys.tolist(), part["p_brand"].to_pylist()))
    brands = sorted(set(lut.values()))
    brand_idx = {b: i for i, b in enumerate(brands)}
    key_to_idx = np.full(int(keys.max()) + 1, -1, dtype=np.int32)
    for k, b in lut.items():
        key_to_idx[k] = brand_idx[b]
    brand_arr = pa.array(brands)

    ds = read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def f(t: pa.Table) -> pa.Table:
        pk = t["l_partkey"].combine_chunks().to_numpy()
        idx = np.where(pk < len(key_to_idx), key_to_idx[np.clip(pk, 0, len(key_to_idx) - 1)], -1)
        keep = idx >= 0
        return pa.table(
            {
                "p_brand": pc.take(brand_arr, pa.array(idx[keep], type=pa.int32())),
                "qty": pc.cast(pa.array(t["l_quantity"].combine_chunks().to_numpy()[keep]), pa.int64()),
            }
        )

    out = (
        ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("p_brand")
        .aggregate(Sum("qty", alias_name="sum_qty"), Count(alias_name="n"))
    )
    df = out.to_pandas()
    df["sum_qty"] = df["sum_qty"].astype("int64")
    return df


def broadcast_left_join_attrs(sf_dir: str) -> pd.DataFrame:
    """J5 left-join dimension attributes onto aggregated facts.

    Reference: support totals ⟕ candidate attribute index
    (scripts/superpac_ie_support.py:112-115).
    """
    agg = collapse_dedup_sum(sf_dir)
    totals = (
        agg.groupby("o_custkey", as_index=False)
        .agg(sum_total_cents=("sum_total_cents", "sum"), n_orders=("n_orders", "sum"))
    )
    cust = read_small(
        sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"]
    ).to_pandas()
    df = totals.merge(
        cust, left_on="o_custkey", right_on="c_custkey", how="left"
    ).drop(columns=["c_custkey"])
    df["sum_total_cents"] = df["sum_total_cents"].astype("int64")
    df["n_orders"] = df["n_orders"].astype("int64")
    return df[["o_custkey", "sum_total_cents", "n_orders", "c_name", "c_mktsegment"]]


def multiway_left_join(sf_dir: str) -> pd.DataFrame:
    """J6 the merge-support pipeline: authoritative key universe ⟕
    multiple support aggregates, fillna(0), derived total + flag.

    Reference: universe ⟕ indiv ⟕ pac ⟕ superpac on candidate key,
    fillna(0), TOTAL_SUPPORT, HAS_MONEY
    (scripts/merge_support.py:244-277). The universe (customer) keeps
    zero-support members — the `no_support` rows.
    """
    # Both fact streams feed ONE union whose groupby forms the D4 key
    # universe (the corp∪nonconn union of pac_support_corp_union.py:135);
    # sums are PRE-AGGREGATED inside map_batches (the combiner — each
    # batch contributes at most one row per key to the shuffle), the
    # final combine is a cheap small-cardinality
    # groupby(bucket).map_groups (measured ~4x
    # faster end-to-end than groupby(key).aggregate at bench scale,
    # whose generic sort shuffle is all overhead on combined inputs),
    # and the tiny per-key result then joins the broadcast-bounded
    # universe on the driver (the reference's dim-side assumption; the
    # no-driver-merge variant is multiway_left_join_at_scale).
    P = 32

    def _combine(
        keys: pa.ChunkedArray, order_cents, purchase_cents
    ) -> pa.Table:
        df = pd.DataFrame(
            {
                "key": keys.to_numpy(),
                "order_cents": order_cents
                if order_cents is not None
                else np.int64(0),
                "purchase_cents": purchase_cents
                if purchase_cents is not None
                else np.int64(0),
            }
        )
        g = df.groupby("key", as_index=False).sum()
        t = pa.Table.from_pandas(g, preserve_index=False)
        return with_int_bucket(t, "key", P)

    orders = read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: _combine(t["o_custkey"], cents(t["o_totalprice"]).to_numpy(), None),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    events = read(sf_dir, "events", ["user_id", "event_type", "value"]).map_batches(
        lambda t: _combine(
            t["user_id"],
            None,
            pc.if_else(
                pc.equal(t["event_type"], "purchase"),
                cents(t["value"]),
                pa.scalar(0, type=pa.int64()),
            ).to_numpy(),
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.drop(columns=["bucket"]).groupby("key", as_index=False).sum()
        )

    totals = (
        orders.union(events)
        .groupby("bucket")
        .map_groups(_final, batch_format="pandas")
        .to_pandas()
    )
    universe = read_small(
        sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"]
    ).to_pandas()
    df = universe.merge(
        totals, left_on="c_custkey", right_on="key", how="left"
    ).drop(columns=["key"])
    for c in ["order_cents", "purchase_cents"]:
        df[c] = df[c].fillna(0).astype("int64")
    df["total_support_cents"] = df["order_cents"] + df["purchase_cents"]
    df["has_money"] = (df["total_support_cents"] > 0).astype("int64")
    return df[
        [
            "c_custkey",
            "c_name",
            "c_mktsegment",
            "order_cents",
            "purchase_cents",
            "total_support_cents",
            "has_money",
        ]
    ]


def anti_join(sf_dir: str) -> pd.DataFrame:
    """J7 anti-join: universe members with no fact rows, as a
    hash-partitioned ``Dataset.join("left_anti")`` — both sides stay
    distributed and only the single projected key column of the fact
    side enters the shuffle. (Round-2 fix: the old path built a
    driver-side Python set of the fact table's distinct keys — driver
    OOM at 10^10 keys.)

    Reference: missing/extra ID set-difference checks
    (scripts/validate_outputs.py:349-365).
    """
    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = read(sf_dir, "orders", ["o_custkey"])
    n_parts = max(2, min(16, cluster_cpus() // 2))
    out = cust.join(
        orders,
        join_type="left_anti",
        num_partitions=n_parts,
        on=("c_custkey",),
        right_on=("o_custkey",),
    )
    df = out.to_pandas()
    if df.empty:  # preserve the contract schema on an empty result
        df = pd.DataFrame(
            {"c_custkey": pd.Series(dtype="int64"), "c_name": pd.Series(dtype=object)}
        )
    return (
        df[["c_custkey", "c_name"]]
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# Sort / top-k / dedup / union
# ---------------------------------------------------------------------------

def topk(sf_dir: str) -> pd.DataFrame:
    """O1/O4 global sort-desc + limit. Reference: `nlargest(...,
    'TOTAL_SUPPORT')` (scripts/validate_outputs.py:456-461) and the
    sorted outputs (superpac_ie_support.py:115)."""
    ds = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    import numpy as np

    # Deterministic tie-break (totalprice desc, orderkey asc) so the
    # top-10 SET matches the oracle even on equal prices.
    top = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)
    df = top.to_pandas()
    df["total_cents"] = np.floor(df["o_totalprice"] * 100 + 0.5).astype("int64")
    return df[["o_orderkey", "o_custkey", "total_cents"]]


def topk_per_group(sf_dir: str) -> pd.DataFrame:
    """O2/O3 per-group priority ranking: top-3 customers by account
    balance per market segment. Reference: multi-key mixed-direction
    sort (scripts/merge_support.py:306) + priority-dedup ordering
    (merge_support.py:155-162)."""
    ds = read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment", "c_acctbal"])

    def top3(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["c_acctbal", "c_custkey"], ascending=[False, True]
        ).head(3)
        return g

    import numpy as np

    out = ds.groupby("c_mktsegment").map_groups(top3, batch_format="pandas")
    df = out.to_pandas()
    df["acctbal_cents"] = np.floor(df["c_acctbal"] * 100 + 0.5).astype("int64")
    return df[["c_mktsegment", "c_custkey", "c_name", "acctbal_cents"]]


def priority_dedup(sf_dir: str) -> pd.DataFrame:
    """D1 keep-best-record-per-key: for each customer keep the single
    'best' order (highest totalprice, ties -> lowest orderkey).

    Reference: sort by explicit preference then first-per-key
    (scripts/merge_support.py:150-180; individual_support.py:17-27).
    This is LWW-by-LSN generalized — the same kernel family as
    lakecdc.merge.last_per_key.
    """
    import numpy as np

    ds = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def add_bucket(t: pa.Table) -> pa.Table:
        return with_int_bucket(t, "o_custkey", 64)

    def best_per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
            kind="stable",
        )
        return g.drop_duplicates("o_custkey", keep="first")

    out = (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(best_per_key, batch_format="pandas")
    )
    df = out.to_pandas()
    df["best_total_cents"] = np.floor(df["o_totalprice"] * 100 + 0.5).astype("int64")
    return df[["o_custkey", "o_orderkey", "best_total_cents"]]


def exact_dedup(sf_dir: str) -> pd.DataFrame:
    """D2 exact full-content dedup, hash-partitioned: keep the min
    doc_id per identical text. Reference: `drop_duplicates()` on the
    multi-cycle union (scripts/combine_csv.py:69,128).

    Ray-Data shape: vectorized SipHash content-hash in map_batches ->
    groupby(hash bucket) -> first-per-TEXT per group (collision-proof:
    the hash only routes, equality is decided on the content). The
    hash, not the full text, is the shuffle key at scale. The md5
    output column is computed ONLY for the surviving (deduped) rows —
    per-row md5 never runs over the full corpus (round-2 fix).
    """
    import hashlib

    from lakecdc.dedup import _hash_str_array

    ds = read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def add_bucket(t: pa.Table) -> pa.Table:
        h = _hash_str_array(t["text"].to_pandas().to_numpy(dtype=object))
        # Fixed partition count: per-partition work stays vectorized
        # regardless of how many distinct hashes exist.
        return t.append_column(
            "bucket", pa.array((h % 64).astype("int64"), type=pa.int64())
        )

    def first_per_text(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["text", "doc_id"], kind="stable")
        g = g.drop_duplicates("text", keep="first")
        g["text_md5"] = [hashlib.md5(x.encode()).hexdigest() for x in g["text"]]
        return g[["doc_id", "text", "lang", "text_md5"]]

    out = (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(first_per_text, batch_format="pandas")
    )
    return out.to_pandas()[["doc_id", "text", "lang", "text_md5"]]


def union_provenance(sf_dir: str) -> pd.DataFrame:
    """S6/F10 multi-source union with provenance columns; D3 bag union.

    Reference: combine_csvs tagging source_file/office_type then
    concat (scripts/combine_csv.py:55-66,120-123).
    """
    def tag(name):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": pc.cast(t.column(0), pa.int64()),
                    "amount_cents": cents(t.column(1)),
                    "source_table": pa.array([name] * t.num_rows),
                }
            )

        return f

    a = read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        tag("orders"), batch_format="pyarrow"
    )
    b = read(sf_dir, "events", ["user_id", "value"]).map_batches(
        tag("events"), batch_format="pyarrow"
    )
    out = (
        a.union(b)
        .groupby(["source_table"])
        .aggregate(Sum("amount_cents", alias_name="sum_cents"), Count(alias_name="n"))
    )
    df = out.to_pandas()
    df["sum_cents"] = df["sum_cents"].astype("int64")
    return df


# ---------------------------------------------------------------------------
# CDC semantics over the events stream (SQL-checkable LWW)
# ---------------------------------------------------------------------------

def cdc_lww_state(sf_dir: str) -> pd.DataFrame:
    """The engine's LWW-by-LSN merge rule run over the `events` table
    read as a WAL: event_id = LSN, user_id = key, event_type='error' =
    tombstone, everything else = upsert. Final state = last writer per
    key, tombstoned keys dropped.

    Uses the very same kernel as the lake merge
    (lakecdc.merge.last_per_key) inside per-key-group tasks.
    Reference: keep-best dedup generalized (merge_support.py:150-180).
    """
    ds = read(sf_dir, "events", ["event_id", "user_id", "event_type", "value"])

    # Group by a derived BUCKET, not the raw key: one vectorized
    # last_per_key call over a whole bucket of keys instead of one tiny
    # pandas task per key (the priority_dedup shape).
    def add_bucket(t: pa.Table) -> pa.Table:
        return with_int_bucket(t, "user_id", 64)

    def lww(g: pa.Table) -> pa.Table:
        from lakecdc.merge import last_per_key

        last = last_per_key(g.drop_columns(["bucket"]), key="user_id", order="event_id")
        live = last.filter(pc.not_equal(last["event_type"], "error"))
        return pa.table(
            {
                "user_id": live["user_id"],
                "last_event_id": live["event_id"],
                "last_event_type": live["event_type"],
                "last_value_cents": cents(live["value"]),
            }
        )

    out = (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(lww, batch_format="pyarrow")
    )
    return out.to_pandas()


def cdc_changelog_stats(sf_dir: str) -> pd.DataFrame:
    """Lineage-style per-key changelog accounting: events applied,
    deletes seen, LSN watermark per key. Reference: the per-partition
    lineage rows (SURVEY §1.4); validate_outputs-style accounting."""
    ds = read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        d = pc.cast(pc.equal(t["event_type"], "error"), pa.int64())
        tbl = pa.table(
            {
                "user_id": t["user_id"],
                "n_events": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "n_deletes": d,
                "lsn_watermark": t["event_id"],
            }
        )
        g = tbl.group_by("user_id").aggregate(
            [("n_events", "sum"), ("n_deletes", "sum"), ("lsn_watermark", "max")]
        )
        return g.rename_columns(["user_id", "n_events", "n_deletes", "lsn_watermark"])

    out = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("n_deletes", alias_name="n_deletes"),
            Max("lsn_watermark", alias_name="lsn_watermark"),
        )
    )
    df = out.to_pandas()
    for c in ["n_events", "n_deletes", "lsn_watermark"]:
        df[c] = df[c].astype("int64")
    return df


def cdc_partial_state(sf_dir: str) -> pd.DataFrame:
    """Partial-update (patch) CDC semantics over the events stream,
    run through the engine's OWN partial-merge kernels
    (lakecdc.partial: events_to_cells -> fold_cells -> live_view):

      error    -> delete (fences older field writes)
      signup / purchase -> full-row set of (value, props-key)
      click    -> patch: sets value only
      view     -> patch: sets props-key only

    Final state per user: per-field last writer after the newest
    delete; users whose latest event is an error are dead. Same
    bucketed shape as cdc_lww_state.
    """
    from lakecdc.partial import events_to_cells, fold_cells, live_view

    ds = read(
        sf_dir, "events", ["event_id", "user_id", "event_type", "value", "props"]
    )

    def to_wal(t: pa.Table) -> pa.Table:
        n = t.num_rows
        et = t["event_type"]
        is_del = pc.equal(et, "error")
        is_click = pc.equal(et, "click")
        is_view = pc.equal(et, "view")
        op = pc.if_else(
            is_del,
            pa.scalar("delete"),
            pc.if_else(pc.or_(is_click, is_view), pa.scalar("patch"), pa.scalar("upsert")),
        )
        vc = pc.cast(cents(t["value"]), pa.int32())
        # single-element token list [value_cents]
        vlist = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32)), vc.combine_chunks()
        )
        val_det = pc.invert(pc.or_(is_del, is_view))  # upsert | click
        tokens = pc.if_else(val_det, vlist, pa.nulls(n, pa.list_(pa.int32())))
        pk = pc.struct_field(
            pc.extract_regex(t["props"], r"(?P<k>\d+)"), "k"
        )  # digits of props; null when absent
        src_det = pc.and_(
            pc.invert(pc.or_(is_del, is_click)),  # upsert | view
            pc.or_(pc.is_valid(pk), pc.invert(is_view)),  # digit-less view: no-op
        )
        source = pc.if_else(src_det, pk, pa.nulls(n, pa.string()))
        out = pa.table(
            {
                "lsn": pc.cast(t["event_id"], pa.int64()),
                "op": op,
                "doc_id": pc.cast(t["user_id"], pa.string()),
                "tokens": tokens,
                "n_tok": pc.cast(pc.list_value_length(tokens), pa.int32()),
                "source": source,
            }
        )
        b = pc.cast(pc.bit_wise_and(t["user_id"], 63), pa.int64())
        return out.append_column("bucket", b)

    def fold(g: pa.Table) -> pa.Table:
        cells = fold_cells(events_to_cells(g.drop_columns(["bucket"])))
        alive = cells.filter(pc.greater(cells["_lsn"], cells["_del_lsn"]))
        view = live_view(cells)  # same alive set, fields fenced
        return pa.table(
            {
                "user_id": pc.cast(view["doc_id"], pa.int64()),
                "value_cents": pc.cast(
                    pc.list_element(view["tokens"], 0), pa.int64()
                ),
                "props_k": pc.cast(view["source"], pa.int64()),
                "lsn_watermark": alive["_lsn"],
            }
        )

    out = (
        ds.map_batches(to_wal, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(fold, batch_format="pyarrow")
    )
    df = out.to_pandas()
    df["value_cents"] = df["value_cents"].astype("Int64").astype("float64")
    df["props_k"] = df["props_k"].astype("Int64").astype("float64")
    return df


# ---------------------------------------------------------------------------
# Merge-key degradation (schema-driven plan change)
# ---------------------------------------------------------------------------

def _multiway_support_join(sf_dir: str, events_has_ts: bool) -> pd.DataFrame:
    """J6 with the reference's merge-key degradation
    (scripts/merge_support.py:237-260): supports are aggregated on the
    composite key (custkey, year); if ANY support input lacks a usable
    year column, the join key DEGRADES to the primary key alone —
    year-keyed aggregates and the key universe collapse by sum, and
    the plan change is logged, never silent.

    ``events_has_ts=False`` simulates the producer that omits the
    secondary key component (the reference's support file with no
    usable CAND_ELECTION_YR).
    """
    import logging

    orders_tot = (
        read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(
            lambda t: pa.table(
                {
                    "key": t["o_custkey"],
                    "yr": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                    "order_cents": cents(t["o_totalprice"]),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby(["key", "yr"])
        .aggregate(Sum("order_cents", alias_name="order_cents"))
        .to_pandas()
    )
    ev_cols = ["user_id", "event_type", "value"] + (["ts"] if events_has_ts else [])

    def ev_shape(t: pa.Table) -> pa.Table:
        cols = {
            "key": t["user_id"],
            "purchase_cents": pc.if_else(
                pc.equal(t["event_type"], "purchase"),
                cents(t["value"]),
                pa.scalar(0, type=pa.int64()),
            ),
        }
        if "ts" in t.column_names:
            cols["yr"] = pc.cast(pc.year(t["ts"]), pa.int64())
        return pa.table(cols)

    ev = read(sf_dir, "events", ev_cols).map_batches(
        ev_shape, batch_format="pyarrow", zero_copy_batch=True
    )
    ev_keys = ["key", "yr"] if events_has_ts else ["key"]
    ev_tot = (
        ev.groupby(ev_keys)
        .aggregate(Sum("purchase_cents", alias_name="purchase_cents"))
        .to_pandas()
    )

    supports = {"orders": orders_tot, "events": ev_tot}
    usable = {
        name: "yr" in df.columns and df["yr"].notna().any()
        for name, df in supports.items()
    }
    degraded = not all(usable.values())
    if degraded:
        # The reference's fallback: collapse year-keyed frames to the
        # primary key by sum ("no money lost", merge_support.py:49-84)
        # and join on the primary key alone.
        logging.getLogger(__name__).warning(
            "multiway join key degraded to primary: inputs without usable "
            "year column: %s",
            sorted(n for n, ok in usable.items() if not ok),
        )
        join_keys = ["key"]
        supports = {
            name: df.drop(columns=["yr"], errors="ignore")
            .groupby("key", as_index=False)
            .sum()
            for name, df in supports.items()
        }
    else:
        join_keys = ["key", "yr"]

    # Authoritative key universe: the distinct order keys (the cn.txt
    # analogue), at the chosen key granularity.
    universe = supports["orders"][join_keys].drop_duplicates()
    df = universe.merge(supports["orders"], on=join_keys, how="left")
    df = df.merge(supports["events"], on=join_keys, how="left")
    for c in ["order_cents", "purchase_cents"]:
        df[c] = df[c].fillna(0).astype("int64")
    df["total_support_cents"] = df["order_cents"] + df["purchase_cents"]
    df["has_money"] = (df["total_support_cents"] > 0).astype("int64")
    df["join_key_degraded"] = np.int64(1 if degraded else 0)
    return df.reset_index(drop=True)


def multiway_left_join_degraded(sf_dir: str) -> pd.DataFrame:
    """The registered degradation case: the events producer omits its
    timestamp column, so the composite join key (key, yr) degrades to
    the primary key with a logged plan change."""
    return _multiway_support_join(sf_dir, events_has_ts=False)
