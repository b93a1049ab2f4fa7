"""Second operator wave: shuffle join (both sides large), exact
distributed quantiles, tumbling-window aggregation, as-of join,
seeded sampling. Registered in lakecdc.registry alongside wave 1.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Count, Sum

from lakecdc.qutil import cents, read, with_int_bucket
from lakecdc.shuffle import cluster_cpus


def shuffle_join(sf_dir: str) -> pd.DataFrame:
    """Hash-partitioned join where BOTH sides are fact tables —
    lineitem ⋈ orders on orderkey, revenue by order priority.

    Reference analogue: the merge-support join whose both sides can be
    large (scripts/merge_support.py:244-251, J6). Uses Dataset.join
    (hash shuffle on the key); num_partitions is the same kind of
    knob as EngineConfig.num_buckets.
    """
    li = read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(t: pa.Table) -> pa.Table:
        r = pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev_cents": cents(r)})

    li = li.map_batches(rev, batch_format="pyarrow", zero_copy_batch=True)
    orders = read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    # Partition count sized to the session: Dataset.join spawns one
    # hash-shuffle aggregator actor per partition — more partitions
    # than CPUs deadlocks a small session and oversubscribes a big one.
    n_parts = max(2, min(16, cluster_cpus() // 2))
    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=n_parts,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )
    out = joined.groupby("o_orderpriority").aggregate(
        Sum("rev_cents", alias_name="sum_rev_cents"), Count(alias_name="n_items")
    )
    df = out.to_pandas()
    df["sum_rev_cents"] = df["sum_rev_cents"].astype("int64")
    return df


def quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact distributed quantiles (discrete / type-1): build a
    value-count histogram with a groupby (the shuffle moves one row
    per DISTINCT value, not per row), cumulative-sum the small result.

    Reference analogue: .quantile(.25/.75/.95) checks
    (scripts/merge_support.py:297-301; validate_outputs.py:421-439).
    Matches DuckDB quantile_disc.
    """
    ds = read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({"price_cents": cents(t["l_extendedprice"])})

    hist = (
        ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("price_cents")
        .aggregate(Count(alias_name="cnt"))
        .to_pandas()
        .sort_values("price_cents")
    )
    n = int(hist["cnt"].sum())
    cum = hist["cnt"].cumsum().to_numpy()
    vals = hist["price_cents"].to_numpy()
    out = {}
    for name, q in [("p25", 0.25), ("p50", 0.5), ("p75", 0.75), ("p95", 0.95)]:
        k = int(np.ceil(q * n))  # 1-based rank of quantile_disc
        out[name + "_cents"] = int(vals[np.searchsorted(cum, k)])
    out["n"] = n
    return pd.DataFrame([out])[["n", "p25_cents", "p50_cents", "p75_cents", "p95_cents"]]


def grouped_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact PER-GROUP quantiles (discrete / type-1): one groupby
    builds a (group, value)-count histogram — the shuffle moves one
    row per distinct (group, value), not per row — then a second
    metadata-scale groupby computes each group's quantiles from its
    own histogram cumsum, fully distributed (no driver pass; a group's
    histogram is as small as its distinct-value count). The per-group
    generalization of `quantiles`; matches DuckDB quantile_disc.
    """
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "price_cents": cents(t["l_extendedprice"]),
            }
        )

    hist = (
        ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "price_cents"])
        .aggregate(Count(alias_name="cnt"))
    )

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("price_cents")
        n = int(g["cnt"].sum())
        cum = g["cnt"].cumsum().to_numpy()
        vals = g["price_cents"].to_numpy()
        row = {"l_returnflag": g["l_returnflag"].iloc[0], "n": n}
        for name, q in [("p25", 0.25), ("p50", 0.5), ("p75", 0.75), ("p95", 0.95)]:
            k = int(np.ceil(q * n))  # 1-based rank of quantile_disc
            row[name + "_cents"] = int(vals[np.searchsorted(cum, k)])
        return pd.DataFrame([row])

    df = (
        hist.groupby("l_returnflag")
        .map_groups(per_group, batch_format="pandas")
        .to_pandas()
    )
    for c in ("n", "p25_cents", "p50_cents", "p75_cents", "p95_cents"):
        df[c] = df[c].astype("int64")
    return df


def tumbling_window(sf_dir: str) -> pd.DataFrame:
    """Tumbling event-time window (1 day) per user: Ray Data has no
    watermarks, so the window key is DERIVED (floor of event time) and
    the aggregation is an ordinary grouped sum — the guide's pattern
    for stream-shaped workloads. Late data folds into its window by
    key, order never matters.
    """
    ds = read(sf_dir, "events", ["user_id", "ts", "value"])

    def win(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        return pa.table(
            {
                "user_id": t["user_id"],
                "window_start": day,
                "value_cents": cents(t["value"]),
            }
        )

    out = (
        ds.map_batches(win, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["user_id", "window_start"])
        .aggregate(Sum("value_cents", alias_name="sum_value_cents"), Count(alias_name="n_events"))
    )
    df = out.to_pandas()
    df["sum_value_cents"] = df["sum_value_cents"].astype("int64")
    # match the oracle's microsecond timestamp precision (DuckDB TIMESTAMP)
    df["window_start"] = df["window_start"].astype("datetime64[us]")
    return df


def session_window(sf_dir: str, gap_minutes: int = 30) -> pd.DataFrame:
    """Session windows (gap-based): per user, consecutive events closer
    than ``gap_minutes`` belong to one session. The streaming-engine
    operator Ray Data lacks natively, composed as: bucket by key ->
    per-bucket vectorized session assignment (sort + gap cumsum) ->
    grouped aggregate. Order within a user is (ts, event_id) so ties
    are deterministic.
    """
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    P = 64

    def add_bucket(t: pa.Table) -> pa.Table:
        return with_int_bucket(t, "user_id", P)

    gap = np.timedelta64(gap_minutes * 60, "s")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        ts = g["ts"].to_numpy()
        uid = g["user_id"].to_numpy()
        new_user = np.ones(len(g), dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        brk = new_user.copy()
        brk[1:] |= (ts[1:] - ts[:-1]) > gap
        sess_global = np.cumsum(brk)
        # session ids restart at 1 per user
        first_of_user = np.where(new_user, sess_global, 0)
        sess = sess_global - np.maximum.accumulate(first_of_user) + 1
        g = g.assign(
            session_id=sess.astype("int64"),
            value_cents=np.floor(g["value"].to_numpy() * 100 + 0.5).astype("int64"),
        )
        out = (
            g.groupby(["user_id", "session_id"], as_index=False)
            .agg(
                session_start=("ts", "min"),
                n_events=("event_id", "size"),
                sum_value_cents=("value_cents", "sum"),
            )
        )
        out["n_events"] = out["n_events"].astype("int64")
        return out

    df = (
        ev.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    df["session_start"] = df["session_start"].astype("datetime64[us]")
    return df


def asof_join(sf_dir: str) -> pd.DataFrame:
    """As-of join: for each event, the customer's most recent order at
    or before the event time (match on key, nearest earlier ts).
    BOTH sides are distributed Datasets hash-bucketed by the SAME key
    (user_id == o_custkey): each side maps to a tagged common schema,
    the union shuffles once on the bucket, and each group runs ONE
    vectorized ``merge_asof(by=key)`` after an in-group sort. (Round-2
    fix: the orders side was materialized to driver pandas and
    broadcast — at 100 TB the right side must shuffle like the left.)

    Output: one row per event that has a matching earlier order.
    """
    P = 32
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )
    _null = lambda n, t: pa.nulls(n, t)  # noqa: E731

    def tag_events(t: pa.Table) -> pa.Table:
        n = t.num_rows
        out = pa.table(
            {
                "key": pc.cast(t["user_id"], pa.int64()),
                "ts": t["ts"],
                "is_event": pa.array([True] * n, pa.bool_()),
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "o_orderkey": _null(n, pa.int64()),
                "price_cents": _null(n, pa.int64()),
            }
        )
        return with_int_bucket(out, "key", P)

    def tag_orders(t: pa.Table) -> pa.Table:
        n = t.num_rows
        out = pa.table(
            {
                "key": pc.cast(t["o_custkey"], pa.int64()),
                "ts": t["o_orderdate"],
                "is_event": pa.array([False] * n, pa.bool_()),
                "event_id": _null(n, pa.int64()),
                "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "price_cents": cents(t["o_totalprice"]),
            }
        )
        return with_int_bucket(out, "key", P)

    _EMPTY = pd.DataFrame(
        {
            "event_id": pd.Series(dtype="int64"),
            "user_id": pd.Series(dtype="int64"),
            "o_orderkey": pd.Series(dtype="int64"),
            "order_cents": pd.Series(dtype="int64"),
        }
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["is_event"]][["event_id", "key", "ts"]]
        right = g[~g["is_event"]][["key", "ts", "o_orderkey", "price_cents"]]
        if left.empty or right.empty:
            return _EMPTY
        # Keep, per (key, orderdate), the LAST order (ties: max
        # orderkey) — merge_asof picks one row per timestamp, make it
        # deterministic and SQL-expressible.
        right = right.sort_values(["key", "ts", "o_orderkey"]).drop_duplicates(
            ["key", "ts"], keep="last"
        )
        m = pd.merge_asof(
            left.sort_values("ts", kind="stable"),
            right.sort_values("ts", kind="stable"),
            on="ts",
            by="key",
            direction="backward",
        )
        m = m.dropna(subset=["o_orderkey"])
        if m.empty:
            return _EMPTY
        return pd.DataFrame(
            {
                "event_id": m["event_id"].astype("int64"),
                "user_id": m["key"].astype("int64"),
                "o_orderkey": m["o_orderkey"].astype("int64"),
                "order_cents": m["price_cents"].astype("int64"),
            }
        )

    tagged = ev.map_batches(
        tag_events, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        orders.map_batches(tag_orders, batch_format="pyarrow", zero_copy_batch=True)
    )
    out = tagged.groupby("bucket").map_groups(per_bucket, batch_format="pandas")
    return out.to_pandas()


def range_join(sf_dir: str, window_minutes: int = 60) -> pd.DataFrame:
    """Range (interval) join: for each event, the same user's STRICTLY
    EARLIER events within the trailing ``window_minutes`` band — an
    equi-join on the key plus a banded time predicate, the operator
    class between the point equi-join and the as-of join (which keeps
    only the single nearest match over an unbounded band).

    Physical plan: one column-pruned read, hash-bucket by the key,
    ONE shuffle, then a vectorized per-bucket self-merge + band filter
    + per-event aggregate (the standard banded-join plan — candidate
    blow-up is bounded by events-per-user within the band). Every
    bucket's work is independent; nothing is driver-materialized, so
    the plan holds at 100 TB with the band as the skew knob.

    Output: one row per event with >= 1 in-band predecessor:
    (event_id, user_id, n_prior, prior_cents).
    """
    P = 32
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def tag(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "key": pc.cast(t["user_id"], pa.int64()),
                "ts": t["ts"],
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "value_cents": cents(t["value"]),
            }
        )
        return with_int_bucket(out, "key", P)

    _EMPTY = pd.DataFrame(
        {
            "event_id": pd.Series(dtype="int64"),
            "user_id": pd.Series(dtype="int64"),
            "n_prior": pd.Series(dtype="int64"),
            "prior_cents": pd.Series(dtype="int64"),
        }
    )
    band = pd.Timedelta(minutes=window_minutes)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[["event_id", "key", "ts"]]
        right = g[["key", "ts", "value_cents"]].rename(columns={"ts": "b_ts"})
        m = left.merge(right, on="key", how="inner")
        m = m[(m["b_ts"] < m["ts"]) & (m["b_ts"] >= m["ts"] - band)]
        if m.empty:
            return _EMPTY
        agg = m.groupby(["event_id", "key"], as_index=False).agg(
            n_prior=("value_cents", "size"), prior_cents=("value_cents", "sum")
        )
        return pd.DataFrame(
            {
                "event_id": agg["event_id"].astype("int64"),
                "user_id": agg["key"].astype("int64"),
                "n_prior": agg["n_prior"].astype("int64"),
                "prior_cents": agg["prior_cents"].astype("int64"),
            }
        )

    tagged = ev.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    out = tagged.groupby("bucket").map_groups(per_bucket, batch_format="pandas")
    return out.to_pandas()


def multiway_left_join_at_scale(sf_dir: str) -> pd.DataFrame:
    """J6 at scale: the same universe ⟕ aggregates ⟕ aggregates plan
    as queries.multiway_left_join, but with NO driver-side merge — the
    universe and both support aggregates stay Datasets and the joins
    are hash-shuffle Dataset.join calls, so the plan holds when the
    key universe no longer fits one process (the reference's
    merge_support join where both sides can be large,
    scripts/merge_support.py:244-251). Same output, same oracle."""
    n_parts = max(2, min(16, cluster_cpus() // 2))

    orders_tot = (
        read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(
            lambda t: pa.table(
                {"okey": t["o_custkey"], "order_cents": cents(t["o_totalprice"])}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("okey")
        .aggregate(Sum("order_cents", alias_name="order_cents"))
    )
    ev_tot = (
        read(sf_dir, "events", ["user_id", "event_type", "value"])
        .map_batches(
            lambda t: pa.table(
                {
                    "ekey": t["user_id"],
                    "purchase_cents": pc.if_else(
                        pc.equal(t["event_type"], "purchase"),
                        cents(t["value"]),
                        pa.scalar(0, type=pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("ekey")
        .aggregate(Sum("purchase_cents", alias_name="purchase_cents"))
    )
    uni = read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])
    joined = uni.join(
        orders_tot,
        join_type="left_outer",
        num_partitions=n_parts,
        on=("c_custkey",),
        right_on=("okey",),
    ).join(
        ev_tot,
        join_type="left_outer",
        num_partitions=n_parts,
        on=("c_custkey",),
        right_on=("ekey",),
    )

    def derive(t: pa.Table) -> pa.Table:
        oc = pc.fill_null(pc.cast(t["order_cents"], pa.int64()), 0)
        ec = pc.fill_null(pc.cast(t["purchase_cents"], pa.int64()), 0)
        total = pc.add(oc, ec)
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "c_name": t["c_name"],
                "c_mktsegment": t["c_mktsegment"],
                "order_cents": oc,
                "purchase_cents": ec,
                "total_support_cents": total,
                "has_money": pc.cast(pc.greater(total, 0), pa.int64()),
            }
        )

    return joined.map_batches(derive, batch_format="pyarrow").to_pandas()


_SAMPLE_MULT = 2654435761  # Knuth multiplicative hash constant


def sampled_stats(sf_dir: str, pct: int = 5) -> pd.DataFrame:
    """O5 sampling via a DETERMINISTIC hash predicate: keep rows where
    hash(l_orderkey*8 + l_linenumber) lands in the first `pct`% of
    residues. Same uniform-sample behavior as random_sample at scale
    (the hash whitens the key), but reproducible across runs and
    engines — so the oracle can check it exactly, and a resumed
    pipeline re-selects the identical rows."""
    ds = read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"])

    def pick(t: pa.Table) -> pa.Table:
        key = t["l_orderkey"].to_numpy() * 8 + t["l_linenumber"].to_numpy()
        keep = (key * _SAMPLE_MULT) % 1000 < pct * 10
        t = t.filter(pa.array(keep))
        return pa.table({"price_cents": cents(t["l_extendedprice"])})

    agg = ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("price_cents", alias_name="sum_cents"), Count(alias_name="n")
    )
    return pd.DataFrame([{"n": int(agg["n"]), "sum_cents": int(agg["sum_cents"])}])
