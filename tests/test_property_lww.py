"""Property-based tests (hypothesis): random event streams through the
engine's kernels must equal a dict replay, for ANY batch split.

Covers edge cases the seeded generator never hits: empty token lists,
deletes of never-inserted keys, upsert-after-delete chains, single-key
streams, adversarial batch boundaries. Kernel-level (no Ray) so
hundreds of examples run in seconds; the full Ray path is pinned by
the e2e suite (same kernels, same semantics).

LSNs are unique by engine contract (a WAL position); generators
enforce it.
"""

from __future__ import annotations

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from lakecdc.apply import make_prep_fn
from lakecdc.config import OP_DELETE
from lakecdc.merge import compact_events, last_per_key, merge_partition
from lakecdc.schemas import WAL_SCHEMA_V1

DOCS = [f"d{i}" for i in range(6)]

event_st = st.fixed_dictionaries(
    {
        "op": st.sampled_from(["insert", "update", "upsert", "delete"]),
        "doc_id": st.sampled_from(DOCS),
        "tokens": st.lists(st.integers(0, 100), max_size=5),
        "source": st.one_of(st.none(), st.sampled_from(["a", "b"])),
    }
)


def to_table(events: list[dict]) -> pa.Table:
    rows = []
    for lsn, e in enumerate(events, start=1):  # unique LSNs by contract
        tokens = None if e["op"] == OP_DELETE else e["tokens"]
        rows.append(
            {
                "lsn": lsn,
                "op": e["op"],
                "doc_id": e["doc_id"],
                "tokens": tokens,
                "n_tok": None if tokens is None else len(tokens),
                "source": e["source"],
            }
        )
    return pa.Table.from_pylist(rows, schema=WAL_SCHEMA_V1)


def dict_replay(events: list[dict]) -> dict[str, tuple]:
    state: dict[str, tuple | None] = {}
    for lsn, e in enumerate(events, start=1):
        if e["op"] == OP_DELETE:
            state[e["doc_id"]] = None
        else:
            state[e["doc_id"]] = (tuple(e["tokens"]), e["source"])
    return {k: v for k, v in state.items() if v is not None}


def engine_replay(events: list[dict], splits: list[int], num_buckets: int) -> dict:
    """Run the real pipeline kernels: per-batch prep (validate +
    compact + bucket), per-bucket global compact + merge."""
    table = to_table(events)
    prep = make_prep_fn(num_buckets)
    # arbitrary batch boundaries
    batches = []
    start = 0
    for s in splits:
        if start >= table.num_rows:
            break
        batches.append(table.slice(start, s))
        start += s
    if start < table.num_rows:
        batches.append(table.slice(start))
    prepped = [prep(b) for b in batches if b.num_rows]
    state: dict[str, tuple] = {}
    if not prepped:
        return state
    allp = pa.concat_tables(prepped, promote_options="default")
    import pyarrow.compute as pc

    for b in range(num_buckets):
        grp = allp.filter(pc.equal(allp["bucket"], b))
        if grp.num_rows == 0:
            continue
        events_b = grp.drop_columns(["bucket", "_invalid"])
        delta = compact_events(events_b)
        merged, _ = merge_partition(None, delta)
        live = merged.filter(pc.invert(merged["_deleted"]))
        for r in live.to_pylist():
            state[r["doc_id"]] = (tuple(r["tokens"]), r["source"])
            assert r["n_tok"] == len(r["tokens"])  # invariant holds
    return state


@settings(max_examples=150, deadline=None)
@given(
    events=st.lists(event_st, max_size=40),
    splits=st.lists(st.integers(1, 7), max_size=10),
    num_buckets=st.sampled_from([1, 3, 8]),
)
def test_kernel_replay_matches_dict_replay(events, splits, num_buckets):
    assert engine_replay(events, splits, num_buckets) == dict_replay(events)


@settings(max_examples=60, deadline=None)
@given(events=st.lists(event_st, max_size=30))
def test_fold_order_independence(events):
    """Applying the stream as one fold equals applying it as two halves
    merged sequentially (the apply_epochs correctness argument)."""
    if not events:
        return
    half = len(events) // 2
    t = to_table(events)
    d_all = compact_events(t)
    one, _ = merge_partition(None, d_all)

    first, _ = merge_partition(None, compact_events(t.slice(0, half)))
    two, _ = merge_partition(first, compact_events(t.slice(half)))

    import pyarrow.compute as pc

    def live_state(m):
        live = m.filter(pc.invert(m["_deleted"]))
        return {
            r["doc_id"]: (tuple(r["tokens"]), r["source"]) for r in live.to_pylist()
        }

    assert live_state(one) == live_state(two)


def sort_path(table: pa.Table, key: str = "doc_id", order: str = "_lsn") -> pa.Table:
    """``last_per_key``'s stable sort, boundary mask and take, with no
    shortcut: the reference its sorted-input skip must equal."""
    import pyarrow.compute as pc

    if table.num_rows <= 1:
        return table
    idx = pc.sort_indices(table, sort_keys=[(key, "ascending"), (order, "ascending")])
    keys = table[key].combine_chunks().take(idx)
    last = pc.fill_null(pc.not_equal(keys[:-1], keys[1:]), False).to_pylist() + [True]
    return table.take(pc.filter(idx, pa.array(last)))


@st.composite
def keyed_tables(draw):
    """(kind, table): sorted unique keys, sorted keys with duplicates,
    keys in drawn order, or sorted unique keys with nulls among them
    (without its null guard the skip would take these); ties on ``_lsn`` allowed,
    a ``row`` column to tell rows apart, cut into random chunks."""
    kind = draw(st.sampled_from(["sorted_unique", "sorted_dups", "unsorted", "null_keys"]))
    keys = draw(st.lists(st.text(alphabet="abc", max_size=3), max_size=25))
    if kind in ("sorted_unique", "null_keys"):
        keys = sorted(set(keys))
    elif kind == "sorted_dups":
        keys = sorted(keys + keys[: draw(st.integers(1, 3))])
    if kind == "null_keys":
        at = draw(st.lists(st.integers(0, len(keys)), min_size=1, max_size=3))
        for i in sorted(at, reverse=True):
            keys.insert(i, None)
    n = len(keys)
    lsn = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    t = pa.table({"doc_id": pa.array(keys, pa.string()), "_lsn": pa.array(lsn, pa.int64()),
                  "row": pa.array(range(n), pa.int64())})
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    chunks = [t.slice(lo, hi - lo) for lo, hi in zip([0, *cuts], [*cuts, n])]
    return kind, pa.concat_tables(chunks)


@settings(max_examples=300, deadline=None)
@given(case=keyed_tables())
def test_last_per_key_skip_equals_sort_path(case):
    """``last_per_key`` returns a table already one row per key in key
    order as it is, and equals the plain sort path, rows and row order,
    on every table: duplicated, unsorted and null keys take the sort."""
    kind, t = case
    got = last_per_key(t)
    assert got.equals(sort_path(t))
    if kind == "sorted_unique":
        assert got is t
