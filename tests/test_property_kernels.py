"""Property-based tests (hypothesis) for the dedup/text kernels:
results must be invariant to batch composition (how docs are grouped
into map_batches calls) and, for MinHash, to within-doc token
duplication and order — the guarantees the distributed pipelines rely
on when Ray re-blocks data. Kernel-level (no Ray session)."""

from __future__ import annotations

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from lakecdc.dedup import MinHasher

token_st = st.sampled_from(["alpha", "beta", "gamma", "delta", "x1", "y2"])
doc_st = st.lists(token_st, max_size=12)


def _batch(texts: list[str]) -> pd.DataFrame:
    return pd.DataFrame(
        {"doc_id": list(range(len(texts))), "text": texts}
    )


@settings(max_examples=60, deadline=None)
@given(docs=st.lists(doc_st, min_size=1, max_size=8), cut=st.integers(0, 8))
def test_minhash_signatures_batch_split_invariant(docs, cut):
    """sig_and_tokens over one batch == over any two-way split."""
    mh = MinHasher(16)
    texts = [" ".join(d) for d in docs]
    whole = mh.sig_and_tokens(_batch(texts))
    cut = min(cut, len(texts))
    parts = [
        mh.sig_and_tokens(_batch(texts[:cut])),
        mh.sig_and_tokens(_batch(texts[cut:])),
    ]
    split = pd.concat([p for p in parts if len(p)], ignore_index=True)
    for i in range(len(texts)):
        assert (np.asarray(whole["sig"][i]) == np.asarray(split["sig"][i])).all()
        assert (np.asarray(whole["toks"][i]) == np.asarray(split["toks"][i])).all()


@settings(max_examples=60, deadline=None)
@given(doc=st.lists(token_st, min_size=1, max_size=12), seed=st.integers(0, 5))
def test_minhash_signature_set_semantics(doc, seed):
    """Signature depends only on the token SET: duplication and order
    don't change it (the LSH contract)."""
    rng = np.random.default_rng(seed)
    mh = MinHasher(16)
    base = mh.signatures(pd.Series([" ".join(doc)]))
    dup = doc + [doc[int(rng.integers(len(doc)))]]
    rng.shuffle(dup)
    other = mh.signatures(pd.Series([" ".join(dup)]))
    assert (base == other).all()


@settings(max_examples=30, deadline=None)
@given(docs=st.lists(doc_st, min_size=1, max_size=6))
def test_minhash_estimate_bounds(docs):
    """Identical docs estimate 1.0; signature agreement is always in
    [0, 1] and equals 1 for equal token sets."""
    mh = MinHasher(16)
    texts = [" ".join(d) for d in docs]
    sig = mh.signatures(pd.Series(texts + texts))
    n = len(texts)
    agree = (sig[:n] == sig[n:]).mean(axis=1)
    assert (agree == 1.0).all()


# ---------------------------------------------------------------------------
# Snapshot-diff kernel: for ANY two LWW states built from a random
# event stream split at a random point, applying the emitted changelog
# to the earlier state reproduces the later one.
# ---------------------------------------------------------------------------

@st.composite
def _event_streams(draw):
    n = draw(st.integers(1, 60))
    docs = [f"d{i}" for i in range(draw(st.integers(1, 12)))]
    evs = []
    for lsn in range(n):
        doc = draw(st.sampled_from(docs))
        op = draw(st.sampled_from(["upsert", "delete"]))
        toks = draw(st.lists(st.integers(0, 99), max_size=5))
        evs.append((lsn, doc, op, toks))
    split = draw(st.integers(0, n))
    return evs, split


def _lww_state(evs):
    """dict doc -> (lsn, deleted, tokens) after LWW replay."""
    state = {}
    for lsn, doc, op, toks in evs:
        state[doc] = (lsn, op == "delete", None if op == "delete" else toks)
    return state


def _state_frames(state, keys_only):
    import pandas as pd

    rows = sorted(state.items())
    df = pd.DataFrame(
        {
            "doc_id": pd.Series([d for d, _ in rows], dtype="object"),
            "_lsn": pd.Series([v[0] for _, v in rows], dtype="int64"),
            "_deleted": pd.Series([v[1] for _, v in rows], dtype="bool"),
        }
    )
    if not keys_only:
        df["tokens"] = [v[2] for _, v in rows]
        df["n_tok"] = pd.Series(
            [None if v[2] is None else len(v[2]) for _, v in rows], dtype="Int32"
        ).astype("object")
        df["source"] = [None for _ in rows]
        df = df[["doc_id", "tokens", "n_tok", "source", "_lsn", "_deleted"]]
    else:
        df = df[~df["_deleted"]][["doc_id", "_lsn"]]
    return df


@given(_event_streams())
@settings(max_examples=60, deadline=None)
def test_diff_frames_round_trip(stream):
    from lakecdc.diff import _diff_frames

    evs, split = stream
    a, b = _lww_state(evs[:split]), _lww_state(evs)
    ev = _diff_frames(_state_frames(b, False), _state_frames(a, True)).to_pandas()
    # replay the changelog onto A's live view
    live = {d: v[2] for d, v in a.items() if not v[1]}
    for r in ev.itertuples():
        if r.op == "delete":
            live.pop(r.doc_id, None)
        else:
            live[r.doc_id] = list(r.tokens)
    want = {d: v[2] for d, v in b.items() if not v[1]}
    assert {k: list(v) for k, v in live.items()} == {
        k: list(v) for k, v in want.items()
    }
    # minimality: an emitted update/insert always changes the winning lsn
    a_live_lsn = {d: v[0] for d, v in a.items() if not v[1]}
    for r in ev.itertuples():
        if r.op != "delete":
            assert a_live_lsn.get(r.doc_id) != r.lsn


# ---------------------------------------------------------------------------
# Dup-index delta kernel: any chain of live-state deltas, LWW-folded,
# reproduces the final state's band rows (the incremental == batch
# guarantee the Ray maintenance loop relies on).
# ---------------------------------------------------------------------------

_DOCS = [f"d{i}" for i in range(5)]

# one epoch's worth of mutations: doc -> new token list (empty = delete)
epoch_st = st.dictionaries(
    st.sampled_from(_DOCS),
    st.one_of(st.none(), st.lists(st.integers(0, 30), max_size=6)),
    max_size=5,
)


def _states_from_script(script):
    """Materialize live-state frames (doc_id, _lsn, tokens) after each
    epoch of mutations, with globally increasing LSNs (WAL contract)."""
    lsn = 0
    live: dict[str, tuple[int, list[int]]] = {}
    states = []
    for muts in script:
        for doc in sorted(muts):
            lsn += 1
            if muts[doc] is None:
                live.pop(doc, None)
            else:
                live[doc] = (lsn, muts[doc])
        states.append(
            pd.DataFrame(
                {
                    "doc_id": list(live),
                    "_lsn": np.array([v[0] for v in live.values()], dtype=np.int64),
                    "tokens": [np.array(v[1], dtype=np.int64) for v in live.values()],
                }
            )
        )
    return states


@settings(max_examples=60, deadline=None)
@given(script=st.lists(epoch_st, min_size=1, max_size=5))
def test_dupindex_delta_chain_folds_to_final_state(script):
    from lakecdc.dupindex import BAND, _band_deltas_from_states, _band_rows

    states = _states_from_script(script)
    empty = states[0].iloc[0:0]
    deltas = []
    prev = empty
    for s in states:
        deltas.append(_band_deltas_from_states(prev, s).to_pandas())
        prev = s
    chain = pd.concat(deltas, ignore_index=True)
    folded = BAND.fold(chain)[["doc_id", "band", "bkey"]]
    final = states[-1]
    want = _band_rows(
        final["doc_id"].to_numpy(dtype=object),
        final["_lsn"].to_numpy(dtype=np.int64),
        final["tokens"].to_numpy(),
    )[["doc_id", "band", "bkey"]]

    def norm(df):
        return (
            df.astype({"band": "int64", "bkey": "int64"})
            .sort_values(["doc_id", "band", "bkey"])
            .reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(norm(folded), norm(want))


# --- round-4: corpus-level text kernels == per-doc kernels, bit for bit ---

text_st = st.text(
    alphabet=st.characters(max_codepoint=0x2FF), min_size=0, max_size=40
)


@settings(max_examples=80, deadline=None)
@given(texts=st.lists(text_st, min_size=0, max_size=12), k=st.integers(2, 6))
def test_gram_hashes_corpus_matches_per_doc(texts, k):
    from lakecdc.text import _gram_hashes, _gram_hashes_corpus

    base = 1099511628211
    h, starts, m = _gram_hashes_corpus(texts, k, base)
    assert int(m.sum()) == h.size
    for i, t in enumerate(texts):
        want = _gram_hashes(t, k, base)
        got = h[starts[i] : starts[i] + m[i]]
        assert got.tolist() == want.tolist(), (i, t)


@settings(max_examples=80, deadline=None)
@given(
    texts=st.lists(text_st, min_size=0, max_size=12),
    k=st.integers(2, 5),
    window=st.integers(1, 7),
)
def test_winnow_corpus_matches_per_doc(texts, k, window):
    from lakecdc.text import _winnow_corpus, _winnow_doc

    base = 1099511628211
    doc_idx, sel = _winnow_corpus(texts, k, window, base)
    for i, t in enumerate(texts):
        want = _winnow_doc(t, k, window, base)
        got = sel[doc_idx == i]
        assert got.tolist() == want.tolist(), (i, t)


@given(
    st.lists(st.integers(0, 10_000), min_size=2, max_size=24, unique=True),
    st.integers(1, 23),
    st.integers(0, 2**32 - 1),
)
def test_shard_tile_pairs_invariant_to_shard_id_order(ids, cut, seed):
    """The within-cell shard-pair tiling must emit the SAME oriented
    pair set however the cell's rows were split into shards — in
    particular when the split interleaves id ranges (shards are built
    in ray.data batch-ARRIVAL order, which is unordered). Regression:
    the off-diagonal `a < b` filter silently dropped pairs whose
    shard-i id exceeded their shard-j id."""
    import numpy as np

    from lakecdc.dedup import shard_tile_pairs

    rng = np.random.default_rng(seed)
    ids_arr = np.array(ids, dtype=np.int64)
    rng.shuffle(ids_arr)  # unsorted arrival order
    V = rng.standard_normal((len(ids_arr), 8))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    thr = 0.0  # dense threshold: maximize pairs under test
    cut = min(cut, len(ids_arr) - 1)

    def pairs(shards):
        out = set()
        for i in range(len(shards)):
            for j in range(i, len(shards)):
                ia, va = shards[i]
                ib, vb = shards[j]
                lo, hi, _ = shard_tile_pairs(
                    ia, va, ib, vb, diagonal=(i == j), threshold=thr
                )
                for a, b in zip(lo, hi):
                    assert a < b
                    assert (a, b) not in out  # exactly-once per pair
                    out.add((int(a), int(b)))
        return out

    one = pairs([(ids_arr, V)])
    two = pairs([(ids_arr[:cut], V[:cut]), (ids_arr[cut:], V[cut:])])
    assert two == one


# ---------------------------------------------------------------------------
# partial.fold_cells: the round-4 fused scatter-argmax fold must be
# row-for-row identical to the sort-based reference it replaced
# (last_per_key per order column), including ties on (key, order) —
# duplicate LSNs and -1 sentinel collisions are generated on purpose.
# ---------------------------------------------------------------------------

op_st = st.sampled_from(["insert", "update", "upsert", "delete", "patch"])
event_st = st.tuples(
    st.integers(0, 9),  # lsn — tiny range to force (key, lsn) ties
    op_st,
    st.sampled_from(["a", "b", "c"]),  # doc_id
    st.one_of(st.none(), st.lists(st.integers(0, 5), max_size=3)),  # tokens
    st.one_of(st.none(), st.sampled_from(["s1", "s2"])),  # source
)


def _fold_cells_reference(cells):
    """The pre-round-4 implementation, verbatim semantics: four
    last_per_key passes aligned by key order."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from lakecdc.merge import last_per_key
    from lakecdc.schemas import PARTIAL_FILE_SCHEMA

    if cells.num_rows == 0:
        return PARTIAL_FILE_SCHEMA.empty_table()
    t_row = last_per_key(cells, key="doc_id", order="_lsn")
    t_del = last_per_key(cells, key="doc_id", order="_del_lsn")
    t_tok = last_per_key(cells, key="doc_id", order="_tokens_lsn")
    t_src = last_per_key(cells, key="doc_id", order="_source_lsn")
    lsn = t_row["_lsn"].combine_chunks()
    del_lsn = t_del["_del_lsn"].combine_chunks()
    return pa.table(
        {
            "doc_id": t_row["doc_id"],
            "tokens": t_tok["tokens"],
            "n_tok": t_tok["n_tok"],
            "source": t_src["source"],
            "_lsn": lsn,
            "_del_lsn": del_lsn,
            "_tokens_lsn": t_tok["_tokens_lsn"],
            "_source_lsn": t_src["_source_lsn"],
            "_deleted": pc.equal(lsn, del_lsn),
        },
        schema=PARTIAL_FILE_SCHEMA,
    )


@settings(max_examples=120, deadline=None)
@given(events=st.lists(event_st, max_size=16), cut=st.integers(0, 16))
def test_fold_cells_fused_matches_sort_reference(events, cut):
    import pyarrow as pa

    from lakecdc.partial import events_to_cells, fold_cells

    tbl = pa.table(
        {
            "lsn": pa.array([e[0] for e in events], type=pa.int64()),
            "op": pa.array([e[1] for e in events], type=pa.string()),
            "doc_id": pa.array([e[2] for e in events], type=pa.string()),
            "tokens": pa.array(
                [e[3] for e in events], type=pa.list_(pa.int32())
            ),
            "n_tok": pa.array(
                [len(e[3]) if e[3] is not None else None for e in events],
                type=pa.int32(),
            ),
            "source": pa.array([e[4] for e in events], type=pa.string()),
        }
    )
    cells = events_to_cells(tbl)
    got = fold_cells(cells)
    want = _fold_cells_reference(cells)
    assert got.equals(want), f"\ngot:  {got.to_pydict()}\nwant: {want.to_pydict()}"
    # associativity under the fused kernel: fold of folded halves ==
    # fold of the whole (the property the combiner/epoch-fold relies on)
    cut = min(cut, cells.num_rows)
    halves = pa.concat_tables(
        [fold_cells(cells.slice(0, cut)), fold_cells(cells.slice(cut))]
    )
    assert fold_cells(halves).equals(want)
