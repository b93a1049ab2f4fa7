"""CLI driver — the `run_all.py` / `combine_csv.py` analogue.

Owns the Ray session (library code never does). Subcommands:

  synth    generate a deterministic WAL
  apply    tail + apply WAL epochs (resume-safe; --fold for batching)
  compact  tombstone-compact all partitions
  vacuum   delete unreferenced lake files
  show     print lake/lineage summary
  verify   replay-oracle check of the current lake
  semindex persisted semantic index lifecycle over an embeddings
           table (build / update / gate / search / forget / compact
           — table-driven, not lake-rooted)

Usage:
  python -m lakecdc.cli synth --root /tmp/mylake --docs 1000 --epochs 3 --events 5000
  python -m lakecdc.cli apply --root /tmp/mylake
  python -m lakecdc.cli verify --root /tmp/mylake

Reference: scripts/run_all.py:31-70 (sequential step driver with
per-step error handling) and combine_csv.py:135-153 (argparse CLI).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            **kwargs,
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="lakecdc")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("synth")
    sp.add_argument("--root", required=True)
    sp.add_argument("--docs", type=int, default=1000)
    sp.add_argument("--epochs", type=int, default=3)
    sp.add_argument("--events", type=int, default=5000, help="events per epoch")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--evolution-epoch", type=int, default=None)
    sp.add_argument("--zipf", type=float, default=1.3)

    # Persisted semantic index (semindex.py): table-driven, not
    # lake-rooted — its inputs are an embeddings parquet dir and its
    # own index root, so it skips EngineConfig entirely.
    sp = sub.add_parser("semindex")
    sp.add_argument("--index-root", required=True, dest="index_root")
    sp.add_argument(
        "--table-dir", default=None, dest="table_dir",
        help="directory holding embeddings.parquet (build/update/gate)",
    )
    sp.add_argument(
        "--op",
        choices=["build", "update", "gate", "search", "forget", "compact"],
        required=True,
    )
    sp.add_argument(
        "--ids", default=None,
        help="forget only: comma-separated vec_ids (fence + vacuum + audit)",
    )
    sp.add_argument(
        "--epoch", type=int, default=None,
        help="epoch residue (vec_id %% mod) for update/gate",
    )
    # build-only knobs (frozen into meta.json; update/gate/compact read
    # the stored values — passing them there is an error, not a no-op)
    sp.add_argument("--k", type=int, default=None, help="build only (default 8)")
    sp.add_argument("--iters", type=int, default=None, help="build only (default 5)")
    sp.add_argument("--mod", type=int, default=None, help="build only (default 4)")
    sp.add_argument(
        "--train-rems", default=None, dest="train_rems",
        help="build only: comma-separated residues the centroids are "
        "trained on (default 0,1)",
    )
    sp.add_argument(
        "--flush-rows", type=int, default=None, dest="flush_rows",
        help="build only (default 4096)",
    )
    sp.add_argument(
        "--threshold", type=float, default=None,
        help="gate only (default 0.38)",
    )
    sp.add_argument(
        "--n-queries", type=int, default=None, dest="n_queries",
        help="search only: probe set is vec_id < N (default 8)",
    )
    sp.add_argument(
        "--topk", type=int, default=None,
        help="search only: neighbors per query (default 5)",
    )
    sp.add_argument(
        "--compact-over", type=int, default=None, dest="compact_over",
        help="build: auto-compaction policy stored in the index "
        "(default 8); compact: fold chains longer than N files "
        "(default 1 = full fold)",
    )

    for name in (
        "apply", "compact", "vacuum", "show", "verify", "validate",
        "lookup", "changelog", "refresh-view", "diff", "index",
        "search-token", "relay", "dupindex", "neardup", "quarantine",
        "forget",
    ):
        s = sub.add_parser(name)
        s.add_argument("--root", required=True)
        if name != "apply":
            # default None: the engine the lake was written with is
            # recovered from <root>/engine.json (EngineConfig.load)
            s.add_argument(
                "--merge-engine", choices=["lww", "partial"], default=None,
                dest="merge_engine",
            )
        if name == "lookup":
            s.add_argument("--ids", required=True, help="comma-separated doc_ids")
            s.add_argument("--as-of", type=int, default=None, dest="as_of")
        if name == "forget":
            s.add_argument("--ids", required=True, help="comma-separated doc_ids")
            s.add_argument(
                "--keep-files", action="store_true", dest="keep_files",
                help="logical deletion only: skip the physical-erasure vacuum",
            )
        if name == "changelog":
            s.add_argument("--from-epoch", type=int, default=None, dest="from_epoch")
            s.add_argument("--to-epoch", type=int, default=None, dest="to_epoch")
        if name == "diff":
            s.add_argument("--from-epoch", type=int, default=None, dest="from_epoch")
            s.add_argument("--to-epoch", type=int, default=None, dest="to_epoch")
            s.add_argument(
                "--out", default=None,
                help="write the changelog as parquet here instead of printing counts",
            )
            s.add_argument(
                "--suppress-unchanged", action="store_true",
                dest="suppress_unchanged",
                help="drop no-op updates (new LSN, byte-identical payload)",
            )
        if name == "relay":
            s.add_argument("--out", required=True,
                           help="changelog output root (one version=V dir per lake apply)")
            s.add_argument("--from-epoch", type=int, default=None, dest="from_epoch")
            s.add_argument("--suppress-unchanged", action="store_true",
                           dest="suppress_unchanged")
        if name in ("index", "search-token"):
            # default: the modulus pinned in the index's meta.json
            # (32 for a fresh index)
            s.add_argument("--token-buckets", type=int, default=None,
                           dest="token_buckets")
        if name in ("index", "dupindex"):
            s.add_argument(
                "--compact", action="store_true",
                help="after maintenance, fold each bucket's epoch chain "
                "into one base file (O(1) files per probe)",
            )
            s.add_argument(
                "--compact-over", type=int, default=None, metavar="N",
                dest="compact_over",
                help="continuous-tail policy: fold only bucket chains "
                "longer than N files (implies --compact)",
            )
        if name == "search-token":
            s.add_argument("--token", type=int, required=True)
            s.add_argument("--as-of", type=int, default=None, dest="as_of")
        if name in ("dupindex", "neardup"):
            # default: the modulus pinned in the index's meta.json
            # (16 for a fresh index)
            s.add_argument("--band-buckets", type=int, default=None,
                           dest="band_buckets")
        if name == "neardup":
            s.add_argument(
                "--tokens", default=None,
                help="comma-separated query token ints: candidate lookup; "
                "omit to list all live near-dup candidate pairs",
            )
            s.add_argument("--as-of", type=int, default=None, dest="as_of")
        if name == "apply":
            s.add_argument(
                "--mode", choices=["cow", "mor"], default="cow",
                help="cow: rewrite partitions; mor: write merge-on-read deltas",
            )
            s.add_argument(
                "--merge-engine", choices=["lww", "partial"], default=None,
                dest="merge_engine",
                help="lww: full-row last-writer-wins; partial: per-field "
                "last-writer with op=patch partial updates "
                "(default: the engine the lake was created with, else lww)",
            )
            s.add_argument("--fold", type=int, default=1)
            s.add_argument("--max-epoch", type=int, default=None)
            s.add_argument(
                "--follow",
                action="store_true",
                help="keep tailing: poll the WAL dir and apply new epochs as they appear",
            )
            s.add_argument("--poll-sec", type=float, default=2.0)
            s.add_argument(
                "--max-polls", type=int, default=None,
                help="stop after this many empty polls (default: forever)",
            )
            s.add_argument(
                "--compact-over", type=int, default=None, dest="compact_over",
                help="auto-compact when any partition's file chain exceeds "
                "this many entries (bounds merge-on-read read amplification)",
            )

    args = p.parse_args(argv)

    if args.cmd == "semindex":
        if args.op in ("update", "gate") and args.epoch is None:
            p.error("--epoch is required for update/gate")
        if args.op not in ("compact", "forget") and args.table_dir is None:
            p.error("--table-dir is required for build/update/gate/search")
        if args.op == "forget" and args.ids is None:
            p.error("--ids is required for forget")
        if args.op != "forget" and args.ids is not None:
            p.error("--ids only applies to --op forget")
        victims: list[int] = []
        if args.op == "forget":
            try:
                victims = [
                    int(x.strip()) for x in args.ids.split(",") if x.strip()
                ]
            except ValueError:
                p.error(f"--ids must be comma-separated integers: {args.ids!r}")
            if not victims:
                p.error("--ids parsed to an empty list")
        if args.op != "build":
            ignored = [
                f"--{n.replace('_', '-')}"
                for n in ("k", "iters", "mod", "train_rems", "flush_rows")
                if getattr(args, n) is not None
            ]
            if ignored:
                p.error(
                    f"{' '.join(ignored)} only apply to --op build (the "
                    "index's stored meta.json governs the other ops)"
                )
        if args.op != "gate" and args.threshold is not None:
            p.error("--threshold only applies to --op gate")
        if args.op != "search" and (
            args.n_queries is not None or args.topk is not None
        ):
            p.error("--n-queries/--topk only apply to --op search")
        if args.op not in ("build", "compact") and args.compact_over is not None:
            p.error("--compact-over only applies to --op build/compact")
        _ray_init(args.num_cpus)
        import ray

        from lakecdc import semindex as si

        try:
            if args.op == "build":
                n = si.build_semindex(
                    args.index_root,
                    args.table_dir,
                    k=8 if args.k is None else args.k,
                    iters=5 if args.iters is None else args.iters,
                    mod=4 if args.mod is None else args.mod,
                    train_rems=tuple(
                        int(x)
                        for x in (args.train_rems or "0,1").split(",")
                    ),
                    flush_rows=(
                        4096 if args.flush_rows is None else args.flush_rows
                    ),
                    compact_over=(
                        8 if args.compact_over is None else args.compact_over
                    ),
                )
                print(json.dumps({"vectors_ingested": n}))
            elif args.op == "update":
                n = si.update_semindex(args.index_root, args.table_dir, args.epoch)
                print(json.dumps({"vectors_ingested": n}))
            elif args.op == "gate":
                df = si.gate_semindex(
                    args.index_root, args.table_dir, args.epoch,
                    threshold=(
                        0.38 if args.threshold is None else args.threshold
                    ),
                )
                print(
                    json.dumps(
                        {
                            "incoming": len(df),
                            "rejects": int((df["admit"] == 0).sum()),
                            "admits": int(df["admit"].sum()),
                        }
                    )
                )
            elif args.op == "forget":
                n = si.forget_semindex(args.index_root, victims, vacuum=True)
                si.assert_forgotten_semindex(args.index_root, victims)
                print(json.dumps({"fence_size": n, "erasure_audit": "ok"}))
            elif args.op == "search":
                df = si.search_semindex(
                    args.index_root,
                    args.table_dir,
                    n_queries=8 if args.n_queries is None else args.n_queries,
                    k=5 if args.topk is None else args.topk,
                )
                print(
                    json.dumps(
                        {
                            "queries": int(df["query_id"].nunique()),
                            "results": len(df),
                        }
                    )
                )
            else:  # compact
                folded = si.compact_semindex(
                    args.index_root,
                    over=(
                        1 if args.compact_over is None else args.compact_over
                    ),
                )
                print(json.dumps({"clusters_folded": len(folded)}))
        finally:
            ray.shutdown()
        return 0

    from lakecdc.config import EngineConfig

    cfg = EngineConfig.load(
        args.root,
        write_mode=getattr(args, "mode", None),
        merge_engine=getattr(args, "merge_engine", None),
    )
    cfg.ensure_dirs()

    if args.cmd == "synth":
        from lakecdc import synth

        paths = synth.write_wal(
            cfg.wal_dir,
            n_docs=args.docs,
            n_epochs=args.epochs,
            events_per_epoch=args.events,
            seed=args.seed,
            evolution_epoch=args.evolution_epoch,
            zipf_a=args.zipf,
        )
        print(json.dumps({"segments": len(paths), "wal_dir": cfg.wal_dir}))
        return 0

    _ray_init(args.num_cpus)
    import ray

    try:
        if args.cmd == "apply":
            import time

            from lakecdc.apply import apply_all, apply_pending, pending_epochs
            from lakecdc.lineage import write_rollup

            def report(lg):
                print(
                    json.dumps(
                        {
                            "partitions_committed": lg.num_rows,
                            "rows_upserted": sum(r["rows_upserted"] for r in lg.to_pylist()),
                            "rows_deleted": sum(r["rows_deleted"] for r in lg.to_pylist()),
                            "rows_invalid": sum(r["rows_invalid"] for r in lg.to_pylist()),
                        }
                    ),
                    flush=True,
                )

            def auto_compact():
                if args.compact_over is None:
                    return
                from lakecdc.compact import maybe_compact

                res = maybe_compact(cfg, args.compact_over)
                if res:
                    print(
                        json.dumps({"auto_compacted_partitions": len(res)}),
                        flush=True,
                    )

            lg = apply_all(cfg, max_epoch=args.max_epoch, fold=args.fold)
            write_rollup(cfg)
            report(lg)
            auto_compact()
            if args.follow:
                # Continuous tail: the checkpoint IS the manifest —
                # each poll applies every epoch the log does not hold,
                # including one that landed below the newest label.
                empty_polls = 0
                while args.max_polls is None or empty_polls < args.max_polls:
                    if pending_epochs(cfg):
                        empty_polls = 0
                        lg = apply_pending(cfg, fold=args.fold)
                        write_rollup(cfg)
                        report(lg)
                        auto_compact()
                    else:
                        empty_polls += 1
                        time.sleep(args.poll_sec)
        elif args.cmd == "compact":
            from lakecdc.compact import compact

            res = compact(cfg)
            print(json.dumps({"partitions_compacted": len(res)}))
        elif args.cmd == "vacuum":
            from lakecdc.compact import vacuum

            print(json.dumps({"files_deleted": len(vacuum(cfg))}))
        elif args.cmd == "show":
            from lakecdc import manifest
            from lakecdc.lineage import live_row_total

            snap = manifest.snapshot(cfg)
            print(
                json.dumps(
                    {
                        "partitions": len(snap),
                        "max_epoch": manifest.resume_point(cfg),
                        "rows_live": live_row_total(cfg),
                    }
                )
            )
        elif args.cmd == "validate":
            from lakecdc.validate import validate_lake

            results = validate_lake(cfg, raise_on_fail=False)
            print(
                json.dumps(
                    {
                        "ok": all(ok for _, ok, _ in results),
                        "checks": {n: ok for n, ok, _ in results},
                        "failures": [d for _, ok, d in results if not ok],
                    }
                )
            )
            return 0 if all(ok for _, ok, _ in results) else 1
        elif args.cmd == "refresh-view":
            from lakecdc import matview

            r = matview.refresh(cfg)
            print(json.dumps(r))
        elif args.cmd == "lookup":
            from lakecdc.lake import lookup

            df = lookup(cfg, args.ids.split(","), up_to_epoch=args.as_of)

            def _opt_int(x):
                # partial-engine rows may have null n_tok (patch-created
                # or delete-fenced fields)
                import pandas as pd

                return None if x is None or pd.isna(x) else int(x)

            print(
                json.dumps(
                    {
                        "rows": len(df),
                        "docs": {
                            r["doc_id"]: {
                                "n_tok": _opt_int(r["n_tok"]),
                                "source": None
                                if r["source"] is None or r["source"] != r["source"]
                                else r["source"],
                            }
                            for r in df.to_dict("records")
                        },
                    }
                )
            )
        elif args.cmd == "changelog":
            from lakecdc import wal as wal_mod

            ds = wal_mod.read_changelog(
                cfg, from_epoch=args.from_epoch, to_epoch=args.to_epoch
            )
            n = ds.count()
            print(json.dumps({"events": int(n)}))
        elif args.cmd == "forget":
            from lakecdc.forget import assert_forgotten, forget

            ids = args.ids.split(",")
            res = forget(cfg, ids, vacuum_files=not args.keep_files)
            if not args.keep_files:
                assert_forgotten(cfg, ids)
                res["erasure_audit"] = "passed"
            print(json.dumps(res))
        elif args.cmd == "quarantine":
            from lakecdc import wal as wal_mod

            counts = wal_mod.quarantine_epochs(cfg)
            print(
                json.dumps(
                    {
                        "quarantined": {str(e): n for e, n in sorted(counts.items())},
                        "total": sum(counts.values()),
                    }
                )
            )
        elif args.cmd == "diff":
            from lakecdc.diff import diff_snapshots

            ds = diff_snapshots(
                cfg,
                from_epoch=args.from_epoch,
                to_epoch=args.to_epoch,
                suppress_unchanged_payload=args.suppress_unchanged,
            )
            if args.out:
                ds.write_parquet(args.out)
                print(json.dumps({"written": args.out}))
            else:
                from lakecdc.diff import collect_changelog

                ev = collect_changelog(ds)
                print(
                    json.dumps(
                        {
                            "events": int(len(ev)),
                            "by_op": {
                                k: int(v)
                                for k, v in ev["op"].value_counts().items()
                            },
                        }
                    )
                )
        elif args.cmd == "relay":
            from lakecdc.diff import relay

            versions = relay(
                cfg, args.out, from_epoch=args.from_epoch,
                suppress_unchanged_payload=args.suppress_unchanged,
            )
            print(json.dumps({"versions_relayed": versions}))
        elif args.cmd in ("index", "dupindex"):
            from lakecdc.dupindex import BAND
            from lakecdc.index import TOKEN

            idx, n, key = (
                (TOKEN, args.token_buckets, "postings_written")
                if args.cmd == "index"
                else (BAND, args.band_buckets, "band_rows_written")
            )
            out = {key: int(idx.build(cfg, n))}
            if args.compact or args.compact_over is not None:
                out["buckets_compacted"] = len(idx.compact(cfg, over=args.compact_over or 1))
            print(json.dumps(out))
        elif args.cmd == "search-token":
            from lakecdc.index import lookup_token

            docs = lookup_token(
                cfg,
                args.token,
                token_buckets=args.token_buckets,
                up_to_epoch=args.as_of,
            )
            print(json.dumps({"token": args.token, "n_docs": len(docs), "doc_ids": docs}))
        elif args.cmd == "neardup":
            from lakecdc.dupindex import live_pairs, lookup_neardup

            bb = args.band_buckets  # None: the pinned modulus
            if args.tokens:
                toks = [int(x) for x in args.tokens.split(",") if x.strip()]
                cand = lookup_neardup(
                    cfg, toks, band_buckets=bb, up_to_epoch=args.as_of
                )
                print(
                    json.dumps(
                        {
                            "candidates": [
                                {"doc_id": d, "n_bands": int(n)}
                                for d, n in zip(cand["doc_id"], cand["n_bands"])
                            ]
                        }
                    )
                )
            else:
                pairs = live_pairs(cfg, band_buckets=bb, up_to_epoch=args.as_of)
                print(
                    json.dumps(
                        {
                            "n_pairs": int(len(pairs)),
                            "pairs": [
                                [a, b]
                                for a, b in zip(pairs["doc_a"], pairs["doc_b"])
                            ][:100],
                        }
                    )
                )
        elif args.cmd == "verify":
            from lakecdc import oracle
            from lakecdc.lake import read_lake_local

            rep = (
                oracle.replay_partial
                if cfg.merge_engine == "partial"
                else oracle.replay
            )
            oracle.assert_lake_equals_oracle(read_lake_local(cfg), rep(cfg.wal_dir))
            print(json.dumps({"oracle_match": True}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
