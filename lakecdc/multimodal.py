"""Multimodal column plumbing: opaque binary payloads + typed metadata,
processed by actor-pool decode/feature stages.

Both stages run real pure-numpy kernels over synthesized payloads.
Uncompressed WAV (RIFF/PCM-16) payloads are parsed by
`WavFeatures._decode_wav` — header fields via struct, samples via a
zero-copy `np.frombuffer` int16 view — and reduced to exact integer
features (count / sum / sum-of-squares); binary P6 PPM images are
parsed by `_parse_ppm` and box-resized. The DuckDB oracle recomputes
both feature sets independently (`media_wav_features`,
`media_image_features`).

At 100 TB: binary payload rows are orders of magnitude wider than
text rows, so this stage uses small `batch_size` and relies on Arrow
binary buffers end to end (never pandas object dtype).
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from lakecdc.qutil import read


def synth_wav_payloads(sf_dir: str) -> rd.Dataset:
    """Deterministic PCM-16 WAV payloads derived from (doc_id,
    n_chars): sample[i] = ((doc_id*31 + i*7919) % 65536) - 32768 over
    n = (n_chars % 256) + 16 samples, wrapped in a canonical 44-byte
    RIFF header. The formula is plain integer arithmetic, so the
    DuckDB oracle regenerates the identical samples from the parquet
    columns alone — making the REAL decode kernel oracle-checkable
    with no media files in testdata."""
    ds = read(sf_dir, "documents", ["doc_id", "n_chars"])

    def f(t: pa.Table) -> pa.Table:
        payloads = []
        for doc_id, n_chars in zip(
            t["doc_id"].to_numpy(), t["n_chars"].to_numpy()
        ):
            n = int(n_chars) % 256 + 16
            i = np.arange(n, dtype=np.int64)
            smp = ((int(doc_id) * 31 + i * 7919) % 65536 - 32768).astype("<i2")
            data = smp.tobytes()
            hdr = struct.pack(
                "<4sI4s4sIHHIIHH4sI",
                b"RIFF", 36 + len(data), b"WAVE",
                b"fmt ", 16, 1, 1, 8000, 16000, 2, 16,
                b"data", len(data),
            )
            payloads.append(hdr + data)
        payload = pa.array(payloads, type=pa.binary())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": payload,
                "media_type": pa.array(["audio/wav"] * t.num_rows),
                "n_bytes": pc.cast(pc.binary_length(payload), pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def synth_ppm_payloads(sf_dir: str) -> rd.Dataset:
    """Deterministic P6 PPM images derived from (doc_id, n_chars):
    w = (n_chars % 12 + 4) rounded to even, h = 8; pixel byte j (over
    the w*h*3 RGB bytes) = (doc_id * 37 + j * 101) % 256. Same
    SQL-recomputable-formula trick as synth_wav_payloads."""
    ds = read(sf_dir, "documents", ["doc_id", "n_chars"])

    def f(t: pa.Table) -> pa.Table:
        payloads = []
        for doc_id, n_chars in zip(t["doc_id"].to_numpy(), t["n_chars"].to_numpy()):
            w = ((int(n_chars) % 12) + 4) // 2 * 2
            h = 8
            j = np.arange(w * h * 3, dtype=np.int64)
            px = ((int(doc_id) * 37 + j * 101) % 256).astype(np.uint8)
            payloads.append(b"P6\n%d %d\n255\n" % (w, h) + px.tobytes())
        payload = pa.array(payloads, type=pa.binary())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": payload,
                "media_type": pa.array(["image/x-portable-pixmap"] * t.num_rows),
                "n_bytes": pc.cast(pc.binary_length(payload), pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _parse_ppm(payload: bytes) -> np.ndarray:
    """Real kernel: binary P6 parse, numpy only -> (h, w, 3) uint8."""
    if payload[:2] != b"P6":
        raise ValueError("not a P6 PPM payload")
    # header: magic, whitespace-separated w h maxval, single whitespace
    parts = payload.split(maxsplit=4)
    w, h, maxval = int(parts[1]), int(parts[2]), int(parts[3])
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    off = len(payload) - w * h * 3
    return np.frombuffer(payload, dtype=np.uint8, offset=off).reshape(h, w, 3)


class PpmFeatures:
    """Actor-pool image stage: real P6 decode -> exact integer
    features + a 2x2 box-downsample (the resize step), reported as the
    downsampled image's pixel sum so the whole decode->resize path is
    value-checked."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = {k: [] for k in ("width", "height", "sum_pixels", "resized_sum")}
        for p in batch["payload"].to_pylist():
            img = _parse_ppm(p).astype(np.int64)
            h, w, _ = img.shape
            small = (
                img.reshape(h // 2, 2, w // 2, 2, 3).sum(axis=(1, 3)) // 4
            )  # 2x2 box mean, floor
            rows["width"].append(w)
            rows["height"].append(h)
            rows["sum_pixels"].append(int(img.sum()))
            rows["resized_sum"].append(int(small.sum()))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                **{k: pa.array(v, type=pa.int64()) for k, v in rows.items()},
            }
        )


def media_image_features(sf_dir: str) -> pd.DataFrame:
    """Synthesize PPM payloads -> REAL numpy decode -> 2x2 box resize
    -> exact features; decode features oracle-checked (SQL regenerates
    pixels from (doc_id, n_chars)); the resize sum is checked by
    pytest against a numpy reference."""
    ds = synth_ppm_payloads(sf_dir)
    out = ds.map_batches(
        PpmFeatures,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=2,
        num_cpus=1,
    )
    return out.to_pandas()


class WavFeatures:
    """Real-kernel feature stage: WAV parse -> exact integer features."""

    @staticmethod
    def _decode_wav(payload: bytes) -> dict:
        """Real kernel: canonical RIFF/PCM-16 mono parse, numpy only."""
        if payload[8:12] != b"WAVE" or payload[12:16] != b"fmt ":
            raise ValueError("not a canonical WAVE payload")
        audio_fmt, n_ch = struct.unpack_from("<HH", payload, 20)
        bits = struct.unpack_from("<H", payload, 34)[0]
        if (audio_fmt, n_ch, bits) != (1, 1, 16):
            raise ValueError(f"unsupported WAV layout {(audio_fmt, n_ch, bits)}")
        size = struct.unpack_from("<I", payload, 40)[0]
        smp = np.frombuffer(payload, dtype="<i2", offset=44, count=size // 2).astype(
            np.int64
        )
        return {
            "n_samples": int(smp.size),
            "sum_samples": int(smp.sum()),
            "sumsq_samples": int((smp * smp).sum()),
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self._decode_wav(p) for p in batch["payload"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_samples": pa.array(
                    [f["n_samples"] for f in feats], type=pa.int64()
                ),
                "sum_samples": pa.array(
                    [f["sum_samples"] for f in feats], type=pa.int64()
                ),
                "sumsq_samples": pa.array(
                    [f["sumsq_samples"] for f in feats], type=pa.int64()
                ),
            }
        )


def media_wav_features(sf_dir: str) -> pd.DataFrame:
    """Synthesize WAV payloads -> REAL numpy decode -> exact features;
    oracle-checked (the SQL regenerates the samples from (doc_id,
    n_chars) with the same integer formula)."""
    ds = synth_wav_payloads(sf_dir)
    out = ds.map_batches(
        WavFeatures,
        batch_format="pyarrow",
        batch_size=256,  # small: binary rows are wide
        concurrency=2,
        num_cpus=1,
    )
    return out.to_pandas()
