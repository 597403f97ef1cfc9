"""Multimodal (image/audio/video) stages.

Images are REAL here: the engine ships NumPy codecs (georay.images) for
ppm/bmp/rawrgb/qoil, so decode / resize / stats run end-to-end. Audio
and video decoders do not exist in this sandbox (no ffmpeg/PIL — SURVEY
preamble), so those stages are STUBS with the Ray-side plumbing (schema,
batch shapes, actor signature, output layout) real and tested via the
deterministic fake decoder.

All stages are callable classes → actor-pool shaped (decoder state loads
once per actor); they also run fused as stateless tasks when passed as
instances.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from georay import exchange
from georay import images as im


class DecodeResize:
    """Decode → nearest-neighbor resize → re-encode rawrgb.

    Output schema: (image_id, w, h, bytes) with w=h=``size``, fmt
    implicitly 'rawrgb'. Real decode via georay.images.
    """

    def __init__(self, size: int = 64):
        self.size = size

    def _resize(self, pix: np.ndarray) -> np.ndarray:
        h, w, _ = pix.shape
        yi = (np.arange(self.size) * h // self.size).astype(int)
        xi = (np.arange(self.size) * w // self.size).astype(int)
        return pix[yi][:, xi]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for data, fmt, w, h in zip(
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_pylist(),
            batch["h"].to_pylist(),
        ):
            pix = im.decode_image(data, fmt, w, h)
            out.append(self._resize(pix).tobytes())
        n = len(out)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "w": pa.array(np.full(n, self.size, np.int32)),
                "h": pa.array(np.full(n, self.size, np.int32)),
                "bytes": pa.array(out, pa.binary()),
            }
        )


class ImageStats:
    """Per-image channel mean/std (decode + reduce per row)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        means = np.empty((len(batch), 3))
        stds = np.empty((len(batch), 3))
        for i, (data, fmt, w, h) in enumerate(
            zip(
                batch["bytes"].to_pylist(),
                batch["fmt"].to_pylist(),
                batch["w"].to_pylist(),
                batch["h"].to_pylist(),
            )
        ):
            pix = im.decode_image(data, fmt, w, h).astype(np.float64)
            means[i] = pix.mean(axis=(0, 1))
            stds[i] = pix.std(axis=(0, 1))
        return pa.table(
            {
                "image_id": batch["image_id"],
                "mean_r": pa.array(means[:, 0]),
                "mean_g": pa.array(means[:, 1]),
                "mean_b": pa.array(means[:, 2]),
                "std_r": pa.array(stds[:, 0]),
                "std_g": pa.array(stds[:, 1]),
                "std_b": pa.array(stds[:, 2]),
            }
        )


class DctPhash:
    """DCT perceptual hash per image (decode → 32×32 pool → DCT-II →
    low-frequency median signature). The DCT basis is built ONCE per
    actor in ``__init__`` (stateful-stage shape); decode is inherently
    per-image, everything after is numpy matmul.

    Output: (image_id, dct_phash int64)."""

    def __init__(self):
        self.basis = im._dct_basis(32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = np.empty(len(batch), dtype=np.int64)
        for i, (data, fmt, w, h) in enumerate(
            zip(
                batch["bytes"].to_pylist(),
                batch["fmt"].to_pylist(),
                batch["w"].to_pylist(),
                batch["h"].to_pylist(),
            )
        ):
            pix = im.decode_image(data, fmt, w, h)
            out[i] = im.dct_phash64(pix, self.basis)
        return pa.table(
            {"image_id": batch["image_id"], "dct_phash": pa.array(out)}
        )


def add_dct_phash(ds: ray.data.Dataset, concurrency=(2, 8)):
    """Actor-pool perceptual-hash stage; compose with
    ``dedup.hash64_band_candidates(..., hash_col="dct_phash")`` for
    robust image near-dup detection (survives re-encode/resize/noise,
    unlike the exact-content ``phash`` column)."""
    return ds.map_batches(
        DctPhash,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=concurrency,
    )


def decode_resize(ds: ray.data.Dataset, size: int = 64, concurrency=(2, 8)):
    """Actor-pool resize stage (decoder state per actor)."""
    return ds.map_batches(
        DecodeResize,
        fn_constructor_args=(size,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=concurrency,
    )


# ------------------------------------------------- audio/video (real codecs)

class AudioFeatures:
    """Audio decode + feature extraction over the engine's own ``RPCM``
    container (``georay/media.py`` — no external audio lib exists here,
    so the container AND the DSP are pure NumPy, same philosophy as the
    image codecs). Contract: input (sample_id: string, bytes: binary,
    sample_rate: int32) → output (sample_id, n_frames: int64, features:
    list<float>[N_MELS] log band energies, rms/zcr/centroid_hz doubles).
    Unknown payloads raise unless ``fake=True`` substitutes a
    deterministic synthetic spectrogram (the pre-codec stub behavior,
    kept for plumbing tests and as the slot where an ffmpeg/soundfile
    decoder would plug in with the same signature)."""

    N_MELS = 16

    def __init__(self, fake: bool = False):
        self.fake = fake

    def _decode(self, data: bytes, sample_rate: int):
        from georay import media

        if data[:4] == media.MAGIC_PCM:
            samples, rate = media.decode_rawpcm(data)
            return media.audio_clip_features(samples, rate, self.N_MELS)
        if not self.fake:
            raise NotImplementedError(
                "unknown audio payload and no external decoder available; "
                "plug a real decoder here (same signature)"
            )
        rng = np.random.default_rng(np.frombuffer(data[:8].ljust(8, b"\0"), np.uint64))
        f = rng.standard_normal((max(1, len(data) // 256), self.N_MELS)).astype(
            np.float32
        )
        return f, 0.0, 0.0, 0.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, frames, rmss, zcrs, cents = [], [], [], [], []
        for data, sr in zip(
            batch["bytes"].to_pylist(), batch["sample_rate"].to_pylist()
        ):
            f, rms, zcr, cent = self._decode(data, sr)
            frames.append(f.shape[0])
            feats.append(f.mean(axis=0).astype(np.float32))
            rmss.append(rms)
            zcrs.append(zcr)
            cents.append(cent)
        return pa.table(
            {
                "sample_id": batch["sample_id"],
                "n_frames": pa.array(frames, pa.int64()),
                "features": pa.array(
                    [f.tolist() for f in feats], pa.list_(pa.float32())
                ),
                "rms": pa.array(rmss, pa.float64()),
                "zcr": pa.array(zcrs, pa.float64()),
                "centroid_hz": pa.array(cents, pa.float64()),
            }
        )


class VideoFrameSampler:
    """Video frame sampling over the engine's ``RVID`` container: decode,
    take every ``every_n``-th frame, re-encode each sampled frame as PPM
    so the rows COMPOSE with the image stages (ImageStats, DecodeResize).
    Contract: input (video_id, bytes, fps: float) → one output row per
    sampled frame (video_id, frame_idx: int64, frame_bytes: binary,
    fmt='ppm', w, h) — a fan-out stage (1 row → N rows), the shape a real
    ffmpeg-based sampler would use. Unknown payloads raise unless
    ``fake=True`` (pre-codec stub behavior)."""

    def __init__(self, every_n: int = 30, fake: bool = False):
        self.every_n = every_n
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        from georay import images, media

        vids, idxs, frames, ws, hs = [], [], [], [], []
        for vid, data in zip(
            batch["video_id"].to_pylist(), batch["bytes"].to_pylist()
        ):
            if data[:4] == media.MAGIC_VID:
                pix = media.decode_rawvid(data)
                for k in range(0, pix.shape[0], self.every_n):
                    vids.append(vid)
                    idxs.append(k)
                    frames.append(images.encode_ppm(pix[k]))
                    hs.append(pix.shape[1])
                    ws.append(pix.shape[2])
                continue
            if not self.fake:
                raise NotImplementedError(
                    "unknown video payload and no external decoder available; "
                    "plug a real frame sampler here (same signature)"
                )
            n_frames = max(1, len(data) // 1024)
            for k in range(0, n_frames, self.every_n):
                vids.append(vid)
                idxs.append(k)
                frames.append(data[k : k + 64])
                ws.append(0)
                hs.append(0)
        return pa.table(
            {
                "video_id": pa.array(vids, pa.string()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "frame_bytes": pa.array(frames, pa.binary()),
                "fmt": pa.array(["ppm"] * len(vids), pa.string()),
                "w": pa.array(ws, pa.int64()),
                "h": pa.array(hs, pa.int64()),
            }
        )


# Pre-codec names, kept for compatibility.
AudioFeatureStub = AudioFeatures
VideoFrameSampleStub = VideoFrameSampler


class PatchImages:
    """ViT-style patch extraction: decode → crop to a multiple of P →
    emit the non-overlapping P×P patch grid, one row per patch with its
    raw bytes and mean intensity. The per-image patchify is ONE numpy
    reshape/transpose (no per-patch Python); decode is inherently
    per-image. Output: (image_id, patch_row, patch_col, patch_bytes,
    patch_mean) — the image analogue of the text chunker, feeding
    patch-level dedup / embedding stages."""

    def __init__(self, patch: int = 8):
        self.patch = patch

    def __call__(self, batch: pa.Table) -> pa.Table:
        p = self.patch
        plen = p * p * 3
        ids, prow, pcol, flats, pmean = [], [], [], [], []
        for img_id, data, fmt, w, h in zip(
            batch["image_id"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_pylist(),
            batch["h"].to_pylist(),
        ):
            pix = im.decode_image(data, fmt, w, h)
            hh, ww, _ = pix.shape
            gr, gc = hh // p, ww // p
            if gr == 0 or gc == 0:
                continue
            crop = pix[: gr * p, : gc * p]
            # (gr, p, gc, p, 3) -> (gr, gc, p, p, 3): one transpose
            grid = crop.reshape(gr, p, gc, p, 3).transpose(0, 2, 1, 3, 4)
            flat = np.ascontiguousarray(grid).reshape(gr * gc, plen)
            ids.extend([img_id] * (gr * gc))
            rr, cc = np.divmod(np.arange(gr * gc), gc)
            prow.append(rr)
            pcol.append(cc)
            flats.append(flat)
            pmean.append(flat.mean(axis=1))
        n = len(ids)
        # one contiguous buffer -> fixed-size-binary, no per-patch tobytes
        allbytes = (
            np.concatenate(flats).reshape(-1)
            if flats else np.empty(0, np.uint8)
        )
        pbytes = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(plen), n, [None, pa.py_buffer(allbytes.tobytes())]
        ).cast(pa.binary())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "patch_row": pa.array(
                    np.concatenate(prow) if prow else np.empty(0, np.int64)
                ),
                "patch_col": pa.array(
                    np.concatenate(pcol) if pcol else np.empty(0, np.int64)
                ),
                "patch_bytes": pbytes,
                "patch_mean": pa.array(
                    np.concatenate(pmean) if pmean else np.empty(0, np.float64)
                ),
            }
        )


def patch_images(
    ds: ray.data.Dataset, patch: int = 8, concurrency=(2, 8)
) -> ray.data.Dataset:
    """Actor-pool patch-extraction stage (decoder per actor). Row- and
    byte-EXPANDING (≈1× pixel bytes out as patch bytes) — keep
    batch_size modest so batch × concurrency fits the worker heap."""
    return ds.map_batches(
        PatchImages(patch) if concurrency is None else PatchImages,
        fn_constructor_kwargs=None if concurrency is None else {"patch": patch},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=512,
        concurrency=concurrency,
    )


class Augment:
    """Deterministic data augmentation (the training-time image
    transform family: flip / rotate / brightness) as a streaming stage.

    The transform for each image derives from a hash of
    (image_id, seed) — NO RNG state, so the same row always gets the
    same augmentation on any worker, any partitioning, any rerun (the
    property a resumable 100-TB pipeline needs), and different seeds
    give independent epochs. Geometric op ∈ {identity, hflip, vflip,
    rot90} (rot90 swaps w/h) plus a brightness delta in ±24 applied in
    int16 then clipped. Output: (image_id, aug_op, w, h, bytes) with
    fmt implicitly 'rawrgb'."""

    OPS = ("id", "hflip", "vflip", "rot90")

    def __init__(self, seed: int = 0, brightness: int = 24):
        self.seed = np.uint64(seed * 2 + 1)
        self.brightness = int(brightness)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from georay.ops import _bytes_hash, _mix64

        ids = batch["image_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        h = _mix64(_bytes_hash(ids) * self.seed)
        op_i = (h & np.uint64(3)).astype(np.int64)
        # brightness in [-b, b], from the next hash bits
        delta = (
            ((h >> np.uint64(2)) % np.uint64(2 * self.brightness + 1))
            .astype(np.int64) - self.brightness
        )
        out_b, out_w, out_h, out_op = [], [], [], []
        for i, (data, fmt, w, hh) in enumerate(
            zip(
                batch["bytes"].to_pylist(),
                batch["fmt"].to_pylist(),
                batch["w"].to_pylist(),
                batch["h"].to_pylist(),
            )
        ):
            pix = im.decode_image(data, fmt, w, hh)
            o = int(op_i[i])
            if o == 1:
                pix = pix[:, ::-1]
            elif o == 2:
                pix = pix[::-1]
            elif o == 3:
                pix = np.rot90(pix)
            pix = np.clip(
                pix.astype(np.int16) + delta[i], 0, 255
            ).astype(np.uint8)
            out_b.append(np.ascontiguousarray(pix).tobytes())
            out_h.append(pix.shape[0])
            out_w.append(pix.shape[1])
            out_op.append(self.OPS[o])
        return pa.table(
            {
                "image_id": batch["image_id"],
                "aug_op": pa.array(out_op, pa.string()),
                "w": pa.array(np.array(out_w, np.int32)),
                "h": pa.array(np.array(out_h, np.int32)),
                "bytes": pa.array(out_b, pa.binary()),
            }
        )


def augment_images(
    ds: ray.data.Dataset, seed: int = 0, brightness: int = 24,
    concurrency=(2, 8),
) -> ray.data.Dataset:
    """Actor-pool augmentation stage (decoder per actor); same-size
    output bytes, so batch sizing follows the decode stages."""
    return ds.map_batches(
        Augment(seed, brightness) if concurrency is None else Augment,
        fn_constructor_kwargs=None if concurrency is None
        else {"seed": seed, "brightness": brightness},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=512,
        concurrency=concurrency,
    )


class ChannelStatsPartial:
    """CORPUS-wide per-channel pixel statistics — the normalization
    constants (mean/std per RGB channel) every vision-pretraining
    pipeline computes over its dataset before training. Each batch
    decodes its images and emits ONE exact integer partial row
    (Σ pixel, Σ pixel², pixel count per channel — uint8 pixels keep
    int64 sums exact up to ~3.6·10¹⁴ pixels per partial); partials
    merge through the combine tree, the driver finishes two divides."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = np.zeros(3, np.int64)
        s2 = np.zeros(3, np.int64)
        n = 0
        for data, fmt, w, h in zip(
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_pylist(),
            batch["h"].to_pylist(),
        ):
            pix = im.decode_image(data, fmt, w, h).astype(np.int64)
            s += pix.sum(axis=(0, 1))
            s2 += (pix * pix).sum(axis=(0, 1))
            n += pix.shape[0] * pix.shape[1]
        return pa.table(
            {
                "channel": pa.array([0, 1, 2], pa.int64()),
                "partial_s": pa.array(s, pa.int64()),
                "partial_s2": pa.array(s2, pa.int64()),
                "partial_n": pa.array(np.full(3, n, np.int64)),
            }
        )


def corpus_channel_stats(
    ds: ray.data.Dataset, concurrency=(2, 8), raw: bool = False
) -> "pa.Table":
    """(channel, mean, std, n_pixels) over the whole image corpus — one
    streaming decode pass, exact integer partials, combine-tree merge.
    Deterministic bit-for-bit (integer sums are order-free).
    ``raw=True`` skips the float finish and returns the exact integer
    sufficient statistics ``(channel, s, s2, n)`` instead — the form
    the constant oracle pins."""
    from georay.ops import tree_sum

    parts = ds.map_batches(
        ChannelStatsPartial,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=64,
        concurrency=concurrency,
    )
    merged = tree_sum(
        parts, ["channel"],
        {"partial_s": "s", "partial_s2": "s2", "partial_n": "n"},
        int_cols=("partial_s", "partial_s2", "partial_n"),
    )
    t = exchange.collect(merged).sort_by("channel")
    if raw:
        return t
    s = t["s"].to_numpy(zero_copy_only=False).astype(np.float64)
    s2 = t["s2"].to_numpy(zero_copy_only=False).astype(np.float64)
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    mean = s / n
    std = np.sqrt(np.maximum(s2 / n - mean * mean, 0.0))
    return pa.table(
        {
            "channel": t["channel"],
            "mean": pa.array(mean, pa.float64()),
            "std": pa.array(std, pa.float64()),
            "n_pixels": t["n"],
        }
    )

class LaplacianSharpness:
    """Image sharpness scoring (blur detection) — the standard
    variance-of-Laplacian measure, EXACT-integer form: per image the
    4-neighbor Laplacian of the channel-sum plane (int32), and the
    variance as the integer pair ``(n·Σx² − (Σx)², n²)`` so the score
    is a rational with no float accumulation — distribution-ordering
    and thresholding are bit-reproducible across partitionings.

    Actor-pool stage (decode tables live per actor): input rows need
    (image_id, bytes, fmt[, w, h]); output appends ``lap_var_num``
    (int64 numerator; 0 ⇔ perfectly smooth / linear gradient) and
    ``lap_n`` (interior-pixel count; variance = num / (3·n)² per
    channel-sum plane). Images smaller than 3×3 score (0, 0)."""

    def __init__(self, bytes_col: str = "bytes", fmt_col: str = "fmt"):
        self.bytes_col = bytes_col
        self.fmt_col = fmt_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from georay import images as _img

        blobs = batch[self.bytes_col].to_pylist()
        fmts = batch[self.fmt_col].to_pylist()
        ws = batch["w"].to_numpy(zero_copy_only=False) if "w" in batch.column_names else [None] * len(blobs)
        hs = batch["h"].to_numpy(zero_copy_only=False) if "h" in batch.column_names else [None] * len(blobs)
        nums = np.zeros(len(blobs), dtype=np.int64)
        cnts = np.zeros(len(blobs), dtype=np.int64)
        for i, (b, f) in enumerate(zip(blobs, fmts)):
            pix = _img.decode_image(
                b, f,
                int(ws[i]) if ws[i] is not None else None,
                int(hs[i]) if hs[i] is not None else None,
            )
            g = pix.astype(np.int64).sum(axis=2)  # channel-sum plane
            if g.shape[0] < 3 or g.shape[1] < 3:
                continue
            lap = (
                4 * g[1:-1, 1:-1]
                - g[:-2, 1:-1] - g[2:, 1:-1] - g[1:-1, :-2] - g[1:-1, 2:]
            )
            n = lap.size
            s1 = int(lap.sum())
            s2 = int((lap * lap).sum())
            nums[i] = n * s2 - s1 * s1
            cnts[i] = n
        return batch.append_column(
            "lap_var_num", pa.array(nums, pa.int64())
        ).append_column("lap_n", pa.array(cnts, pa.int64()))


def add_sharpness(
    ds, bytes_col: str = "bytes", fmt_col: str = "fmt", concurrency=None
):
    """Attach exact-integer variance-of-Laplacian sharpness columns
    (see ``LaplacianSharpness``)."""
    return ds.map_batches(
        LaplacianSharpness,
        fn_constructor_kwargs={"bytes_col": bytes_col, "fmt_col": fmt_col},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=256,
        concurrency=concurrency or (1, 8),
    )
