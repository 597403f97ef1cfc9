"""Pure-NumPy audio/video container codecs + feature kernels.

The sandbox has no ffmpeg/PIL/soundfile, so — exactly like the image
formats in ``georay/images.py`` — the engine defines tiny deterministic
containers of its own and implements the decode + analysis math in
NumPy. The Ray-side stage contracts in ``stages/multimodal.py`` are the
ones a real ffmpeg-based decoder would slot into (same signatures).

Formats:
- ``RPCM``: mono 16-bit PCM. ``b"RPCM" | u32 rate | u32 n | int16[n]``.
- ``RVID``: raw RGB video. ``b"RVID" | u32 n | u32 h | u32 w |
  uint8[n*h*w*3]``.

All little-endian. Feature math (RMS, zero-crossing rate, spectral
centroid, log band energies) is standard DSP over ``np.fft.rfft``.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC_PCM = b"RPCM"
MAGIC_VID = b"RVID"


# ------------------------------------------------------------------ audio

def encode_rawpcm(samples: np.ndarray, rate: int) -> bytes:
    s = np.ascontiguousarray(np.asarray(samples, dtype="<i2"))
    return MAGIC_PCM + struct.pack("<II", int(rate), s.shape[0]) + s.tobytes()


def decode_rawpcm(data: bytes) -> tuple[np.ndarray, int]:
    if data[:4] != MAGIC_PCM:
        raise ValueError("not an RPCM payload")
    rate, n = struct.unpack_from("<II", data, 4)
    samples = np.frombuffer(data, dtype="<i2", count=n, offset=12)
    return samples, rate


def audio_clip_features(samples: np.ndarray, rate: int, n_bands: int = 16,
                        frame: int = 1024, hop: int = 512):
    """(features (n_frames, n_bands) float32, rms float, zcr float,
    centroid_hz float) — log band energies per frame plus clip-level
    summary stats. Deterministic, vectorized."""
    x = np.asarray(samples, dtype=np.float64) / 32768.0
    if x.shape[0] < frame:
        x = np.pad(x, (0, frame - x.shape[0]))
    n_frames = 1 + (x.shape[0] - frame) // hop
    idx = np.arange(frame)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[idx] * np.hanning(frame)[None, :]
    spec = np.abs(np.fft.rfft(frames, axis=1)) ** 2  # (n_frames, frame//2+1)
    # log-spaced band edges over the positive spectrum
    edges = np.unique(
        np.round(np.geomspace(1, spec.shape[1] - 1, n_bands + 1)).astype(np.int64)
    )
    while edges.shape[0] < n_bands + 1:  # tiny frames: pad edges upward
        edges = np.append(edges, edges[-1] + 1)
    bands = np.add.reduceat(spec, edges[:-1], axis=1)[:, :n_bands]
    feats = np.log1p(bands).astype(np.float32)
    rms = float(np.sqrt(np.mean(x * x)))
    zcr = float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1])))
    freqs = np.fft.rfftfreq(frame, d=1.0 / max(rate, 1))
    p = spec.sum(axis=0)
    centroid = float((freqs * p).sum() / max(p.sum(), 1e-12))
    return feats, rms, zcr, centroid


# ------------------------------------------------------------------ video

def encode_rawvid(frames: np.ndarray) -> bytes:
    f = np.ascontiguousarray(np.asarray(frames, dtype=np.uint8))
    if f.ndim != 4 or f.shape[3] != 3:
        raise ValueError("frames must be (n, h, w, 3) uint8")
    n, h, w, _ = f.shape
    return MAGIC_VID + struct.pack("<III", n, h, w) + f.tobytes()


def decode_rawvid(data: bytes) -> np.ndarray:
    if data[:4] != MAGIC_VID:
        raise ValueError("not an RVID payload")
    n, h, w = struct.unpack_from("<III", data, 4)
    return np.frombuffer(data, dtype=np.uint8, count=n * h * w * 3, offset=16).reshape(
        n, h, w, 3
    )
