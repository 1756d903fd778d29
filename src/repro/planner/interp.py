"""Cubic multi-level interpolation predictor (the ``interp`` plan, ``FZIN``).

This is the high-ratio pipeline of the planner, modeled on cuSZ-i /
SZ3-style interpolation compression: instead of the Lorenzo predictor's
immediate-neighbor differences, values are predicted level by level from a
coarse *anchor grid* by cubic spline interpolation, and only the quantized
prediction residuals are stored.  On smooth fields the cubic predictor is
dramatically more accurate than Lorenzo, so the residual codes are almost
all zero and the existing bitshuffle + zero-block stages collapse them to
near nothing.

Algorithm
---------
* **Anchors** — every grid point whose coordinates are all multiples of
  ``2**anchor_log2`` is stored exactly as its pre-quantized integer
  ``round(v / 2eb)`` (int64, outside the residual stream).
* **Levels** — for stride ``s = 2**anchor_log2 / 2, ..., 1``, one pass per
  axis predicts the points at odd multiples of ``s`` along that axis from
  the already-reconstructed stride-``2s`` grid: a 4-point cubic midpoint
  ``(9(f(x-s)+f(x+s)) - (f(x-3s)+f(x+3s))) / 16`` in the interior, linear
  at boundaries, nearest-neighbor at the trailing edge.  The residual
  ``round((v - pred) / 2eb)`` is clamped to the same 15-bit sign-magnitude
  codes as the fused path, and the encoder reconstructs as it goes — the
  prediction context is *identical* on both sides, which is what makes the
  decode exact and the error bound hold (except at saturated residuals,
  the same caveat as the fused path).
* **Encoding** — the residual code grid (zeros at anchor positions) runs
  through the exact bitshuffle and zero-block stages of the fused pipeline
  into a CRC-trailed ``FZIN`` stream.

Each (level, axis) pass computes every target at once on strided views:
targets sit at ``slice(s, d, 2s)`` along the pass axis and each neighbor
set (``i ∓ s``, ``i ∓ 3s``) is another basic slice of the same region, so
no pass gathers or copies its inputs.  The prediction rule (cubic,
linear, nearest) is fixed per contiguous run of targets and is written
in place into one float64 buffer.  The residual is quantized in a second
buffer with no select: residuals are clamped only when the pass
saturates, and codes take their sign bit straight from the int16 value,
as in the fused slab kernel.  The encoder's final pass skips its
reconstruction, which nothing reads.  Decoding looks each code up in a
table of dequantized residuals, built once per stream.
``tests/test_planner.py`` pins the pass byte-identical to a
one-hyperplane-at-a-time loop oracle with its own arithmetic.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro import telemetry
from repro.backends.fused import decode_codes, encode_codes
from repro.backends.reference import padded_stage_sizes
from repro.core.encoder import BLOCK_BYTES, BLOCK_WORDS, EncodedBlocks
from repro.core.format import MAX_ELEMENTS, implied_block_count
from repro.core.pipeline import CompressionResult
from repro.core.quantize import MAX_MAGNITUDE, SIGN_BIT, QuantizerStats
from repro.errors import ConfigError, DecompressionError, FormatError
from repro.utils.pool import Scratch
from repro.utils.safeio import BoundedReader
from repro.utils.validation import ensure_float32, ensure_ndim, ensure_positive

__all__ = [
    "INTERP_MAGIC",
    "INTERP_VERSION",
    "interp_compress",
    "interp_decompress",
    "interp_peek_shape",
    "interp_preview",
    "default_anchor_log2",
]

INTERP_MAGIC = b"FZIN"
INTERP_VERSION = 1

# magic, version, ndim, reserved, 3x dim, eb_abs, anchor_log2, reserved,
# pad, n_blocks, n_nonzero, n_saturated, n_anchors
_HEADER_FMT = "<4sBBH3QdBB2xQQQQ"
_HEADER_BYTES = struct.calcsize(_HEADER_FMT)
_CRC_FMT = "<I"
_CRC_BYTES = struct.calcsize(_CRC_FMT)
_ANCHOR_DTYPE = np.dtype("<i8")

#: Hard cap on the anchor stride exponent a header may declare.
_MAX_ANCHOR_LOG2 = 30


def default_anchor_log2(shape: tuple[int, ...]) -> int:
    """Default anchor stride exponent for a field shape.

    1D fields use a sparser anchor grid (stride 64) because anchors cost
    8 bytes each and a stride-16 line grid would floor the bitrate at half
    a byte per value; in 2D/3D the anchor overhead at stride 16 is already
    negligible (one anchor per 256 / 4096 points).
    """
    return 6 if len(shape) == 1 else 4


#: Signed magnitude of every 16-bit sign-magnitude code; scaled by ``2eb``
#: once per decode, it dequantizes a pass with one table lookup.
_SIGNED_MAGNITUDE = (np.arange(1 << 16) & MAX_MAGNITUDE).astype(np.float64)
_SIGNED_MAGNITUDE[SIGN_BIT:] *= -1.0
_SIGNED_MAGNITUDE.flags.writeable = False


def _axis_sel(ndim: int, axis: int, at) -> tuple:
    """Index tuple selecting position(s) ``at`` along ``axis``."""
    return (slice(None),) * axis + (at,) + (slice(None),) * (ndim - axis - 1)


def _region(ndim: int, axis: int, s: int) -> tuple:
    """The sub-grid one pass operates on.

    Axes before ``axis`` were filled earlier this level (stride ``s``);
    axes after it are still on the coarser stride ``2s``; the pass axis
    stays full so target positions are addressed in grid coordinates.
    """
    return tuple(
        slice(None, None, s) if a < axis
        else (slice(None) if a == axis else slice(None, None, 2 * s))
        for a in range(ndim)
    )


def _pass_vectorized(rec, src, codes, axis, s, eb2, lut):
    """One (level, axis) pass: every target in one shot, on strided views.

    Target ``k`` sits at ``i = s + 2sk`` along ``axis``, so the targets and
    each neighbor set (``i - 3s``, ``i - s``, ``i + s``, ``i + 3s``) over a
    run of ``k`` are basic strided slices of ``rec``: the pass reads views
    and gathers nothing.  Neighbors are never targets of the same pass
    (targets sit at odd multiples of ``s``, neighbors at even ones), so
    reading them all before writing any target is exactly equivalent to an
    in-order walk of the targets.  The prediction rule is fixed per
    contiguous run of ``k``: cubic for ``1 <= k < n_cub``, linear for the
    other ``k < n_lin``, nearest-left for the trailing target (if any) that
    has no right neighbor.

    Encoding (``src`` given) quantizes into ``codes``; decoding (``src``
    None) adds ``lut[codes]``, the table of dequantized residuals.  Returns
    ``(n_saturated, max_abs)``.
    """
    d = rec.shape[axis]
    nd = rec.ndim
    step = 2 * s
    n = len(range(s, d, step))
    if n == 0:
        return 0, 0
    n_lin = len(range(step, d, step))  # targets with a right neighbor
    n_cub = len(range(2 * step, d, step))  # ... and one 3s away

    def at(offset, k0, k1):
        """View of positions ``s + offset + 2sk`` for ``k0 <= k < k1``."""
        lo = s + offset + step * k0
        return rec[_axis_sel(nd, axis, slice(lo, lo + step * (k1 - k0 - 1) + 1, step))]

    tgt = _axis_sel(nd, axis, slice(s, d, step))
    pred = np.empty(rec[tgt].shape)
    t = np.empty_like(pred)
    if n_cub > 1:
        # (9(b + c) - (a + d)) / 16, written in place; t holds a + d
        run = _axis_sel(nd, axis, slice(1, n_cub))
        p, ad = pred[run], t[run]
        np.add(at(-s, 1, n_cub), at(s, 1, n_cub), out=p)
        p *= 9.0
        np.add(at(-3 * s, 1, n_cub), at(3 * s, 1, n_cub), out=ad)
        p -= ad
        p /= 16.0
        linear = ((0, 1), (n_cub, n_lin))
    else:
        linear = ((0, n_lin),)
    for k0, k1 in linear:
        if k0 < k1:
            p = pred[_axis_sel(nd, axis, slice(k0, k1))]
            np.add(at(-s, k0, k1), at(s, k0, k1), out=p)
            p *= 0.5
    if n_lin < n:
        pred[_axis_sel(nd, axis, slice(n_lin, n))] = at(-s, n_lin, n)
    if src is None:
        np.add(lut[codes[tgt]], pred, out=rec[tgt])
        return 0, 0
    # the float32 source widens exactly inside the float64 subtraction
    np.subtract(src[tgt], pred, out=t)
    t /= eb2
    np.rint(t, out=t)
    m = max(float(t.max()), -float(t.min()))
    max_abs = int(m) if m <= float(1 << 62) else 1 << 62
    n_sat = 0
    if m > MAX_MAGNITUDE:
        # rare saturating pass: clamp; the clamped residual is the delta
        n_sat = int(np.count_nonzero(np.abs(t) > MAX_MAGNITUDE))
        np.clip(t, -MAX_MAGNITUDE, MAX_MAGNITUDE, out=t)
    # |t| <= 0x7FFF fits int16 exactly, and the int16 sign bit of such a
    # value is set iff it is negative: it *is* SIGN_BIT
    q = t.astype(np.int16)
    np.bitwise_or(
        q.view(np.uint16) & SIGN_BIT, np.abs(q).view(np.uint16), out=codes[tgt]
    )
    if s > 1 or axis < nd - 1:  # nothing reads rec after the final pass
        t *= eb2
        np.add(t, pred, out=rec[tgt])
    return n_sat, max_abs


def _run_levels(rec, src, codes, anchor_log2, eb2, lut):
    """Drive every (level, axis) pass; returns (n_saturated, max_abs)."""
    ndim = rec.ndim
    n_sat = 0
    max_abs = 0
    s = (1 << anchor_log2) // 2
    while s >= 1:
        for axis in range(ndim):
            region = _region(ndim, axis, s)
            ns, ma = _pass_vectorized(
                rec[region],
                None if src is None else src[region],
                codes[region],
                axis,
                s,
                eb2,
                lut,
            )
            n_sat += ns
            max_abs = max(max_abs, ma)
        s //= 2
    return n_sat, max_abs


def _anchor_grid_shape(shape: tuple[int, ...], anchor_log2: int) -> tuple[int, ...]:
    s0 = 1 << anchor_log2
    return tuple(-(-d // s0) for d in shape)


def _pad3(dims: tuple[int, ...]) -> tuple[int, int, int]:
    dims = tuple(int(d) for d in dims)
    return tuple(list(dims) + [1] * (3 - len(dims)))  # type: ignore[return-value]


# -- stream assembly / parsing ----------------------------------------------


def interp_compress(
    data: np.ndarray,
    eb_abs: float,
    *,
    anchor_log2: int | None = None,
    scratch=None,
) -> CompressionResult:
    """Compress ``data`` with the interpolation predictor (absolute bound).

    The residual codes go through the fused backend's bitshuffle +
    zero-block tile kernels; ``scratch`` is an optional arena for their
    temporaries (the engine passes its worker's).
    """
    data = ensure_ndim(ensure_float32(data))
    eb_abs = ensure_positive(eb_abs, "eb_abs")
    if anchor_log2 is None:
        anchor_log2 = default_anchor_log2(data.shape)
    if not 1 <= anchor_log2 <= _MAX_ANCHOR_LOG2:
        raise ConfigError(f"anchor_log2 must be in [1, {_MAX_ANCHOR_LOG2}]")
    eb2 = 2.0 * eb_abs
    with telemetry.span("stage.interp.predict"):
        rec = np.empty(data.shape, dtype=np.float64)
        codes = np.zeros(data.shape, dtype=np.uint16)
        s0 = 1 << anchor_log2
        asel = tuple(slice(None, None, s0) for _ in range(data.ndim))
        anchors = np.rint(data[asel].astype(np.float64) / eb2).astype(np.int64)
        rec[asel] = anchors.astype(np.float64) * eb2
        n_sat, max_abs = _run_levels(rec, data, codes, anchor_log2, eb2, None)
    if scratch is None:
        scratch = Scratch()
    with telemetry.span("stage.fused_encode"):
        encoded = encode_codes(codes, scratch)
    codes_bytes, shuffled_bytes = padded_stage_sizes(data.shape)
    anchors_le = np.ascontiguousarray(anchors, dtype=_ANCHOR_DTYPE)
    header = struct.pack(
        _HEADER_FMT,
        INTERP_MAGIC,
        INTERP_VERSION,
        data.ndim,
        0,
        *_pad3(data.shape),
        float(eb_abs),
        anchor_log2,
        0,
        encoded.n_blocks,
        encoded.n_nonzero,
        n_sat,
        int(anchors_le.size),
    )
    with telemetry.span("stage.pack"):
        body = (
            header
            + anchors_le.tobytes()
            + encoded.bitflags.tobytes()
            + encoded.literals.tobytes()
        )
        stream = body + struct.pack(_CRC_FMT, zlib.crc32(body) & 0xFFFFFFFF)
    return CompressionResult(
        stream=stream,
        original_bytes=int(data.nbytes),
        compressed_bytes=len(stream),
        eb_abs=eb_abs,
        quantizer=QuantizerStats(n_sat, 0, max_abs),
        n_blocks=encoded.n_blocks,
        n_nonzero_blocks=encoded.n_nonzero,
        stage_sizes={
            "codes_bytes": codes_bytes,
            "shuffled_bytes": shuffled_bytes,
            "flags_bytes": int(encoded.bitflags.nbytes),
            "literals_bytes": int(encoded.literals.nbytes),
            "anchors_bytes": int(anchors_le.nbytes),
        },
        plan="interp",
    )


def _unpack_header(buf: bytes):
    """Parse + cross-validate an FZIN header (the full hardening ladder)."""
    reader = BoundedReader(buf, name="FZIN stream")
    (
        magic,
        version,
        ndim,
        _r0,
        d0,
        d1,
        d2,
        eb_abs,
        anchor_log2,
        _r1,
        n_blocks,
        n_nonzero,
        n_saturated,
        n_anchors,
    ) = reader.read_struct(_HEADER_FMT, "header")
    if magic != INTERP_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != INTERP_VERSION:
        raise FormatError(f"unsupported FZIN stream version {version}")
    if not 1 <= ndim <= 3:
        raise FormatError(f"bad ndim {ndim}")
    shape = (d0, d1, d2)[:ndim]
    if any(d <= 0 for d in shape):
        raise FormatError(f"non-positive dimension in shape {shape}")
    if not (eb_abs > 0 and math.isfinite(eb_abs)):
        raise FormatError(f"bad error bound {eb_abs}")
    if not 1 <= anchor_log2 <= _MAX_ANCHOR_LOG2:
        raise FormatError(f"bad anchor stride exponent {anchor_log2}")
    n_codes = math.prod(shape)
    if n_codes > MAX_ELEMENTS:
        raise FormatError(
            f"element count {n_codes} exceeds the cap {MAX_ELEMENTS}"
        )
    implied_anchors = math.prod(_anchor_grid_shape(shape, anchor_log2))
    if n_anchors != implied_anchors:
        raise FormatError(
            f"n_anchors {n_anchors} does not match the {implied_anchors} "
            f"anchors implied by shape {shape} at stride 2**{anchor_log2}"
        )
    implied = implied_block_count(n_codes)
    if n_blocks != implied:
        raise FormatError(
            f"n_blocks {n_blocks} does not match the {implied} blocks "
            f"implied by shape {shape}"
        )
    if n_nonzero > n_blocks:
        raise FormatError(f"n_nonzero {n_nonzero} exceeds n_blocks {n_blocks}")
    if n_saturated > n_codes:
        raise FormatError(
            f"n_saturated {n_saturated} exceeds element count {n_codes}"
        )
    return shape, float(eb_abs), anchor_log2, n_blocks, n_nonzero, n_anchors


def _check_framing(buf: bytes):
    """Header validation ladder + exact-length + CRC for a full FZIN stream."""
    header = _unpack_header(buf)
    shape, eb_abs, anchor_log2, n_blocks, n_nonzero, n_anchors = header
    flag_bytes = (n_blocks + 7) // 8
    expected = (
        _HEADER_BYTES
        + n_anchors * _ANCHOR_DTYPE.itemsize
        + flag_bytes
        + n_nonzero * BLOCK_BYTES
        + _CRC_BYTES
    )
    if len(buf) != expected:
        raise FormatError(
            f"stream size mismatch: have {len(buf)} bytes, header implies {expected}"
        )
    (stored,) = struct.unpack_from(_CRC_FMT, buf, expected - _CRC_BYTES)
    actual = zlib.crc32(buf[: expected - _CRC_BYTES]) & 0xFFFFFFFF
    if stored != actual:
        raise FormatError(
            f"stream CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )
    return header


def interp_info(stream: bytes | bytearray | memoryview) -> dict:
    """Validated header facts of an ``FZIN`` stream (framing + CRC checked)."""
    buf = bytes(stream)
    shape, eb_abs, anchor_log2, n_blocks, n_nonzero, n_anchors = _check_framing(buf)
    n_sat = struct.unpack_from(_HEADER_FMT, buf)[-2]
    return {
        "shape": shape,
        "eb_abs": eb_abs,
        "anchor_stride": 1 << anchor_log2,
        "n_anchors": n_anchors,
        "n_blocks": n_blocks,
        "n_nonzero": n_nonzero,
        "n_saturated": n_sat,
    }


def interp_peek_shape(stream: bytes | bytearray | memoryview) -> tuple[int, ...]:
    """Shape declared by an ``FZIN`` header, without a CRC/length pass.

    Runs the header cross-validation ladder only (dims positive, element
    count capped, anchor/block counts implied by the shape), so transports
    can pre-size decode buffers from untrusted bytes; decoding still runs
    the full framing + CRC checks.
    """
    shape, *_ = _unpack_header(bytes(stream[:_HEADER_BYTES]))
    return tuple(int(d) for d in shape)


def interp_preview(stream: bytes | bytearray | memoryview) -> np.ndarray:
    """Coarse anchor-grid preview of an ``FZIN`` stream (float32).

    Reconstructs only the exactly-stored anchors (one per ``2**anchor_log2``
    hypercube) and upsamples them nearest-neighbor to the declared shape —
    no residual decode, no bitunshuffle, no level passes.  This is the
    level-0 tile of a progressive ROI decode: anchors live directly after
    the header, so the preview touches a fraction of the stream's work
    while framing + CRC are still validated in full.

    Anchor positions (coordinates ≡ 0 mod the stride) are *exact* — they
    equal the final reconstruction there; everything else is the nearest
    anchor at block resolution.  Each output coordinate indexes the anchor
    grid at ``coord >> anchor_log2``, so memory is bounded by the output,
    whatever stride the header declares.
    """
    buf = bytes(stream)
    shape, eb_abs, anchor_log2, _n_blocks, _n_nonzero, n_anchors = _check_framing(buf)
    reader = BoundedReader(buf, name="FZIN stream")
    reader.skip(_HEADER_BYTES, "header")
    anchors = reader.read_array(_ANCHOR_DTYPE, n_anchors, "anchor values")
    grid = _anchor_grid_shape(shape, anchor_log2)
    try:
        vals = anchors.reshape(grid).astype(np.float64) * (2.0 * eb_abs)
    except ValueError as exc:
        raise DecompressionError(f"inconsistent FZIN stream: {exc}") from exc
    nearest = np.ix_(*(np.arange(dim) >> anchor_log2 for dim in shape))
    return vals.astype(np.float32)[nearest]


def interp_decompress(
    stream: bytes | bytearray | memoryview,
    *,
    scratch=None,
) -> np.ndarray:
    """Reconstruct a field from an ``FZIN`` stream (float32).

    Mirrors the core format's failure taxonomy: framing problems
    (truncation, bad magics, header inconsistencies, CRC mismatch) raise
    :class:`~repro.errors.FormatError`; streams that parse but decode
    inconsistently raise :class:`~repro.errors.DecompressionError`.
    """
    buf = bytes(stream)
    shape, eb_abs, anchor_log2, n_blocks, n_nonzero, n_anchors = _check_framing(buf)
    flag_bytes = (n_blocks + 7) // 8
    reader = BoundedReader(buf, name="FZIN stream")
    reader.skip(_HEADER_BYTES, "header")
    anchors = reader.read_array(_ANCHOR_DTYPE, n_anchors, "anchor values")
    flags = reader.read_array(np.uint8, flag_bytes, "bit-flag array")
    literals = reader.read_array(np.uint32, n_nonzero * BLOCK_WORDS, "literal blocks")
    encoded = EncodedBlocks(
        bitflags=flags, literals=literals, n_blocks=n_blocks, n_nonzero=n_nonzero
    )
    if scratch is None:
        scratch = Scratch()
    codes = decode_codes(encoded, math.prod(shape), scratch).reshape(shape)
    with telemetry.span("stage.interp.reconstruct"):
        eb2 = 2.0 * eb_abs
        rec = np.empty(shape, dtype=np.float64)
        s0 = 1 << anchor_log2
        asel = tuple(slice(None, None, s0) for _ in range(len(shape)))
        try:
            rec[asel] = anchors.reshape(
                _anchor_grid_shape(shape, anchor_log2)
            ).astype(np.float64) * eb2
            lut = _SIGNED_MAGNITUDE * eb2
            _run_levels(rec, None, codes, anchor_log2, eb2, lut)
        except ValueError as exc:
            raise DecompressionError(f"inconsistent FZIN stream: {exc}") from exc
    return rec.astype(np.float32)
