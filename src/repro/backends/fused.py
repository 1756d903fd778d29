"""The ``fused`` backend: single-pass quantize + bitshuffle + zero-block encode.

The paper's biggest ablation win (Fig. 10) comes from fusing bitshuffle
into the dual-quantization kernel so the quantization-code array never
round-trips through global memory (§3.3).  This backend reproduces that
bandwidth argument on the CPU: instead of three full-array passes
(``stage.quantize`` → ``stage.bitshuffle`` → ``stage.encode``, each
streaming the whole field through memory), it processes the field in
cache-sized *slabs* of whole Lorenzo chunk-rows and pushes each slab all
the way to encoded output while it is still resident:

1. pre-quantize the slab in float64 and take the per-chunk Lorenzo
   residuals **without materializing the int64 grid** — ``rint`` output is
   an exact float64 integer, and integer differences in float64 are exact
   while ``max |q| < 2**51``, so float64 subtraction commutes bit-for-bit
   with the reference's int64 pipeline (a guard falls back to the
   reference int64 kernels for pathological ``data/eb`` ratios);
2. sign-magnitude encode in int16 — when no residual saturates (checked
   per slab), a two's-complement int16 of a magnitude ≤ 0x7FFF has bit 15
   set exactly when negative, i.e. the int16 bit pattern's top bit *is*
   the format's sign bit, collapsing the clamp/compare/mask sequence to
   ``|x| | (x & 0x8000)``;
3. gather the slab's codes to chunk-major order and emit whole 32x32-bit
   tiles through a pending-codes buffer (slab size need not divide the
   2048-code tile);
4. bit-transpose each batch of tiles in *bit-plane-major* layout — all
   five masked-swap passes then run over long contiguous runs instead of
   the tile-major layout's stride-``j`` hops — and derive zero-block flags
   and literal blocks directly from that layout, so the word-transposed
   "shuffled" array of the staged pipeline is never materialized either.

Output is **byte-identical** to the ``reference`` backend for every input
(enforced by ``tests/test_backends_conformance.py``); the speedup over
``reference`` is recorded in ``BENCH_backends.json`` and gated in CI.

Decoding runs the same argument in reverse: instead of four staged
full-array passes (zero-block scatter → bit un-transpose → sign-magnitude
decode → inverse Lorenzo/dequant), :func:`_fused_decode_codes` walks the
field in the encoder's slabs and, per slab, scatters only the needed
tiles' literal blocks straight into the bit-plane-major layout, applies
the masked-swap network once more (the transpose is an involution), and
un-gathers chunk-major codes into an int32 slab that never leaves cache
until the float32 rows are written out.  Decode magnitudes are masked to
15 bits, so every per-chunk prefix sum — intermediates included — is
bounded by ``0x7FFF * chunk_elems``; a single up-front ``uint16``
max-reduction proves the whole slab fits int32 exactly; chunk geometries
that might not take the same ``_NeedsExactPath`` fallback to the
reference decoders, which do int64 arithmetic.  The inverse Lorenzo
itself runs in place as a ladder of vectorized adds along each axis
(``cumsum``'s element-by-element carry is far slower on short accumulate
axes; long-chunk 1-D keeps ``cumsum``), and the final dequantize
multiplies the cropped int32 view by ``2eb`` straight into the caller's
output through NumPy's float64 ufunc loop — bit-identical to the staged
multiply-then-cast.  Decoded arrays are **bit-identical** to
``reference`` everywhere; the decode speedup is recorded in
``BENCH_decode.json`` and gated in CI alongside the encode gate.

The tile stage alone — flat ``uint16`` codes to and from
:class:`~repro.core.encoder.EncodedBlocks` — is exported as
:func:`encode_codes` / :func:`decode_codes` for predictors that produce
their own code arrays (the interpolation planner).
"""

from __future__ import annotations

import math

import numpy as np

from repro import telemetry
from repro.backends.base import EncodeOutcome, KernelBackend
from repro.backends.reference import padded_stage_sizes
from repro.core.bitshuffle import TILE_WORDS, bitshuffle, bitunshuffle
from repro.core.encoder import (
    BLOCK_WORDS,
    EncodedBlocks,
    decode_zero_blocks,
    encode_zero_blocks,
)
from repro.core.quantize import (
    MAX_MAGNITUDE,
    SIGN_BIT,
    QuantizerStats,
    dual_dequantize,
    dual_quantize,
)
from repro.errors import DecompressionError
from repro.utils.bits import pack_bitflags, unpack_bitflags
from repro.utils.chunking import chunk_shape_for
from repro.utils.pool import Scratch

__all__ = [
    "FusedBackend",
    "TILE_CODES",
    "TARGET_SLAB_CODES",
    "encode_codes",
    "decode_codes",
]

#: Quantization codes per bitshuffle tile (2048 = 4 KiB of uint16).
TILE_CODES = 2 * TILE_WORDS

#: Aim for ~64K codes (128 KiB of uint16 + the float64 working set) per
#: slab: big enough to amortize ufunc dispatch, small enough to stay
#: L2-resident through all fused steps.
TARGET_SLAB_CODES = 1 << 16

#: Residual magnitudes are exact in float64 subtraction only below this;
#: 2**51 leaves two doublings of headroom under the 2**53 integer limit
#: for the up-to-two extra Lorenzo difference levels.
_EXACT_LIMIT = float(2**51)
#: Decode-side bound: per-chunk prefix sums must fit int32 exactly.
_I32_LIMIT = 2**31


#: Masked-swap transpose: one column-pair mask per swap distance
#: j = 16, 8, 4, 2, 1, selecting the bit positions whose j-bit is 0.
_SWAP_DISTANCES = (16, 8, 4, 2, 1)
_SWAP_MASKS = tuple(
    np.uint32(m)
    for m in (0x0000FFFF, 0x00FF00FF, 0x0F0F0F0F, 0x33333333, 0x55555555)
)


class _NeedsExactPath(Exception):
    """Raised when ``max |q|`` breaks the float64-exactness guard."""


def _transpose_bitplanes(B: np.ndarray, scratch: Scratch) -> None:
    """In-place 32x32 bit transpose of ``B`` in bit-plane-major layout.

    ``B[c, t*32 + i]`` holds in-row word ``c`` of row ``i`` of tile ``t``.
    The masked-swap network pairs rows ``c`` and ``c ^ j``, so every pass
    operates on contiguous ``(j * M)``-element slices — unlike the
    tile-major layout, where the ``j in (1, 2, 4)`` passes degrade to
    stride-``j`` inner loops.  This is the classic O(log 32) block-swap
    transpose (Hacker's Delight §7-3, oriented for little-endian bit/word
    indexing): a permutation of the same bits as the ballot-style
    :func:`repro.utils.bits.bit_transpose_32x32`, hence bit-exact.
    """
    M = B.shape[1]
    for j, mask in zip(_SWAP_DISTANCES, _SWAP_MASKS):
        pairs = B.reshape(32 // (2 * j), 2, j, M)
        lo = pairs[:, 0]  # word rows whose j-bit is 0
        hi = pairs[:, 1]  # word rows whose j-bit is 1
        t = scratch.take("fz.swap", lo.shape, np.uint32)
        # swap bit (r, c+j) of lo with bit (r+j, c) of hi for every bit
        # column c whose j-bit is 0: t = ((lo >> j) ^ hi) & mask, then
        # hi ^= t and lo ^= t << j
        np.right_shift(lo, j, out=t)
        np.bitwise_xor(t, hi, out=t)
        np.bitwise_and(t, mask, out=t)
        np.bitwise_xor(hi, t, out=hi)
        np.left_shift(t, j, out=t)
        np.bitwise_xor(lo, t, out=lo)


def _encode_tiles(
    codes: np.ndarray, scratch: Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """Bitshuffle + zero-block encode a whole number of tiles.

    ``codes`` is contiguous ``uint16`` whose length is a multiple of
    :data:`TILE_CODES`; returns the tiles' packed flag bytes and literal
    words.  Tiles are independent, so a stream can be encoded piecewise and
    the parts joined by :func:`_join_tiles`.
    """
    flat = codes.view(np.uint32).reshape(-1, 32)
    n_tiles = flat.shape[0] // 32
    M = n_tiles * 32
    B = scratch.take("fz.planes", (32, M), np.uint32)
    np.copyto(B, flat.T)
    _transpose_bitplanes(B, scratch)
    # per-block OR without materializing the word-transposed layout:
    # shuffled block (t, c, m) is B[c, t*32 + 4m : t*32 + 4m + 4]
    grp = B.reshape(32, n_tiles, 8, BLOCK_WORDS)
    acc = scratch.take("fz.acc", (32, n_tiles, 8), np.uint32)
    np.bitwise_or(grp[..., 0], grp[..., 1], out=acc)
    for w in range(2, BLOCK_WORDS):
        np.bitwise_or(acc, grp[..., w], out=acc)
    bf = scratch.take("fz.bf", (n_tiles * 256,), bool)
    np.not_equal(acc.transpose(1, 0, 2), 0, out=bf.reshape(n_tiles, 32, 8))
    # gather only the nonzero blocks, straight from the plane layout
    idx = np.nonzero(bf)[0]
    c = (idx >> 3) & 31
    tm = ((idx >> 8) << 3) | (idx & 7)
    literals = B.reshape(32, n_tiles * 8, BLOCK_WORDS)[c, tm].reshape(-1)
    return pack_bitflags(bf), literals


def _join_tiles(parts: list[tuple[np.ndarray, np.ndarray]]) -> EncodedBlocks:
    """Concatenate :func:`_encode_tiles` outputs into one block stream."""
    if not parts:
        return EncodedBlocks(
            bitflags=np.zeros(0, np.uint8),
            literals=np.zeros(0, np.uint32),
            n_blocks=0,
            n_nonzero=0,
        )
    literals = np.concatenate([lit for _, lit in parts])
    return EncodedBlocks(
        bitflags=np.concatenate([flags for flags, _ in parts]),
        literals=literals,
        n_blocks=sum(flags.size * 8 for flags, _ in parts),
        n_nonzero=literals.size // BLOCK_WORDS,
    )


def encode_codes(codes: np.ndarray, scratch: Scratch) -> EncodedBlocks:
    """Bitshuffle + zero-block encode flat ``uint16`` codes.

    Byte-identical to ``encode_zero_blocks(bitshuffle(codes))``: the codes
    are zero-padded to whole tiles and streamed through the fused tile
    kernel in cache-sized batches, so no shuffled copy of the whole array
    is ever materialized.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint16).reshape(-1)
    n_whole = codes.size - codes.size % TILE_CODES
    parts = [
        _encode_tiles(codes[a : min(a + TARGET_SLAB_CODES, n_whole)], scratch)
        for a in range(0, n_whole, TARGET_SLAB_CODES)
    ]
    if n_whole < codes.size:
        pend = scratch.take("fz.pend", (TILE_CODES,), np.uint16)
        rest = codes.size - n_whole
        pend[:rest] = codes[n_whole:]
        pend[rest:] = 0
        parts.append(_encode_tiles(pend, scratch))
    return _join_tiles(parts)


def _checked_blocks(
    encoded: EncodedBlocks, n_codes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a block stream holding ``n_codes`` codes.

    Mirrors the staged decoders' ladder — ``decode_zero_blocks`` then
    ``bitunshuffle``: same conditions, same messages, same order — so a
    crafted stream fails identically whichever path decodes it.  Returns
    the unpacked byte flags, the literal blocks, and every tile's first
    literal block (an exclusive cumsum of per-tile flag popcounts, so any
    tile range scatters without a global pass).
    """
    n_blocks = int(encoded.n_blocks)
    if n_blocks < 0:
        raise DecompressionError(f"negative block count {n_blocks} in stream")
    n_nonzero = int(encoded.n_nonzero)
    if not 0 <= n_nonzero <= n_blocks:
        raise DecompressionError(
            f"stream claims {n_nonzero} non-zero blocks of {n_blocks}"
        )
    if int(encoded.bitflags.size) != (n_blocks + 7) // 8:
        raise DecompressionError(
            f"flag array is {int(encoded.bitflags.size)} bytes, "
            f"{n_blocks} blocks need {(n_blocks + 7) // 8}"
        )
    try:
        byteflags = unpack_bitflags(encoded.bitflags, encoded.n_blocks)
    except ValueError as exc:
        raise DecompressionError(str(exc)) from exc
    n_set = int(np.count_nonzero(byteflags))
    if n_set != encoded.n_nonzero:
        raise DecompressionError(
            f"flag array has {n_set} set bits but stream claims {encoded.n_nonzero}"
        )
    literals = np.ascontiguousarray(encoded.literals, dtype=np.uint32)
    if literals.size != encoded.n_nonzero * BLOCK_WORDS:
        raise DecompressionError(
            "literal payload length does not match non-zero block count"
        )
    n_words = encoded.n_blocks * BLOCK_WORDS
    if n_words % TILE_WORDS:
        raise DecompressionError("word count must be a multiple of TILE_WORDS")
    if not 0 <= n_codes <= 2 * n_words:
        raise DecompressionError(
            f"stream holds {2 * n_words} codes, {n_codes} requested"
        )
    n_tiles = n_blocks // 256
    tile_start = np.zeros(n_tiles + 1, dtype=np.int64)
    np.cumsum(
        byteflags.reshape(n_tiles, 256).sum(axis=1, dtype=np.int64),
        out=tile_start[1:],
    )
    return byteflags, literals.reshape(-1, BLOCK_WORDS), tile_start


def _decode_tiles(
    byteflags: np.ndarray,
    lit_blocks: np.ndarray,
    tile_start: np.ndarray,
    t_lo: int,
    t_hi: int,
    scratch: Scratch,
) -> np.ndarray:
    """Codes of tiles ``[t_lo, t_hi)`` as a scratch-backed ``uint16`` view.

    Zero-block scatter straight into the bit-plane-major layout (batch
    flag ``t*256 + c*8 + m`` is block ``B[c, t*32 + 4m : t*32 + 4m + 4]``),
    then the masked-swap network once more — it is an involution, so it
    undoes the encoder's transpose.
    """
    n_tiles = t_hi - t_lo
    M = n_tiles * 32
    B = scratch.take("fzd.planes", (32, M), np.uint32)
    B.fill(0)
    idx = np.nonzero(byteflags[t_lo * 256 : t_hi * 256])[0]
    if idx.size:
        B.reshape(32, n_tiles * 8, BLOCK_WORDS)[
            (idx >> 3) & 31, ((idx >> 8) << 3) | (idx & 7)
        ] = lit_blocks[tile_start[t_lo] : tile_start[t_hi]]
    _transpose_bitplanes(B, scratch)
    cm32 = scratch.take("fzd.cm32", (M, 32), np.uint32)
    np.copyto(cm32, B.T)
    return cm32.reshape(-1).view(np.uint16)


def decode_codes(
    encoded: EncodedBlocks, n_codes: int, scratch: Scratch
) -> np.ndarray:
    """Invert :func:`encode_codes`: the first ``n_codes`` flat codes.

    Bit-identical to ``bitunshuffle(decode_zero_blocks(encoded), n_codes)``
    and runs the same validation ladder.  The result is backed by
    ``scratch``: consume it before the arena is reused.
    """
    n_codes = int(n_codes)
    byteflags, lit_blocks, tile_start = _checked_blocks(encoded, n_codes)
    out = scratch.take("fzd.codes", (n_codes,), np.uint16)
    for a in range(0, n_codes, TARGET_SLAB_CODES):
        b = min(a + TARGET_SLAB_CODES, n_codes)
        tiles = _decode_tiles(
            byteflags, lit_blocks, tile_start,
            a // TILE_CODES, -(-b // TILE_CODES), scratch,
        )
        out[a:b] = tiles[: b - a]
    return out


def _fused_encode_codes(
    data: np.ndarray,
    eb_abs: float,
    chunk: tuple[int, ...],
    scratch: Scratch,
) -> tuple[EncodedBlocks, tuple[int, ...], QuantizerStats]:
    """The fused slab loop.  See the module docstring for the algorithm."""
    nd = data.ndim
    shape = data.shape
    padded = tuple(-(-s // c) * c for s, c in zip(shape, chunk))
    inner = shape[1:]
    inner_p = padded[1:]
    inner_n = math.prod(inner_p)
    c0 = chunk[0]
    slab_rows = max(1, TARGET_SLAB_CODES // (c0 * inner_n)) * c0
    slab_rows = min(slab_rows, padded[0])
    inv = np.float64(2.0 * eb_abs)

    fbuf = scratch.take("fz.f64a", (slab_rows,) + inner_p, np.float64)
    dbuf = scratch.take("fz.f64b", (slab_rows,) + inner_p, np.float64)
    codes_rm = scratch.take("fz.c16", (slab_rows,) + inner_p, np.uint16)
    pend = scratch.take("fz.pend", (TILE_CODES,), np.uint16)
    n_pend = 0
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    n_sat = 0
    max_abs = 0

    def encode_tiles(codes_part: np.ndarray) -> None:
        parts.append(_encode_tiles(codes_part, scratch))

    def flush_tiles(codes_cm: np.ndarray) -> None:
        """Emit whole tiles from contiguous chunk-major codes + the carry."""
        nonlocal n_pend
        if n_pend:
            need = TILE_CODES - n_pend
            if codes_cm.size >= need:
                pend[n_pend:] = codes_cm[:need]
                n_pend = 0
                encode_tiles(pend)
                codes_cm = codes_cm[need:]
            else:
                pend[n_pend : n_pend + codes_cm.size] = codes_cm
                n_pend += codes_cm.size
                return
        n_full = codes_cm.size // TILE_CODES
        rest = codes_cm[n_full * TILE_CODES :]
        if n_full:
            encode_tiles(codes_cm[: n_full * TILE_CODES])
        if rest.size:
            pend[: rest.size] = rest
            n_pend = rest.size

    for a in range(0, padded[0], slab_rows):
        b = min(a + slab_rows, padded[0])
        rows = b - a
        real = max(0, min(shape[0], b) - a)
        f = fbuf[:rows]
        if real < rows:
            f[real:] = 0.0
        if real:
            for k in range(1, nd):
                if padded[k] != shape[k]:
                    sl = [slice(0, real)] + [slice(None)] * (nd - 1)
                    sl[k] = slice(shape[k], None)
                    f[tuple(sl)] = 0.0
            interior = (slice(0, real),) + tuple(slice(0, s) for s in inner)
            np.divide(data[a : a + real], inv, out=f[interior])
        np.rint(f, out=f)
        if real and max(float(f.max()), -float(f.min())) >= _EXACT_LIMIT:
            raise _NeedsExactPath
        # per-chunk Lorenzo residuals: prepend-0 diff along every axis,
        # restarting at chunk boundaries (the strided writeback); diff
        # axes commute, ping-ponging between the two float64 buffers
        src, dst = f, dbuf[:rows]
        for k in range(nd - 1, -1, -1):
            hi = [slice(None)] * nd
            hi[k] = slice(1, None)
            lo = [slice(None)] * nd
            lo[k] = slice(None, -1)
            np.subtract(src[tuple(hi)], src[tuple(lo)], out=dst[tuple(hi)])
            starts = [slice(None)] * nd
            starts[k] = slice(None, None, chunk[k])
            dst[tuple(starts)] = src[tuple(starts)]
            src, dst = dst, src
        delta = src
        slab_max = float(max(delta.max(), -delta.min())) if rows else 0.0
        max_abs = max(max_abs, int(slab_max))
        cr = codes_rm[:rows]
        if slab_max > MAX_MAGNITUDE:
            # rare saturating slab: clamp in float64 exactly as reference
            mg = dst
            np.absolute(delta, out=mg)
            mask = scratch.take("fz.mask", (rows,) + inner_p, bool)
            np.greater(mg, MAX_MAGNITUDE, out=mask)
            n_sat += int(np.count_nonzero(mask))
            np.minimum(mg, float(MAX_MAGNITUDE), out=mg)
            np.copyto(cr, mg, casting="unsafe")
            np.less(delta, 0, out=mask)
            np.bitwise_or(cr, SIGN_BIT, out=cr, where=mask)
        else:
            # |delta| <= 0x7FFF fits int16 exactly, and the int16 sign bit
            # of such a value is set iff negative — it *is* SIGN_BIT
            xi = cr.view(np.int16)
            np.copyto(xi, delta, casting="unsafe")
            mg16 = scratch.take("fz.m16", (rows,) + inner_p, np.uint16)
            np.absolute(xi, out=mg16.view(np.int16))
            np.bitwise_and(cr, SIGN_BIT, out=cr)
            np.bitwise_or(cr, mg16, out=cr)
        if nd == 1:
            flush_tiles(cr)  # 1-D chunk-major order is row-major order
            continue
        # chunk-major gather: (g, c0, n1, c1[, n2, c2]) ->
        #                     (g, n1[, n2], c0, c1[, c2])
        g_rows = rows // c0
        grid = tuple(p // c for p, c in zip(inner_p, chunk[1:]))
        view_shape = (g_rows, c0)
        for n, c in zip(grid, chunk[1:]):
            view_shape += (n, c)
        perm = (
            (0,)
            + tuple(range(2, 2 * nd, 2))
            + (1,)
            + tuple(range(3, 2 * nd + 1, 2))
        )
        cm = scratch.take("fz.cm", (rows * inner_n,), np.uint16)
        view = cr.reshape(view_shape).transpose(perm)
        np.copyto(cm.reshape(view.shape), view)
        flush_tiles(cm)

    if n_pend:
        pend[n_pend:] = 0  # zero-pad the final partial tile, as reference
        n_pend = 0
        encode_tiles(pend)
    return _join_tiles(parts), padded, QuantizerStats(n_sat, 0, max_abs)


def _fused_decode_codes(
    encoded: EncodedBlocks,
    padded_shape: tuple[int, ...],
    orig_shape: tuple[int, ...],
    eb_abs: float,
    chunk: tuple[int, ...] | None,
    scratch: Scratch,
) -> np.ndarray:
    """The fused slab decode loop.  See the module docstring for the idea.

    Validation is :func:`_checked_blocks` followed by the dequantizer's
    chunk-alignment check, so crafted streams fail identically whichever
    backend decodes them.
    """
    padded = tuple(int(p) for p in padded_shape)
    nd = len(padded)
    byteflags, lit_blocks, tile_start = _checked_blocks(
        encoded, math.prod(padded)
    )
    chunk = chunk_shape_for(nd, chunk)
    if any(p % c for p, c in zip(padded, chunk)):
        raise DecompressionError(
            f"padded shape {padded} is not aligned to chunk {chunk}"
        )
    chunk_elems = math.prod(chunk)

    orig_shape = tuple(orig_shape)
    inner = orig_shape[1:]
    inner_p = padded[1:]
    inner_n = math.prod(inner_p)
    c0 = chunk[0]
    slab_rows = max(1, TARGET_SLAB_CODES // (c0 * inner_n)) * c0
    slab_rows = min(slab_rows, padded[0])
    inv = np.float64(2.0 * eb_abs)

    # chunk-major -> row-major scatter: the encoder's gather permutation,
    # applied through a transposed destination view
    grid = tuple(p // c for p, c in zip(inner_p, chunk[1:]))
    perm = (
        (0,)
        + tuple(range(2, 2 * nd, 2))
        + (1,)
        + tuple(range(3, 2 * nd + 1, 2))
    )

    out = np.empty(orig_shape, dtype=np.float32)
    for a in range(0, padded[0], slab_rows):
        b = min(a + slab_rows, padded[0])
        rows = b - a
        real = min(orig_shape[0], b) - a
        if real <= 0:
            continue  # rows of pure chunk padding never reach the output
        # the slab's chunk-major codes span these positions of the stream
        # (slab boundaries are chunk-row boundaries, so spans are exact);
        # decode the covering whole tiles, tolerating a shared boundary tile
        lo = a * inner_n
        hi = b * inner_n
        t_lo = lo // TILE_CODES
        t_hi = -(-hi // TILE_CODES)
        sl = _decode_tiles(
            byteflags, lit_blocks, tile_start, t_lo, t_hi, scratch
        )[lo - t_lo * TILE_CODES : hi - t_lo * TILE_CODES]
        # un-gather chunk-major -> row-major (1-D is already row-major)
        g_rows = rows // c0
        view_shape = (g_rows, c0)
        for n_blk, c_blk in zip(grid, chunk[1:]):
            view_shape += (n_blk, c_blk)
        if nd == 1:
            cr = sl
        else:
            cr = scratch.take("fzd.c16", (rows * inner_n,), np.uint16)
            view = cr.reshape(view_shape).transpose(perm)
            np.copyto(view, sl.reshape(view.shape))
        # sign-magnitude decode into int32: magnitudes are masked to 15
        # bits, and every prefix sum — intermediate cumsum passes included
        # — is a sub-box sum of one chunk's deltas, so max|mag| *
        # prod(chunk) bounds them all.  One cheap uint16 reduction proves
        # the whole slab fits int32 (default chunks can never trip it:
        # 0x7FFF * 512 << 2**31); oversized custom chunks take the exact
        # reference path instead
        f = scratch.take("fzd.i32a", view_shape, np.int32)
        bsrc = cr.reshape(view_shape)
        mag = scratch.take("fzd.m16", view_shape, np.uint16)
        np.bitwise_and(bsrc, np.uint16(MAX_MAGNITUDE), out=mag)
        if int(mag.max(initial=0)) * chunk_elems >= _I32_LIMIT:
            raise _NeedsExactPath
        neg = scratch.take("fzd.neg", view_shape, bool)
        np.greater_equal(bsrc, SIGN_BIT, out=neg)
        np.copyto(f, mag)
        np.negative(f, out=f, where=neg)
        # in-place inverse Lorenzo: per-chunk prefix sums along every chunk
        # axis.  np.cumsum runs a scalar carry loop, so when the slices
        # perpendicular to the axis are wide, an explicit add ladder over
        # the (short) chunk edge vectorizes much better; the long-thin case
        # (1-D's 512-wide chunk edge) keeps the cumsum kernel
        n_slab = f.size
        for k in range(nd):
            ax = 2 * k + 1
            length = view_shape[ax]
            if n_slab >= length * 1024:
                mov = np.moveaxis(f, ax, 0)
                for i in range(1, length):
                    np.add(mov[i - 1], mov[i], out=mov[i])
            else:
                np.cumsum(f, axis=ax, out=f)
        src = f
        # dequantize straight into the output: int32 * float64 runs the
        # float64 ufunc loop and casts once to float32 — bit-identical to
        # the staged decoders' multiply-then-astype
        crop = (slice(0, real),) + tuple(slice(0, s) for s in inner)
        np.multiply(
            src.reshape((rows,) + inner_p)[crop],
            inv,
            out=out[a : a + real],
            casting="unsafe",
        )
    return out


class FusedBackend(KernelBackend):
    """Cache-blocked single-pass encode and decode."""

    name = "fused"

    def encode(
        self,
        data: np.ndarray,
        eb_abs: float,
        chunk: tuple[int, ...],
        scratch: Scratch | None = None,
    ) -> EncodeOutcome:
        scratch = self._own_scratch(scratch)
        try:
            with telemetry.span("stage.fused_encode"):
                encoded, padded_shape, stats = _fused_encode_codes(
                    data, eb_abs, chunk, scratch
                )
        except _NeedsExactPath:
            # data/eb ratio beyond float64-exact Lorenzo territory: the
            # reference kernels do int64 arithmetic and define the bytes
            with telemetry.span("stage.quantize"):
                codes, padded_shape, stats = dual_quantize(data, eb_abs, chunk)
            with telemetry.span("stage.bitshuffle"):
                shuffled = bitshuffle(codes)
            with telemetry.span("stage.encode"):
                encoded = encode_zero_blocks(shuffled)
        codes_bytes, shuffled_bytes = padded_stage_sizes(padded_shape)
        return EncodeOutcome(
            encoded=encoded,
            padded_shape=padded_shape,
            stats=stats,
            codes_bytes=codes_bytes,
            shuffled_bytes=shuffled_bytes,
        )

    def decode(
        self,
        encoded: EncodedBlocks,
        padded_shape: tuple[int, ...],
        orig_shape: tuple[int, ...],
        eb_abs: float,
        chunk: tuple[int, ...] | None,
        scratch: Scratch | None = None,
    ) -> np.ndarray:
        scratch = self._own_scratch(scratch)
        try:
            with telemetry.span("stage.fused_decode"):
                return _fused_decode_codes(
                    encoded, padded_shape, orig_shape, eb_abs, chunk, scratch
                )
        except _NeedsExactPath:
            # a prefix sum might overflow int32 (only crafted or
            # pathological streams get here): the reference decoders run
            # the inverse Lorenzo in int64 and define the result
            n_codes = int(np.prod(padded_shape))
            with telemetry.span("stage.decode"):
                words = decode_zero_blocks(encoded)
            with telemetry.span("stage.bitunshuffle"):
                codes = bitunshuffle(words, n_codes)
            with telemetry.span("stage.dequantize"):
                return dual_dequantize(
                    codes, padded_shape, orig_shape, eb_abs, chunk
                )
