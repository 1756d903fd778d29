"""Tests for the zero-block sparsification encoder."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends.fused import decode_codes
from repro.core.bitshuffle import TILE_WORDS, bitshuffle
from repro.core.encoder import (
    BLOCK_BYTES,
    BLOCK_WORDS,
    EncodedBlocks,
    block_offsets,
    decode_zero_blocks,
    encode_zero_blocks,
)
from repro.errors import DecompressionError
from repro.utils.pool import Scratch


def _stream(rng, n_blocks: int, zero_prob: float) -> np.ndarray:
    blocks = rng.integers(0, 2**32, size=(n_blocks, BLOCK_WORDS), dtype=np.uint32)
    zero = rng.random(n_blocks) < zero_prob
    blocks[zero] = 0
    return blocks.reshape(-1)


class TestEncode:
    def test_all_zero_stream(self):
        words = np.zeros(BLOCK_WORDS * 100, dtype=np.uint32)
        enc = encode_zero_blocks(words)
        assert enc.n_blocks == 100
        assert enc.n_nonzero == 0
        assert enc.literals.size == 0
        assert enc.nbytes == (100 + 7) // 8
        assert enc.zero_fraction == 1.0

    def test_all_nonzero_stream(self, rng):
        words = rng.integers(1, 2**32, size=BLOCK_WORDS * 10, dtype=np.uint32)
        enc = encode_zero_blocks(words)
        assert enc.n_nonzero == 10
        assert enc.literals.size == words.size

    def test_max_stage_ratio_is_128x_of_floats(self):
        """One flag bit covers 16 code bytes == 32 original float bytes."""
        original_float_bytes = BLOCK_BYTES * 2
        assert original_float_bytes * 8 == 256  # bits of float data per flag bit
        # stage ratio vs the code stream (what §3.1 quotes as the 128 cap):
        assert BLOCK_BYTES * 8 == 128

    def test_roundtrip_mixed(self, rng):
        words = _stream(rng, 1000, zero_prob=0.7)
        enc = encode_zero_blocks(words)
        np.testing.assert_array_equal(decode_zero_blocks(enc), words)

    def test_block_with_single_set_bit_is_literal(self):
        words = np.zeros(BLOCK_WORDS * 4, dtype=np.uint32)
        words[BLOCK_WORDS * 2 + 1] = 1  # one bit inside block 2
        enc = encode_zero_blocks(words)
        assert enc.n_nonzero == 1
        np.testing.assert_array_equal(decode_zero_blocks(enc), words)

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            encode_zero_blocks(np.zeros(BLOCK_WORDS + 1, dtype=np.uint32))

    def test_nbytes_accounting(self, rng):
        words = _stream(rng, 64, zero_prob=0.5)
        enc = encode_zero_blocks(words)
        assert enc.nbytes == 8 + enc.n_nonzero * BLOCK_BYTES

    @given(st.integers(1, 200), st.floats(0, 1))
    def test_roundtrip_property(self, n_blocks, zero_prob):
        rng = np.random.default_rng(n_blocks)
        words = _stream(rng, n_blocks, zero_prob)
        enc = encode_zero_blocks(words)
        np.testing.assert_array_equal(decode_zero_blocks(enc), words)


class TestDecodeValidation:
    def test_flag_count_mismatch_detected(self, rng):
        words = _stream(rng, 16, zero_prob=0.5)
        enc = encode_zero_blocks(words)
        bad = EncodedBlocks(enc.bitflags, enc.literals, enc.n_blocks, enc.n_nonzero + 1)
        with pytest.raises(DecompressionError):
            decode_zero_blocks(bad)

    def test_truncated_literals_detected(self, rng):
        words = _stream(rng, 16, zero_prob=0.0)
        enc = encode_zero_blocks(words)
        bad = EncodedBlocks(enc.bitflags, enc.literals[:-1], enc.n_blocks, enc.n_nonzero)
        with pytest.raises(DecompressionError):
            decode_zero_blocks(bad)

    def test_short_flag_array_detected(self, rng):
        words = _stream(rng, 16, zero_prob=0.5)
        enc = encode_zero_blocks(words)
        bad = EncodedBlocks(enc.bitflags[:1], enc.literals, enc.n_blocks, enc.n_nonzero)
        with pytest.raises(DecompressionError):
            decode_zero_blocks(bad)


_HARDENING_TILES = 2
_HARDENING_CODES = 2 * TILE_WORDS * _HARDENING_TILES


def _hardening_words() -> np.ndarray:
    """Tile-aligned words mixing zero and literal blocks."""
    rng = np.random.default_rng(41)
    words = rng.integers(
        0, 2**32, size=_HARDENING_TILES * TILE_WORDS, dtype=np.uint32
    )
    words.reshape(-1, 4)[::3] = 0
    return words


def _decode_words(encoded: EncodedBlocks) -> np.ndarray:
    return decode_zero_blocks(encoded)


def _decode_fused_codes(encoded: EncodedBlocks) -> np.ndarray:
    # decode_codes also undoes the bitshuffle; re-shuffle to compare words
    return bitshuffle(decode_codes(encoded, _HARDENING_CODES, Scratch()))


@pytest.mark.parametrize(
    "decode",
    [_decode_words, _decode_fused_codes],
    ids=["decode_zero_blocks", "fused_decode_codes"],
)
class TestDecodeZeroBlocksHardening:
    """Crafted block counts and flag lengths fail up front, as
    :class:`DecompressionError`, in the staged decoder and in the fused
    flat tile decoder alike — never as a downstream NumPy ``ValueError``
    from a negative reshape or a mis-sized scatter."""

    def test_roundtrip_still_exact(self, decode):
        words = _hardening_words()
        np.testing.assert_array_equal(decode(encode_zero_blocks(words)), words)

    def test_negative_block_count(self, decode):
        encoded = encode_zero_blocks(_hardening_words())
        bad = dataclasses.replace(encoded, n_blocks=-1)
        with pytest.raises(DecompressionError, match="negative block count"):
            decode(bad)

    def test_huge_negative_block_count(self, decode):
        encoded = encode_zero_blocks(_hardening_words())
        bad = dataclasses.replace(encoded, n_blocks=-(2**40))
        with pytest.raises(DecompressionError, match="negative block count"):
            decode(bad)

    def test_negative_nonzero_count(self, decode):
        encoded = encode_zero_blocks(_hardening_words())
        bad = dataclasses.replace(encoded, n_nonzero=-5)
        with pytest.raises(DecompressionError, match="non-zero blocks"):
            decode(bad)

    def test_nonzero_count_beyond_blocks(self, decode):
        encoded = encode_zero_blocks(_hardening_words())
        bad = dataclasses.replace(encoded, n_nonzero=encoded.n_blocks + 1)
        with pytest.raises(DecompressionError, match="non-zero blocks"):
            decode(bad)

    def test_flag_array_too_long(self, decode):
        encoded = encode_zero_blocks(_hardening_words())
        padded = np.concatenate(
            [encoded.bitflags, np.zeros(3, dtype=encoded.bitflags.dtype)]
        )
        bad = dataclasses.replace(encoded, bitflags=padded)
        with pytest.raises(DecompressionError, match="flag array is"):
            decode(bad)

    def test_flag_array_too_short(self, decode):
        encoded = encode_zero_blocks(_hardening_words())
        bad = dataclasses.replace(encoded, bitflags=encoded.bitflags[:-1])
        with pytest.raises(DecompressionError):
            decode(bad)

    def test_flag_popcount_mismatch(self, decode):
        encoded = encode_zero_blocks(_hardening_words())
        flipped = encoded.bitflags.copy()
        flipped[0] ^= 0xFF
        bad = dataclasses.replace(encoded, bitflags=flipped)
        with pytest.raises(DecompressionError, match="set bits"):
            decode(bad)

    def test_literal_payload_mismatch(self, decode):
        encoded = encode_zero_blocks(_hardening_words())
        bad = dataclasses.replace(encoded, literals=encoded.literals[:-4])
        with pytest.raises(DecompressionError, match="literal payload"):
            decode(bad)


class TestOffsets:
    def test_block_offsets_are_literal_slots(self, rng):
        flags = np.array([1, 0, 1, 1, 0, 1])
        off = block_offsets(flags)
        np.testing.assert_array_equal(off, [0, 1, 1, 2, 3, 3])
        # literal k of the encoded stream belongs to block with offset k
        set_blocks = np.flatnonzero(flags)
        np.testing.assert_array_equal(off[set_blocks], np.arange(len(set_blocks)))
