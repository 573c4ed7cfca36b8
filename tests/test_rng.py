import hashlib

import pytest

from hppk.rng import DeterministicStream, SystemRng

from stub_rng import StubRng


def test_stream_is_reproducible():
    a = DeterministicStream(b"\x00" * 32)
    b = DeterministicStream(b"\x00" * 32)
    assert a.take_bytes(100) == b.take_bytes(100)
    assert a.bits(13) == b.bits(13)
    assert a.below(1000) == b.below(1000)


def test_stream_chunking_is_irrelevant():
    a = DeterministicStream(b"seed")
    b = DeterministicStream(b"seed")
    assert a.take_bytes(10) + a.take_bytes(54) + a.take_bytes(3) == b.take_bytes(67)


def _definition_bytes(seed, n):
    """The first n bytes of the stream, straight from its definition."""
    out = b"".join(
        hashlib.shake_256(seed + i.to_bytes(8, "little")).digest(64)
        for i in range(n // 64 + 1)
    )
    return out[:n]


def test_stream_matches_its_definition():
    seed = b"definition"
    expected = _definition_bytes(seed, 512)
    pos = 0

    def next_bytes(n):
        nonlocal pos
        pos += n
        return expected[pos - n : pos]

    rng = DeterministicStream(seed)
    assert rng.take_bytes(0) == b""
    assert rng.take_bytes(3) == next_bytes(3)
    assert rng.take_bytes(70) == next_bytes(70)  # bytes 3..72 straddle block 0/1
    for k in (1, 13, 135):
        raw = next_bytes((k + 7) // 8)
        assert rng.bits(k) == int.from_bytes(raw, "little") & ((1 << k) - 1)
    assert rng.take_bytes(30) == next_bytes(30)
    assert pos < 128 < pos + 17  # the next bits(135) straddles block 1/2
    assert rng.bits(135) == int.from_bytes(next_bytes(17), "little") & ((1 << 135) - 1)
    rejections = 0
    for _ in range(16):
        draw = next_bytes(1)[0]
        while draw >= 129:  # below(129) draws 8 bits and rejects 129..255
            rejections += 1
            draw = next_bytes(1)[0]
        assert rng.below(129) == draw
    assert rejections > 0
    assert rng.take_bytes(64) == next_bytes(64)


def test_take_bytes_rejects_negative_counts():
    a = DeterministicStream(b"negative")
    b = DeterministicStream(b"negative")
    assert a.take_bytes(3) == b.take_bytes(3)
    with pytest.raises(ValueError):
        a.take_bytes(-1)
    assert a.take_bytes(64) == b.take_bytes(64)  # the rejected call read nothing
    with pytest.raises(ValueError):
        SystemRng().take_bytes(-1)


def test_different_seeds_differ():
    assert (
        DeterministicStream(b"\x00" * 32).take_bytes(32)
        != DeterministicStream(b"\x01" * 32).take_bytes(32)
    )


def test_bits_masks_to_width():
    rng = DeterministicStream(b"x")
    for k in (1, 7, 8, 9, 64, 135):
        for _ in range(50):
            assert 0 <= rng.bits(k) < 1 << k


def test_below_range_and_rejects_nonpositive():
    rng = DeterministicStream(b"y")
    for n in (1, 2, 3, 13, 6798, (1 << 64) - 59):
        for _ in range(50):
            assert 0 <= rng.below(n) < n
    with pytest.raises(ValueError):
        rng.below(0)


def test_below_consumes_nothing_for_one():
    a = DeterministicStream(b"z")
    b = DeterministicStream(b"z")
    assert a.below(1) == 0
    assert a.take_bytes(8) == b.take_bytes(8)


def test_below_is_plausibly_uniform():
    rng = DeterministicStream(b"uniformity")
    counts = [0] * 13
    n = 13_000
    for _ in range(n):
        counts[rng.below(13)] += 1
    for c in counts:
        assert abs(c - n / 13) < 5 * (n / 13) ** 0.5


def test_below_many_matches_below():
    # 129 takes 8-bit draws and rejects 129..255, so passes repeat
    moduli = (1, 2, 13, 129, (1 << 64) - 59, (1 << 135) + 12345)
    for n in moduli:
        for count in (0, 1, 5, 40):
            seed = f"many-{n}-{count}".encode()
            a = DeterministicStream(seed)
            b = DeterministicStream(seed)
            assert a.below_many(n, count) == [b.below(n) for _ in range(count)]
            assert a.take_bytes(64) == b.take_bytes(64)
    for n in (0, -1):
        with pytest.raises(ValueError):
            DeterministicStream(b"many").below_many(n, 3)


def test_below_many_reads_once_per_pass():
    reads = []

    class Counting(DeterministicStream):
        def take_bytes(self, n):
            reads.append(n)
            return super().take_bytes(n)

    # a 64-bit draw rejects with probability 59/2**64: one pass of 40 chunks
    Counting(b"pass").below_many((1 << 64) - 59, 40)
    assert reads == [320]


def test_system_rng_ranges():
    rng = SystemRng()
    assert len(rng.take_bytes(16)) == 16
    assert 0 <= rng.bits(9) < 512
    assert 0 <= rng.below(97) < 97
    draws = rng.below_many(129, 40)
    assert len(draws) == 40 and all(0 <= v < 129 for v in draws)
    assert rng.below_many(1, 3) == [0, 0, 0]
    # one sampler serves both sources: SystemRng only supplies bytes
    assert "below" not in vars(SystemRng)
    assert "below_many" not in vars(SystemRng)


def test_stub_replays_and_exhausts():
    stub = StubRng([5, 7, 1, 2, 3])
    assert stub.below(100) == 5
    assert stub.bits(12) == 7
    assert stub.below_many(100, 3) == [1, 2, 3]
    with pytest.raises(IndexError):
        stub.below(10)
    with pytest.raises(NotImplementedError):
        StubRng([1]).take_bytes(4)
