"""Randomness sources.

Every sampling operation in this package draws from an object with three
methods:

  take_bytes(n) -> bytes   next n >= 0 bytes of the stream
  bits(k)       -> int     next k bits: ceil(k/8) bytes read little-endian,
                           masked to the low k bits
  below(n)      -> int     uniform in [0, n): rejection sampling on
                           bits((n-1).bit_length()) draws; below(1) reads
                           nothing and returns 0

The deterministic stream is SHAKE256 in 64-byte counter mode:
block i = shake_256(seed || i as 8-byte little-endian).digest(64).  The
stream identity string "shake256-ctr" is recorded in KAT file headers;
together with the rules above it makes seeded key generation and
encapsulation reproducible byte-for-byte in any implementation.
"""

import hashlib
import secrets

GENERATOR_ID = "shake256-ctr"

_BLOCK_BYTES = 64


class _ByteSource:
    """bits() over take_bytes(), shared by the byte-backed sources."""

    def bits(self, k):
        if k <= 0:
            raise ValueError("k must be positive")
        nbytes = (k + 7) // 8
        v = int.from_bytes(self.take_bytes(nbytes), "little")
        return v & ((1 << k) - 1)


class DeterministicStream(_ByteSource):
    """Seeded SHAKE256 counter-mode byte stream."""

    def __init__(self, seed):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._seed = bytes(seed)
        self._counter = 0
        self._buf = b""

    def take_bytes(self, n):
        if n < 0:
            raise ValueError("n must be non-negative")
        while len(self._buf) < n:
            block = hashlib.shake_256(
                self._seed + self._counter.to_bytes(8, "little")
            ).digest(_BLOCK_BYTES)
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def below(self, n):
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            v = self.bits(k)
            if v < n:
                return v


class SystemRng(_ByteSource):
    """Operating-system randomness behind the same interface."""

    def take_bytes(self, n):
        return secrets.token_bytes(n)

    def below(self, n):
        if n <= 0:
            raise ValueError("n must be positive")
        return secrets.randbelow(n)


class StubRng:
    """Replays a fixed sequence of integers; for tests and fixtures.

    Each bits()/below() call pops the next queued value verbatim, so a
    queue can steer rejection-sampling loops one draw at a time.
    """

    def __init__(self, values):
        self._queue = list(values)

    def take_bytes(self, n):
        raise NotImplementedError("StubRng replays integers, not raw bytes")

    def _pop(self):
        if not self._queue:
            raise IndexError("stub randomness exhausted")
        return self._queue.pop(0)

    def bits(self, k):
        return self._pop()

    def below(self, n):
        return self._pop()
