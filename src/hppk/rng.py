"""Randomness sources.

Every sampling operation in this package draws from an object with four
methods:

  take_bytes(n)       -> bytes  next n >= 0 bytes of the stream
  bits(k)             -> int    next k bits: ceil(k/8) bytes read
                                little-endian, masked to the low k bits
  below(n)            -> int    uniform in [0, n): rejection sampling on
                                bits((n-1).bit_length()) draws; below(1)
                                reads nothing and returns 0
  below_many(n, count) -> list  exactly the values of count below(n)
                                calls, from exactly the same bytes

below_many reads the stream in passes, one take_bytes call per pass.  A
pass reads one chunk per value still missing, so it never reads past the
chunk that below would stop at, and a rejected chunk is followed by the
same read that below would make.  Both sources share bits, below and
below_many and differ only in take_bytes.

The deterministic stream is SHAKE256 in 64-byte counter mode:
block i = shake_256(seed || i as 8-byte little-endian).digest(64).  The
stream identity string "shake256-ctr" is recorded in KAT file headers;
together with the rules above it makes seeded key generation and
encapsulation reproducible byte-for-byte in any implementation.
SHAKE256 comes from CPython's built-in _sha3 module, which hashlib
itself falls back to, so importing this package maps no OpenSSL.
SystemRng is os.urandom behind the same sampler.
"""

import os

try:
    from _sha3 import shake_256
except ImportError:  # a build without CPython's built-in SHA-3
    from hashlib import shake_256

GENERATOR_ID = "shake256-ctr"

_BLOCK_BYTES = 64


class _ByteSource:
    """The samplers over take_bytes(), shared by both sources."""

    def bits(self, k):
        if k <= 0:
            raise ValueError("k must be positive")
        nbytes = (k + 7) // 8
        v = int.from_bytes(self.take_bytes(nbytes), "little")
        return v & ((1 << k) - 1)

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

    def below_many(self, n, count):
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return [0] * count
        k = (n - 1).bit_length()
        width = (k + 7) // 8
        mask = (1 << k) - 1
        out = []
        while len(out) < count:
            # one conversion per pass, walked by a mask-keep-shift loop, not a slice per value
            whole = int.from_bytes(self.take_bytes((count - len(out)) * width), "little")
            for _ in range(count - len(out)):
                v = whole & mask
                if v < n:
                    out.append(v)
                whole >>= 8 * width
        return out


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
            block = shake_256(
                self._seed + self._counter.to_bytes(8, "little")
            ).digest(_BLOCK_BYTES)
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out


class SystemRng(_ByteSource):
    """Operating-system randomness behind the same interface."""

    take_bytes = staticmethod(os.urandom)
