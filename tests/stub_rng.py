"""A randomness source that replays queued integers, for tests."""


class StubRng:
    """Replays a fixed sequence of integers.

    Each bits()/below() call pops the next queued value verbatim, and
    below_many(n, count) pops count of them, so a queue can steer
    rejection-sampling loops one draw at a time.
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

    def below_many(self, n, count):
        return [self._pop() for _ in range(count)]
