"""Generator stand-ins that tests pass to `RandomSource.replaced`."""

from collections import deque


class Fixed:
    """Generator stand-in returning one constant."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

    def integers(self, lo, hi):
        return min(max(lo, int(self.value)), hi - 1)


class Scripted:
    """Generator stand-in consuming a fixed queue of draws."""

    def __init__(self, *values):
        self.q = deque(values)

    def random(self):
        return float(self.q.popleft())

    def integers(self, lo, hi):
        return int(self.q.popleft())
