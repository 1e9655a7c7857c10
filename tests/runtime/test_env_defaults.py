"""The bare minimum a third-party :class:`RuntimeEnv` engine provides.

The fake engine below implements only the abstract methods; its timer
must satisfy the :class:`TimerHandle` protocol that protocols rely on.
"""

from repro.runtime.env import RuntimeEnv, TimerHandle


class _FakeTimer:
    def __init__(self, time, callback):
        self.time_ = time
        self.callback = callback
        self._cancelled = False

    @property
    def time(self):
        return self.time_

    @property
    def cancelled(self):
        return self._cancelled

    def cancel(self):
        self._cancelled = True


class _FakeEnv(RuntimeEnv):
    """Deliberately bare engine: only the abstract minimum, no overrides."""

    def __init__(self):
        self.pid = 0
        self.n = 1
        self.storage = None
        self.trace = None
        self.clock = 0.0
        self.timers = []

    @property
    def now(self):
        return self.clock

    @property
    def alive(self):
        return True

    @property
    def crash_count(self):
        return 0

    @property
    def tracer(self):
        return None

    def send(self, dst, payload, *, kind="app", latency=None):
        raise NotImplementedError

    def broadcast(self, payload, *, kind="token", include_self=False):
        raise NotImplementedError

    def schedule_after(self, delay, callback, *, label=""):
        timer = _FakeTimer(self.clock + delay, callback)
        self.timers.append(timer)
        return timer

    def attach(self, protocol):
        raise NotImplementedError


def test_timer_handle_protocol_matches_fake():
    # _FakeEnv instantiates, so it implements every abstract method, and
    # schedule_after is the one timer primitive it had to provide.
    handle = _FakeEnv().schedule_after(1.0, lambda: None)
    assert isinstance(handle, TimerHandle) and handle.time == 1.0
