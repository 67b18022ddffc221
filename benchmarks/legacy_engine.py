"""Fossil of the pre-kernel step loop, kept for differential benchmarking.

``LegacyStepEngine`` replays the engine's hot path exactly as it stood
before the kernel/observer split (PR 3 state): one scheduler call per
step, a fresh ``labels`` list per receive scan, ``network.degree()`` /
``network.in_channels()`` accessor calls, ``Channel.__len__``/``pop``
method dispatch, a ``trace.enabled`` property probe per potential
record, and a ``msg.type_name()`` call per send.  It runs on the same
network/process/channel objects as the modern engine (state layout is
unchanged), so the measured ratio isolates precisely what the kernel
refactor removed.

Benchmark-only: never import this from ``src``.  The equivalence test
in ``test_bench_perf_engine.py`` holds a legacy-driven run byte-
identical to a kernel-driven run before any timing is trusted.
"""

from repro.sim.engine import Engine

__all__ = ["LegacyStepEngine", "legacy_view"]


class _DisabledTrace:
    """The pre-refactor engine's default trace: ``enabled`` is a property
    that reads False, so each potential record costs the fossil the same
    probe it cost the historical loop, and nothing is recorded."""

    @property
    def enabled(self):
        return False


class LegacyStepEngine(Engine):
    """The pre-refactor ``step``/``step_pid``/``_send``/``run`` bodies."""

    def _send(self, pid, label, msg):
        self.network.out_channel(pid, label).push(msg)
        name = msg.type_name()
        # (the historical engine used a defaultdict; .get keeps the cost
        # comparable without changing the modern plain-dict state)
        self.sent_by_type[name] = self.sent_by_type.get(name, 0) + 1
        if self.trace.enabled:
            self.trace.record(self.now, pid, "send", (label, msg))

    def step(self):
        self.step_pid(self.scheduler.next_pid(self.now))

    def step_pid(self, pid, channel=None):
        proc = self.processes[pid]
        deg = self.network.degree(pid)
        if deg and channel != -1:
            inch = self.network.in_channels(pid)
            if channel is None:
                start = self._scan[pid]
                labels = [(start + off) % deg for off in range(deg)]
            else:
                labels = [channel % deg]
            for label in labels:
                ch = inch[label]
                if len(ch):
                    msg = ch.pop()
                    self._scan[pid] = (label + 1) % deg
                    if self.trace.enabled:
                        self.trace.record(self.now, pid, "recv", (label, msg))
                    proc.on_message(label, msg)
                    break
        proc.on_local()
        self.now += 1

    def run(self, steps):
        for _ in range(steps):
            self.step()
        return self


def legacy_view(engine: Engine) -> Engine:
    """Re-class ``engine`` so it steps through the fossil loop.

    The legacy loop reads the same attributes the kernel maintains, plus
    the ``trace`` it probes on every send and receive, which the modern
    engine no longer has; the re-classed engine gets a disabled one.
    The engine keeps its configuration; only the stepping code changes.
    """
    engine.__class__ = LegacyStepEngine
    engine.trace = _DisabledTrace()
    return engine
