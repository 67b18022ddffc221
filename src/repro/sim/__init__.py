"""Message-passing simulation substrate (engine, channels, schedulers, faults)."""

from .channel import Channel, ChannelStats
from .engine import Context, Engine, EngineState
from .network import Network
from .observers import (
    ChannelStatsObserver,
    InvariantObserver,
    NullObserver,
    Observer,
    TraceObserver,
)
from .process import Process
from .rng import derive_seed, make_rng, spawn
from .scheduler import (
    FunctionScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    ScriptedScheduler,
    WeightedScheduler,
)
from .trace import Trace, TraceEvent

__all__ = [
    "Channel",
    "ChannelStats",
    "Context",
    "Engine",
    "EngineState",
    "Network",
    "Observer",
    "NullObserver",
    "TraceObserver",
    "InvariantObserver",
    "ChannelStatsObserver",
    "Process",
    "derive_seed",
    "make_rng",
    "spawn",
    "FunctionScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "ScriptedScheduler",
    "WeightedScheduler",
    "Trace",
    "TraceEvent",
]
