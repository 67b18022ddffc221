"""Shared fixtures: canonical trees, parameters, and engine builders."""

import signal

import pytest

from repro import KLParams, RandomScheduler, SaturatedWorkload
from repro.core.selfstab import build_selfstab_engine
from repro.spec import (
    FaultSpec,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.topology import (
    balanced_tree,
    paper_example_tree,
    paper_livelock_tree,
    path_tree,
    random_tree,
    star_tree,
)


@pytest.fixture
def paper_tree():
    """The 8-process tree of Figs. 1, 2 and 4 (r a b c d e f g = 0..7)."""
    return paper_example_tree()


@pytest.fixture
def livelock_tree():
    """The 3-process tree of Fig. 3."""
    return paper_livelock_tree()


@pytest.fixture(params=["paper", "path", "star", "balanced", "random"])
def any_tree(request):
    """A representative family of tree shapes (n between 5 and 13)."""
    return {
        "paper": paper_example_tree(),
        "path": path_tree(6),
        "star": star_tree(7),
        "balanced": balanced_tree(2, 2),
        "random": random_tree(13, seed=5),
    }[request.param]


def make_params(tree, k=2, l=3, cmax=2):
    """KLParams for a given tree."""
    return KLParams(k=k, l=l, n=tree.n, cmax=cmax)


def saturated_engine(tree, params, *, seed=0, cs_duration=2, init="empty", seam="consistent"):
    """Self-stabilizing engine under a saturated mixed-need workload."""
    apps = [
        SaturatedWorkload(need=1 + p % params.k, cs_duration=cs_duration)
        for p in range(tree.n)
    ]
    engine = build_selfstab_engine(
        tree, params, apps, RandomScheduler(tree.n, seed=seed), init=init, seam=seam
    )
    return engine, apps


def t1_spec(tree, *, k=2, l=3, cmax=2, seed=0, scramble=True):
    """Experiment T1, the CLI's ``converge`` scenario, on ``tree`` (a
    topology spec string such as ``path:n=5``): saturated requests of
    ``1 + pid % k`` units, a scrambled start unless ``scramble=False``,
    random scheduler."""
    return ScenarioSpec(
        topology=TopologySpec.parse(tree),
        variant="selfstab",
        k=k,
        l=l,
        cmax=cmax,
        workload=WorkloadSpec("saturated", {"cs_duration": 2}),
        faults=(FaultSpec("scramble"),) if scramble else (),
        scheduler=SchedulerSpec("random"),
        seed=seed,
    )


def t2_spec(tree, *, k=2, l=3, cmax=2, seed=0, needs=None):
    """Experiment T2, the CLI's ``wait`` scenario, on ``tree``: a
    legitimate start, saturated single-unit requests (``needs[p]`` units
    for process ``p`` when given), random scheduler."""
    return ScenarioSpec(
        topology=TopologySpec.parse(tree),
        variant="selfstab",
        k=k,
        l=l,
        cmax=cmax,
        workload=WorkloadSpec("saturated", {"need": 1, "cs_duration": 1}),
        workload_overrides=tuple(
            (pid, WorkloadSpec("saturated", {"need": need, "cs_duration": 1}))
            for pid, need in enumerate(needs or ())
        ),
        scheduler=SchedulerSpec("random"),
        seed=seed,
        variant_options={"init": "tokens"},
    )


@pytest.fixture
def time_limit():
    """Fail a multi-process scenario that stops returning instead of
    hanging the suite: SIGALRM interrupts the parent's wait after 120 s
    (forked workers do not inherit the alarm)."""
    def expire(signum, frame):
        # pytest.fail raises a BaseException: no ``except Exception`` or
        # ``except OSError`` on the interrupted wait can swallow it
        pytest.fail("multi-process scenario exceeded its 120 s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
