"""Token census decomposition, and the array backend's native census
against the object census."""

import itertools

import numpy as np
import pytest

import repro.core.messages as messages
from repro.analysis.census import population_correct, take_census
from repro.core.messages import PrioT, ResT
from repro.sim.array_engine import ArrayEngine
from repro.spec import ScenarioSpec
from tests.conftest import make_params, saturated_engine


class TestCensus:
    def test_initial_tokens_counted_free(self, paper_tree):
        params = make_params(paper_tree, l=3)
        engine, _ = saturated_engine(paper_tree, params, init="tokens")
        c = take_census(engine)
        assert c.free_res == 3 and c.reserved_res == 0
        assert c.push == 1 and c.free_prio == 1 and c.held_prio == 0
        assert c.as_tuple() == (3, 1, 1)

    def test_reserved_tokens_counted(self, paper_tree):
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params, init="tokens")
        proc = engine.process(2)
        proc.state = "Req"
        proc.need = 1
        proc._handle_rest(0, ResT())
        c = take_census(engine)
        assert c.reserved_res == 1
        assert c.res == params.l + 1  # we minted one by hand

    def test_held_priority_counted(self, paper_tree):
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params, init="tokens")
        proc = engine.process(3)
        proc.state = "Req"
        proc.need = 1
        proc._handle_priot(0, PrioT())
        assert take_census(engine).held_prio == 1
        assert take_census(engine).prio == 2

    def test_population_correct_predicate(self, paper_tree):
        params = make_params(paper_tree, l=3)
        engine, _ = saturated_engine(paper_tree, params, init="tokens")
        assert population_correct(engine, params)
        engine.network.out_channel(0, 0).push_initial(ResT())
        assert not population_correct(engine, params)

    def test_empty_init_population_zero(self, paper_tree):
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params, init="empty")
        assert take_census(engine).as_tuple() == (0, 0, 0)


# ---------------------------------------------------------------------------
# Native array census vs the object census
# ---------------------------------------------------------------------------

#: every variant the array backend lowers
LOWERABLE = ("naive", "pusher", "priority", "selfstab", "ring")
#: no fault, then every registered fault kind
FAULTS = (None, "scramble", "channel-garbage", "corrupt-process",
          "drop-token", "duplicate-token")
#: run() lengths between samples; before the fourth sample the array
#: rings are doubled, so the last three samples read a grown ring
INCREMENTS = (1, 7, 92, 700, 1500, 4096)
GROW_BEFORE = 3


def _census_spec(variant, fault, seed):
    return ScenarioSpec.from_dict({
        "topology": {"kind": "random", "args": {"n": 9, "seed": seed}},
        "variant": variant,
        "k": 2,
        "l": 4,
        "cmax": 2,
        "workload": {"kind": "saturated", "args": {"cs_duration": 2}},
        "scheduler": {"kind": "random", "args": {"seed": seed}},
        "seed": seed,
        "faults": [] if fault is None else [{"kind": fault, "args": {}}],
        "variant_options": (
            {"init": "tokens"} if variant in ("selfstab", "ring") else {}
        ),
    })


def _sample(engine, params):
    return take_census(engine), population_correct(engine, params)


#: the two run loops and the ring words each one steps through: plain
#: lists below the filter threshold, numpy at or above it
LOOPS = {
    "dense": ({}, list),
    "filtered": ({"filter_threshold": 1}, np.ndarray),
}


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f or "no-fault")
@pytest.mark.parametrize("variant", LOWERABLE)
def test_array_census_matches_object(variant, fault, seed, loop, monkeypatch):
    """``take_census``/``population_correct`` agree across backends at
    every sample: on the ring words each run loop steps through (list
    rings on the dense loop, numpy rings on the filtered one; before
    and after a growth) and on the list rings ``explore_prepare()``
    leaves, which keep every head and wrap-around in place."""
    kwargs, rings = LOOPS[loop]
    spec = _census_spec(variant, fault, seed)

    monkeypatch.setattr(messages, "_uid_counter", itertools.count(1))
    built = spec.build()
    obj, params = built.engine, built.params
    expected = []
    for steps in INCREMENTS:
        obj.run(steps)
        expected.append(_sample(obj, params))

    monkeypatch.setattr(messages, "_uid_counter", itertools.count(1))
    arr = ArrayEngine.from_engine(spec.build().engine, **kwargs)
    cap = arr._cap
    for i, steps in enumerate(INCREMENTS):
        if i == GROW_BEFORE:
            arr._grow_channels()
        arr.run(steps)
        assert isinstance(arr._buf0, rings)
        assert _sample(arr, params) == expected[i], f"run() sample {i}"
        listed = arr.fork()
        listed.explore_prepare()
        assert isinstance(listed._buf0, list)
        assert _sample(listed, params) == expected[i], f"list sample {i}"
    assert arr._cap >= 2 * cap
    # the census read the columns, never a per-process view
    assert not arr.processes._cache
