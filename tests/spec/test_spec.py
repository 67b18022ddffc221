"""ScenarioSpec serialization, determinism, overrides, and building."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import canonical_digest, take_census
from repro.spec import (
    FaultSpec,
    ScenarioBuilder,
    ScenarioSpec,
    SchedulerSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
    scenario_spec,
)


def small_spec(**kw) -> ScenarioSpec:
    defaults = dict(
        topology=TopologySpec("path", {"n": 5}),
        variant="priority",
        k=2,
        l=3,
        cmax=2,
        workload=WorkloadSpec("saturated", {"cs_duration": 2}),
        scheduler=SchedulerSpec("random"),
        seed=3,
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


# ----------------------------------------------------------------------
# Hypothesis strategies over the registry space
# ----------------------------------------------------------------------
@st.composite
def scenario_specs(draw):
    topology = draw(
        st.sampled_from(
            [
                TopologySpec("paper"),
                TopologySpec("livelock"),
                TopologySpec("path", {"n": draw(st.integers(2, 8))}),
                TopologySpec("star", {"n": draw(st.integers(2, 8))}),
                TopologySpec(
                    "random",
                    {"n": draw(st.integers(2, 9)), "seed": draw(st.integers(0, 99))},
                ),
                TopologySpec("caterpillar", {"spine": 3, "legs": 1}),
            ]
        )
    )
    k = draw(st.integers(1, 3))
    l = draw(st.integers(k, 4))
    workload = draw(
        st.sampled_from(
            [
                WorkloadSpec("saturated", {"cs_duration": draw(st.integers(0, 3))}),
                WorkloadSpec("stochastic", {"p": 0.3, "seed": draw(st.integers(0, 9))}),
                WorkloadSpec("oneshot", {"need": 1}),
                WorkloadSpec("idle"),
            ]
        )
    )
    overrides = draw(
        st.sampled_from([(), ((0, WorkloadSpec("hog", {"need": 1})),)])
    )
    variant = draw(st.sampled_from(["naive", "pusher", "priority", "selfstab"]))
    faults = draw(
        st.sampled_from(
            [(), (FaultSpec("scramble"),), (FaultSpec("drop-token"),)]
        )
    )
    if variant != "selfstab":
        faults = ()  # only the self-stabilizing variant tolerates faults
    return ScenarioSpec(
        topology=topology,
        variant=variant,
        k=k,
        l=l,
        cmax=draw(st.integers(0, 3)),
        workload=workload,
        workload_overrides=overrides,
        faults=faults,
        scheduler=draw(
            st.sampled_from(
                [SchedulerSpec("round_robin"), SchedulerSpec("random")]
            )
        ),
        seed=draw(st.integers(0, 2**16)),
        variant_options={"init": "tokens"} if variant == "selfstab" else {},
    )


class TestRoundTrip:
    @given(scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @given(scenario_specs(), st.integers(50, 400))
    @settings(max_examples=25, deadline=None)
    def test_round_tripped_spec_builds_identical_run(self, spec, steps):
        a = spec.build()
        b = ScenarioSpec.from_json(spec.to_json()).build()
        assert canonical_digest(a.engine) == canonical_digest(b.engine)
        a.engine.run(steps)
        b.engine.run(steps)
        assert canonical_digest(a.engine) == canonical_digest(b.engine)
        assert a.engine.total_cs_entries == b.engine.total_cs_entries
        assert take_census(a.engine).as_tuple() == take_census(b.engine).as_tuple()

    def test_indented_json_is_stable(self):
        spec = small_spec()
        text = spec.to_json(indent=2)
        assert ScenarioSpec.from_json(text) == spec
        assert ScenarioSpec.from_json(text).to_json(indent=2) == text


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        d = small_spec().to_dict()
        d["frobnicate"] = 1
        with pytest.raises(SpecError, match="frobnicate"):
            ScenarioSpec.from_dict(d)

    def test_unsupported_version_rejected(self):
        d = small_spec().to_dict()
        d["version"] = 99
        with pytest.raises(SpecError, match="version"):
            ScenarioSpec.from_dict(d)

    def test_missing_topology_rejected(self):
        with pytest.raises(SpecError, match="topology"):
            ScenarioSpec.from_dict({"variant": "naive"})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="invalid spec JSON"):
            ScenarioSpec.from_json("{nope")

    def test_unknown_variant_lists_choices(self):
        with pytest.raises(SpecError, match="naive.*selfstab"):
            small_spec(variant="nope").build()

    def test_bad_provider_arguments_show_signature(self):
        spec = small_spec(topology=TopologySpec("path", {"frob": 3}))
        with pytest.raises(SpecError, match=r"path\("):
            spec.build()

    def test_out_of_range_override_pid_rejected(self):
        spec = small_spec(
            workload_overrides=((17, WorkloadSpec("idle")),)
        )
        with pytest.raises(SpecError, match="17"):
            spec.build()

    def test_unknown_scheduler_kind_rejected(self):
        spec = small_spec(scheduler=SchedulerSpec("chaotic"))
        with pytest.raises(SpecError, match="round_robin"):
            spec.build()


class TestOverride:
    def test_dotted_path_updates_nested_args(self):
        spec = small_spec()
        bigger = spec.override({"topology.args.n": 9, "seed": 11})
        assert bigger.topology.args["n"] == 9
        assert bigger.seed == 11
        # the original is untouched (frozen value semantics)
        assert spec.topology.args["n"] == 5 and spec.seed == 3

    def test_mapping_value_replaces_subtree(self):
        spec = small_spec()
        swapped = spec.override({"topology": {"kind": "star", "args": {"n": 4}}})
        assert swapped.topology == TopologySpec("star", {"n": 4})

    def test_with_seed(self):
        assert small_spec().with_seed(99).seed == 99


class TestParse:
    def test_plain_kind(self):
        assert WorkloadSpec.parse("hog") == WorkloadSpec("hog")

    def test_kv_args_coerce_types(self):
        ws = WorkloadSpec.parse("stochastic:p=0.3,max_need=2,seed=7")
        assert ws == WorkloadSpec(
            "stochastic", {"p": 0.3, "max_need": 2, "seed": 7}
        )

    def test_script_rows(self):
        ws = WorkloadSpec.parse("scripted:script=0/2/3;9/1/2")
        assert ws.args["script"] == [[0, 2, 3], [9, 1, 2]]

    def test_bad_item_rejected(self):
        with pytest.raises(SpecError, match="key=value"):
            WorkloadSpec.parse("saturated:cs_duration")

    def test_empty_kind_rejected(self):
        with pytest.raises(SpecError, match="empty kind"):
            WorkloadSpec.parse(":x=1")


class TestBuild:
    def test_built_scenario_is_complete(self):
        built = small_spec().build()
        assert built.tree.n == 5
        assert built.params.k == 2 and built.params.l == 3
        assert len(built.apps) == 5
        assert built.engine.n == 5
        assert built.invariant(built.engine) is True

    def test_invariant_reports_census_break(self):
        built = small_spec(variant="naive").build()
        # stealing a free token breaks conservation for the naive variant
        from repro.sim.faults import drop_random_token

        assert drop_random_token(built.engine)
        msg = built.invariant(built.engine)
        assert isinstance(msg, str) and "census" in msg

    def test_workload_overrides_take_effect(self):
        from repro.apps.workloads import HogWorkload, SaturatedWorkload

        built = small_spec(
            workload_overrides=((2, WorkloadSpec("hog", {"need": 1})),)
        ).build()
        assert isinstance(built.apps[2], HogWorkload)
        assert isinstance(built.apps[0], SaturatedWorkload)

    def test_saturated_need_defaults_to_paper_mix(self):
        built = small_spec(
            workload=WorkloadSpec("saturated"), k=2
        ).build()
        assert [a.need for a in built.apps] == [1, 2, 1, 2, 1]

    def test_fault_seeds_derive_from_spec_seed(self):
        spec = small_spec(
            variant="selfstab",
            faults=(FaultSpec("scramble"),),
            variant_options={"init": "tokens"},
        )
        a, b = spec.build(), spec.build()
        assert canonical_digest(a.engine) == canonical_digest(b.engine)
        c = spec.with_seed(spec.seed + 1).build()
        assert canonical_digest(a.engine) != canonical_digest(c.engine)

    def test_ring_variant_uses_tree_size_only(self):
        built = small_spec(
            variant="ring", topology=TopologySpec("star", {"n": 5})
        ).build()
        assert built.engine.n == 5

    def test_signature_calls_do_not_grow_with_n(self, monkeypatch):
        """Each provider's signature is computed once, not once per pid:
        a build from a cold cache makes as many ``inspect.signature``
        calls at n=20 as at n=2,000."""
        import importlib
        import inspect

        spec_mod = importlib.import_module("repro.spec.spec")
        real = inspect.signature
        calls = []

        def counting(fn, *args, **kwargs):
            calls.append(fn)
            return real(fn, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting)

        def signature_calls(n):
            spec_mod._signature.cache_clear()
            calls.clear()
            small_spec(topology=TopologySpec("path", {"n": n})).build()
            return len(calls)

        assert 0 < signature_calls(20) == signature_calls(2000)


class TestBuilder:
    def test_fluent_chain_equals_direct_construction(self):
        spec = (
            ScenarioBuilder()
            .variant("priority")
            .topology("path", n=5)
            .params(k=2, l=3, cmax=2)
            .workload("saturated", cs_duration=2)
            .scheduler("random")
            .seed(3)
            .spec()
        )
        assert spec == small_spec()

    def test_topology_required(self):
        with pytest.raises(SpecError, match="topology"):
            ScenarioBuilder().spec()

    def test_builder_build_shortcut(self):
        built = (
            ScenarioBuilder()
            .variant("naive")
            .topology("path", n=3)
            .params(k=1, l=1)
            .workload("idle")
            .build()
        )
        assert built.engine.n == 3


class TestScenarioPresets:
    def test_fig_presets_build(self):
        for name, kwargs in (
            ("fig1-circulation", {}),
            ("fig2-deadlock", {"variant": "naive"}),
            ("fig3-livelock", {"variant": "priority"}),
        ):
            spec = scenario_spec(name, **kwargs)
            assert isinstance(spec, ScenarioSpec)
            built = spec.build()
            assert built.engine.n == built.tree.n

    def test_preset_specs_round_trip(self):
        spec = scenario_spec("fig2-deadlock", variant="pusher")
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(SpecError, match="fig1-circulation"):
            scenario_spec("fig9")


class TestSeedConventions:
    def test_stochastic_workload_follows_spec_seed(self):
        spec = small_spec(
            workload=WorkloadSpec("stochastic", {"p": 0.3, "max_need": 2})
        )
        a = spec.build()
        b = spec.with_seed(spec.seed + 1).build()
        a.engine.run(400)
        b.engine.run(400)
        # different master seeds must drive different arrival streams
        assert canonical_digest(a.engine) != canonical_digest(b.engine)

    def test_explicit_workload_seed_wins(self):
        spec = small_spec(
            workload=WorkloadSpec("stochastic", {"p": 0.3, "seed": 5})
        )
        a = spec.build()
        b = spec.with_seed(spec.seed + 1).build()
        assert a.apps[0].rng.bit_generator.state == b.apps[0].rng.bit_generator.state

    def test_scripted_scheduler_accepts_single_step(self):
        sched = SchedulerSpec.parse("scripted:script=3").build(4, 0)
        assert sched.script == [3]


class TestProviderErrors:
    def test_bad_fault_token_kind_is_spec_error(self):
        spec = small_spec(
            variant="selfstab",
            faults=(FaultSpec("drop-token", {"kind": "bogus"}),),
            variant_options={"init": "tokens"},
        )
        with pytest.raises(SpecError, match="bogus"):
            spec.build()

    def test_provider_value_error_becomes_spec_error(self):
        spec = small_spec(topology=TopologySpec("path", {"n": 0}))
        with pytest.raises(SpecError, match="n must be >= 1"):
            spec.build()

    def test_provider_internal_type_error_propagates(self):
        # a wrong-*type* argument is a real TypeError from inside the
        # provider, not an arity error — it must not be masked
        spec = small_spec(topology=TopologySpec("path", {"n": "five"}))
        with pytest.raises(TypeError):
            spec.build()


class TestObserverSpecs:
    def _spec(self, *observers):
        from repro.spec import ObserverSpec

        return small_spec(
            observers=tuple(ObserverSpec(k, a) for k, a in observers)
        )

    def test_round_trip_and_omitted_when_empty(self):
        spec = self._spec(("trace", {}), ("safety", {"every": 16}))
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        # observer-free manifests keep the pre-observer schema exactly
        assert "observers" not in small_spec().to_dict()
        assert "observers" in spec.to_dict()

    def test_build_attaches_in_spec_order(self):
        from repro.analysis.invariants import SafetyObserver
        from repro.sim.observers import TraceObserver

        built = self._spec(("trace", {}), ("safety", {"every": 8})).build()
        assert len(built.observers) == 2
        assert isinstance(built.observers[0], TraceObserver)
        assert isinstance(built.observers[1], SafetyObserver)
        assert built.engine.observers == tuple(built.observers)
        built.engine.run(500)
        assert len(built.observers[0].trace) > 0
        assert built.observers[1].checks == 500 // 8
        assert built.observers[1].ok

    def test_unknown_observer_lists_choices(self):
        with pytest.raises(SpecError, match="valid observers"):
            self._spec(("frobnicator", {})).build()

    def test_without_observers(self):
        spec = self._spec(("trace", {}))
        bare = spec.without_observers()
        assert bare.observers == ()
        assert bare.without_observers() == bare
        assert bare == small_spec()

    def test_null_observer_builds_and_registers_nothing(self):
        built = self._spec(("null", {})).build()
        eng = built.engine
        assert len(eng.observers) == 1
        assert not (eng._send_hooks or eng._recv_hooks or eng._step_hooks)

    def test_builder_observe(self):
        spec = (
            ScenarioBuilder()
            .topology("path", n=5)
            .variant("priority")
            .params(k=2, l=3)
            .observe("trace")
            .observe("census", every=32)
            .spec()
        )
        kinds = [o.kind for o in spec.observers]
        assert kinds == ["trace", "census"]
        assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestRingVariantOptions:
    def test_timeout_interval_reaches_the_ring_engine(self):
        spec = small_spec(
            variant="ring",
            variant_options={"timeout_interval": 321, "init": "tokens"},
        )
        built = spec.build()
        assert built.engine.timeout_interval == 321

    def test_selfstab_timeout_interval_still_works(self):
        spec = small_spec(
            variant="selfstab", variant_options={"timeout_interval": 456}
        )
        assert spec.build().engine.timeout_interval == 456

    def test_unknown_ring_option_is_a_spec_error_listing_options(self):
        spec = small_spec(variant="ring", variant_options={"bogus": 1})
        with pytest.raises(SpecError, match="timeout_interval") as exc:
            spec.build()
        assert "init" in str(exc.value)
        assert "bogus" in str(exc.value)
