"""Experiment T2 (Theorem 2): waiting time <= l * (2n-3)^2.

Measures the paper's waiting-time metric (CS entries by others between a
request and its satisfaction) under saturated single-unit contention —
the regime of the proof's worst case — and compares with the bound.
The measured values must respect the bound; their growth with n and l
shows the bound's shape (quadratic in n, linear in l) with a large
constant-factor slack, as expected from a worst-case result.
"""


from repro import KLParams
from repro.analysis import run_waiting_time
from repro.analysis.metrics import waiting_time_bound
from repro.spec import ScenarioSpec, SchedulerSpec, TopologySpec, WorkloadSpec
from repro.topology import path_tree


def one_wait(n=6, k=1, l=1, seed=1, measure=40_000, shape="path"):
    """One T2 run: the ``wait`` scenario, legitimate start."""
    spec = ScenarioSpec(
        topology=TopologySpec(shape, {"n": n}),
        variant="selfstab",
        k=k,
        l=l,
        cmax=2,
        workload=WorkloadSpec("saturated", {"need": 1, "cs_duration": 1}),
        scheduler=SchedulerSpec("random"),
        seed=seed,
        variant_options={"init": "tokens"},
    )
    return run_waiting_time(spec, measure_steps=measure)


def test_bench_t2_waiting_sweep(benchmark, report):
    rows = []
    for tname in ("path", "star"):
        for n in (5, 8, 11):
            for k, l in ((1, 1), (2, 3), (3, 5)):
                res = one_wait(n=n, k=k, l=l, shape=tname)
                assert res.within_bound
                rows.append((
                    tname, n, k, l,
                    res.metrics.max_waiting_time,
                    res.bound,
                    res.metrics.max_waiting_time / res.bound,
                ))
    report(
        "T2 / Theorem 2 — measured max waiting time vs bound l(2n-3)^2",
        ["tree", "n", "k", "l", "max wait", "bound", "ratio"],
        rows,
    )
    # fitted growth of measured wait with n (k=1, l=1 series, path):
    # the bound is quadratic; fair-schedule measurements grow ~linearly
    # (each token serves O(n) requesters per lap, but laps overlap).
    from repro.analysis.stats import fit_power_law
    ns = [r[1] for r in rows if r[0] == "path" and r[2] == 1 and r[3] == 1]
    ws = [r[4] for r in rows if r[0] == "path" and r[2] == 1 and r[3] == 1]
    fit = fit_power_law(ns, ws)
    report("T2 — fitted growth: max wait ~ n^alpha (path, k=l=1)",
           ["alpha", "R^2", "bound exponent"],
           [(round(fit.alpha, 2), round(fit.r2, 3), 2.0)])
    assert 0.5 < fit.alpha <= 2.5
    benchmark.pedantic(one_wait, kwargs={"measure": 20_000}, rounds=3, iterations=1)


def test_t2_growth_shape(report):
    """Waiting time grows with n (ring gets longer) and with l under
    single-unit saturation (more tokens can serve others first)."""
    waits_by_n = {}
    for n in (5, 9, 13):
        res = one_wait(n=n, k=1, l=2, measure=60_000)
        waits_by_n[n] = res.metrics.max_waiting_time
    rows = [(n, w, waiting_time_bound(KLParams(k=1, l=2, n=n), n)) for n, w in waits_by_n.items()]
    report("T2 — growth with n (k=1, l=2, path)", ["n", "max wait", "bound"], rows)
    assert waits_by_n[13] > waits_by_n[5]


def test_t2_adversarial_pressure(report):
    """Theorem 2 is a worst-case bound; two adversarial knobs probe it.

    (a) *Speed skew* (slowing one process) does NOT inflate the paper's
    waiting metric: on a path every token crosses the victim, so the
    whole ring is rate-limited and others' CS entries stall too — an
    instructive property of counting waits in CS entries, not steps.
    (b) *Demand skew* (victim requests l units among single-unit
    saturated requesters) does inflate the victim's wait toward the
    bound: every token can serve someone else before the victim's
    priority-token turn comes.
    """
    from repro import KLParams, SaturatedWorkload
    from repro.analysis import collect_metrics, stabilize
    from repro.core.selfstab import build_selfstab_engine
    from repro.sim.scheduler import RandomScheduler, WeightedScheduler

    n = 7
    tree = path_tree(n)
    rows = []

    def run(label, k, l, needs, sched):
        params = KLParams(k=k, l=l, n=n, cmax=2)
        apps = [SaturatedWorkload(needs[p], cs_duration=1) for p in range(n)]
        eng = build_selfstab_engine(tree, params, apps, sched, init="tokens")
        assert stabilize(eng, params, max_steps=3_000_000)
        t0 = eng.now
        eng.run(120_000)
        m = collect_metrics(eng, apps, since_step=t0)
        victim_w = max(apps[n - 1].waiting_times() or [0])
        bound = waiting_time_bound(params, n)
        assert m.max_waiting_time is None or m.max_waiting_time <= bound
        rows.append((label, victim_w, m.max_waiting_time, bound,
                     round(victim_w / bound, 3)))
        return victim_w

    base = run("uniform, all need 1", 1, 2, [1] * n, RandomScheduler(n, seed=3))
    run("victim 100x slower", 1, 2, [1] * n,
        WeightedScheduler([1.0] * (n - 1) + [0.01], seed=3))
    skew = run("victim needs l=3, rest 1", 3, 3, [1] * (n - 1) + [3],
               RandomScheduler(n, seed=3))
    report(
        "T2 — adversarial pressure on the bound (path n=7, victim = last node)",
        ["scenario", "victim max wait", "global max wait", "bound", "victim/bound"],
        rows,
    )
    assert skew > base  # demand skew inflates the victim's wait
