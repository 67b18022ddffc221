"""Experiment T1 (Theorem 1): self-stabilization from arbitrary configs.

Sweeps tree shape x size, starting each run from a seeded arbitrary
configuration (scrambled local memories + bounded channel garbage), and
reports stabilization step, controller circulations, and resets.  The
paper proves convergence; the regenerated table shows it empirically and
how the time scales with n.
"""


from repro.analysis import run_convergence
from repro.spec import (
    FaultSpec,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
)

#: topology arguments besides ``n`` (the random shape is one fixed tree
#: per size, whatever the run's seed)
SHAPES = {"path": {}, "star": {}, "random": {"seed": 7}}


def one_convergence(shape="random", n=10, seed=0, max_steps=200_000):
    """One T1 run: the ``converge`` scenario, scrambled start."""
    spec = ScenarioSpec(
        topology=TopologySpec(shape, {"n": n, **SHAPES[shape]}),
        variant="selfstab",
        k=2,
        l=4,
        cmax=2,
        workload=WorkloadSpec("saturated", {"cs_duration": 2}),
        faults=(FaultSpec("scramble"),),
        scheduler=SchedulerSpec("random"),
        seed=seed,
    )
    return run_convergence(spec, max_steps=max_steps)


def test_bench_t1_convergence_sweep(benchmark, report):
    rows = []
    for shape in SHAPES:
        for n in (6, 10, 14):
            stabs, circs, resets = [], [], []
            for seed in range(3):
                r = one_convergence(shape, n, seed)
                assert r.converged, f"{shape} n={n} seed={seed}"
                stabs.append(r.stabilization_step)
                circs.append(r.circulations)
                resets.append(r.resets)
            rows.append((
                shape, n,
                sum(stabs) / len(stabs),
                max(stabs),
                sum(resets) / len(resets),
                sum(circs) / len(circs),
            ))
    report(
        "T1 / Theorem 1 — convergence from arbitrary configurations "
        "(k=2, l=4, cmax=2, 3 seeds each)",
        ["shape", "n", "mean stab step", "max stab step",
         "mean resets", "mean circulations"],
        rows,
    )
    # fitted scaling of stabilization time with n, per shape
    from repro.analysis.stats import fit_power_law
    fit_rows = []
    for shape in SHAPES:
        ns = [r[1] for r in rows if r[0] == shape]
        ys = [r[2] for r in rows if r[0] == shape]
        fit = fit_power_law(ns, ys)
        fit_rows.append((shape, round(fit.alpha, 2), round(fit.r2, 3)))
        assert 0.5 < fit.alpha < 3.5  # polynomial, not exponential
    report(
        "T1 — fitted scaling: stabilization step ~ n^alpha",
        ["shape", "alpha", "R^2"],
        fit_rows,
    )
    benchmark.pedantic(one_convergence, kwargs={"n": 8, "max_steps": 60_000},
                       rounds=3, iterations=1)


def test_t1_closure_no_late_violations(report):
    """Safety violations, if any, happen only before stabilization."""
    rows = []
    for seed in range(4):
        r = one_convergence("random", 10, seed)
        ok = (r.safety_clean_from is not None
              and r.safety_clean_from <= (r.stabilization_step or r.steps))
        rows.append((seed, r.safety_clean_from, r.stabilization_step, ok))
        assert r.safety_clean_from is not None
    report(
        "T1 — closure: safety clean-from vs census stabilization (random n=10)",
        ["seed", "safety clean from", "census stable from", "clean <= stable"],
        rows,
    )
