"""Owner-computes distributed exploration: partition algebra, the
disk-backed shard store, serial-identity differentials, repartitioning
identity, and checkpoint/resume (including kill -9 mid-campaign).

The load-bearing claim is the ownership invariant: every packed digest
has exactly one owning shard, so per-shard dedup is *exact* — no
parent-side authority — and the per-level new-state sets (hence every
count the result reports) are independent of the worker count, the
memory budget, and checkpoint/resume boundaries.
"""

import errno
import hashlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KLParams, RoundRobinScheduler, SaturatedWorkload
from repro.analysis import CampaignError, fork_available, safety_ok
from repro.analysis.distributed import (
    CheckpointError,
    ShardStore,
    explore_owner,
    owner_of,
    read_manifest,
    write_manifest,
)
from repro.analysis.distributed import owner as owner_mod
from repro.analysis.distributed import store as store_mod
from repro.analysis.explore import explore
from repro.apps.interface import RequestRecord
from repro.core.naive import build_naive_engine
from repro.core.selfstab import build_selfstab_engine
from repro.sim.array_engine import ArrayEngine
from repro.topology import path_tree

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)


def naive_engine(n=4, k=1, l=2):
    tree = path_tree(n)
    params = KLParams(k=k, l=l, n=n)
    apps = [SaturatedWorkload(1, cs_duration=0) for _ in range(n)]
    return build_naive_engine(tree, params, apps), params


def selfstab_engine(n=5):
    tree = path_tree(n)
    params = KLParams(k=2, l=3, n=n)
    apps = [SaturatedWorkload(1 + p % params.k, cs_duration=0)
            for p in range(n)]
    engine = build_selfstab_engine(
        tree, params, apps, RoundRobinScheduler(n), init="tokens"
    )
    return engine, params


def invariant_for(params):
    def inv(e):
        return safety_ok(e, params) or "unsafe"
    return inv


def fields(res):
    """Everything the serial-identity contract covers (not throughput)."""
    return (res.configurations, res.transitions, res.exhausted,
            res.violation, res.frontier_sizes)


def on_backend(eng, backend):
    return ArrayEngine.from_engine(eng) if backend == "array" else eng


#: worker counts for the owner differentials; above 1 they fork
WORKER_COUNTS = [
    1,
    pytest.param(2, marks=needs_fork),
    pytest.param(4, marks=needs_fork),
]


def full_disk_open(real_open, run_dir, nth):
    """An ``open`` for the store module whose ``nth`` run-file write in
    ``run_dir`` (counted per process) writes half its first chunk and
    then fails with ENOSPC."""
    opened = [0]

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def open_(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if (mode == "wb" and os.path.dirname(path) == run_dir
                and os.path.basename(path).startswith("run-")):
            opened[0] += 1
            if opened[0] == nth:
                return FullDisk(fh)
        return fh

    return open_


def digests(n, salt=b""):
    """n distinct deterministic 16-byte digests."""
    return [
        hashlib.blake2b(salt + str(i).encode(), digest_size=16).digest()
        for i in range(n)
    ]


#: 16-byte digests over a four-byte alphabet, so stored digests share
#: long prefixes and the window straddling two of them sorts near both
NEAR_DIGESTS = st.lists(
    st.sampled_from(b"\x00\x01\x7f\xff"), min_size=16, max_size=16
).map(bytes)

#: ShardStore operation scripts: adds, explicit spills and compactions
#: (budget-driven ones happen inside ``add``), checkpoint/restore
STORE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.lists(NEAR_DIGESTS | st.binary(min_size=16, max_size=16),
                     max_size=120),
        ),
        st.tuples(st.sampled_from(["spill", "compact", "restore"]),
                  st.none()),
    ),
    min_size=1,
    max_size=10,
)


def store_probes(store, ref):
    """The stored digests plus the probes that stress a run's fences."""
    size = store_mod.DIGEST_SIZE
    probes = set(ref)
    for run in store._runs:
        data = bytes(run._map)
        probes.update(run.fences)
        probes.update((data[:size], data[-size:]))
        # every window straddling two adjacent digests of the run
        probes.update(data[o : o + size]
                      for o in range(size // 2, len(data) - size, size))
    for d in list(probes):
        for delta in (1, 255):
            probes.add(d[:-1] + bytes([(d[-1] + delta) % 256]))
    return probes


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    @given(
        digest=st.binary(min_size=16, max_size=16),
        shards=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_digest_has_exactly_one_owner(self, digest, shards):
        part = owner_of(shards)
        owner = part(digest)
        assert isinstance(owner, int)
        assert 0 <= owner < shards
        # Ownership is a (deterministic) function: re-asking never moves
        # a digest, and a fresh map agrees — the property workers rely
        # on to dedup without coordination.
        assert part(digest) == owner
        assert owner_of(shards)(digest) == owner
        assert owner == int.from_bytes(digest[:8], "big") % shards

    def test_single_shard_owns_everything(self):
        part = owner_of(1)
        assert all(part(d) == 0 for d in digests(64))

    def test_topbits_spreads_across_shards(self):
        part = owner_of(4)
        owners = {part(d) for d in digests(512)}
        assert owners == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# ShardStore
# ----------------------------------------------------------------------
class TestShardStore:
    def test_add_and_membership_in_ram(self):
        store = ShardStore()
        ds = digests(100)
        assert all(store.add(d) for d in ds)
        assert all(not store.add(d) for d in ds)  # exact dedup
        assert len(store) == 100
        assert all(d in store for d in ds)
        assert digests(1, salt=b"x")[0] not in store
        assert store.disk_bytes() == 0 and store.run_count == 0
        store.close()

    def test_budget_forces_spill_and_bounds_ram(self, tmp_path):
        store = ShardStore(mem_budget=2048, spill_dir=str(tmp_path))
        ds = digests(2000)
        for d in ds:
            store.add(d)
        assert store.run_count > 0
        assert store.disk_bytes() > 0
        assert len(store) == 2000
        # Spilled digests stay members, and dedup still holds through
        # the filter + binary-search path.
        assert all(d in store for d in ds)
        assert all(not store.add(d) for d in ds)
        # The RAM set itself stays under the spill threshold.
        assert len(store._ram) < max(16, 2048 // 72) + 1
        store.close()

    def test_compaction_bounds_run_count(self, tmp_path):
        store = ShardStore(
            mem_budget=2048, spill_dir=str(tmp_path), max_runs=3
        )
        ds = digests(3000)
        for d in ds:
            store.add(d)
        assert store.run_count <= 3
        assert len(store) == 3000
        assert all(d in store for d in ds)
        store.close()

    def test_checkpoint_restore_round_trip(self, tmp_path):
        src = tmp_path / "ckpt"
        store = ShardStore(mem_budget=2048, spill_dir=str(src))
        ds = digests(1500)
        for d in ds:
            store.add(d)
        fragment = store.checkpoint(str(src), tag=0)
        assert fragment["count"] == 1500
        restored = ShardStore.restore(str(src), fragment, mem_budget=2048)
        assert len(restored) == 1500
        assert all(d in restored for d in ds)
        # The restored store keeps spilling into the same directory with
        # fresh sequence numbers.
        extra = digests(500, salt=b"extra")
        assert all(restored.add(d) for d in extra)
        assert len(restored) == 2000
        store.close()
        restored.close()

    def test_restore_rejects_corrupt_count(self, tmp_path):
        src = tmp_path / "ckpt"
        store = ShardStore(mem_budget=1024, spill_dir=str(src))
        for d in digests(600):
            store.add(d)
        fragment = store.checkpoint(str(src), tag=0)
        fragment["count"] += 1
        with pytest.raises(ValueError):
            ShardStore.restore(str(src), fragment, mem_budget=1024)
        store.close()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="lists open files via /proc"
    )
    @pytest.mark.parametrize("corrupt", ["count", "run_count", "run_size"])
    def test_rejected_restore_leaves_no_run_open(self, tmp_path, corrupt):
        """A restore that rejects its fragment closes every run file (and
        the mapping's descriptor) it had already opened."""
        src = tmp_path / "ckpt"
        store = ShardStore(mem_budget=1024, spill_dir=str(src))
        for d in digests(600):
            store.add(d)
        fragment = store.checkpoint(str(src), tag=0)
        store.close()
        assert len(fragment["runs"]) > 2
        if corrupt == "count":
            fragment["count"] += 1
        elif corrupt == "run_count":
            fragment["runs"][-1]["count"] += 1
        else:
            with open(src / fragment["runs"][-1]["file"], "ab") as fh:
                fh.write(b"\0" * 3)
        root = os.path.realpath(src) + os.sep

        def open_here():
            found = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:
                    continue
                if target.startswith(root):
                    found.append(target)
            return found

        # looked at while the exception (and so the half-restored store
        # in its traceback) is alive: garbage collection must not be
        # what closes the runs
        try:
            ShardStore.restore(str(src), fragment, mem_budget=1024)
        except ValueError:
            still_open = open_here()
        else:
            pytest.fail("restore accepted a fragment its files disagree with")
        assert still_open == []

    @pytest.mark.parametrize("op", ["spill", "compact"])
    def test_full_disk_deletes_the_partial_run_and_names_the_fix(
        self, tmp_path, monkeypatch, op
    ):
        run_dir = str(tmp_path)
        store = ShardStore(mem_budget=2048, spill_dir=run_dir)
        ds = digests(60)  # two spills of 28 digests, 4 left in RAM
        for d in ds:
            store.add(d)
        assert store.run_count == 2
        before = sorted(os.listdir(run_dir))
        monkeypatch.setattr(
            store_mod, "open", full_disk_open(open, run_dir, 1),
            raising=False,
        )
        with pytest.raises(OSError) as exc:
            if op == "spill":
                store.spill()
            else:
                store.compact()
        assert exc.value.errno == errno.ENOSPC
        assert run_dir in str(exc.value)
        assert "free space there" in str(exc.value)
        assert "--mem-budget" in str(exc.value)
        # the partial run is gone; the store still answers for every digest
        assert sorted(os.listdir(run_dir)) == before
        assert store.run_count == 2 and all(d in store for d in ds)
        store.close()

    def test_unbudgeted_store_never_spills(self):
        store = ShardStore()
        for d in digests(5000):
            store.add(d)
        assert store.run_count == 0 and store.disk_bytes() == 0
        store.close()

    @given(ops=STORE_OPS, spill_at=st.sampled_from([16, 40, 100]))
    @settings(max_examples=60, deadline=None)
    def test_membership_matches_a_reference_set(self, ops, spill_at):
        """``add`` and ``in`` answer as a plain set does, through spills,
        compactions and checkpoint/restore, on the probes that stress
        the fence index: every fence, each run's first and last digest,
        last-byte neighbours, and every 16-byte window straddling two
        adjacent stored digests (absent unless stored in its own right).
        An 8-bit prefix filter passes nearly every probe to the runs,
        and a four-byte alphabet makes straddling windows sort into the
        block that holds them."""
        ref: set[bytes] = set()
        with tempfile.TemporaryDirectory() as tmp:
            kw = {"mem_budget": spill_at * 72, "filter_bits": 8, "max_runs": 3}
            store = ShardStore(spill_dir=tmp, **kw)
            try:
                for level, (op, batch) in enumerate(ops):
                    if op == "add":
                        for d in batch:
                            assert store.add(d) == (d not in ref)
                            ref.add(d)
                    elif op == "spill":
                        store.spill()
                    elif op == "compact":
                        store.compact()
                    else:
                        fragment = store.checkpoint(tmp, tag=level)
                        store.close()
                        store = ShardStore.restore(tmp, fragment, **kw)
                    assert len(store) == len(ref)
                    for probe in store_probes(store, ref):
                        assert (probe in store) == (probe in ref), probe.hex()
            finally:
                store.close()


# ----------------------------------------------------------------------
# Owner-computes vs serial differential
# ----------------------------------------------------------------------
class TestOwnerDifferential:
    def test_single_shard_matches_serial(self):
        eng, params = naive_engine()
        serial = explore(eng, invariant_for(params), max_depth=8)
        owned = explore_owner(eng, invariant_for(params), max_depth=8,
                              workers=1)
        assert fields(owned) == fields(serial)

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 4])
    def test_multi_shard_matches_serial(self, workers):
        eng, params = naive_engine()
        serial = explore(eng, invariant_for(params), max_depth=8)
        owned = explore_owner(eng, invariant_for(params), max_depth=8,
                              workers=workers)
        assert fields(owned) == fields(serial)

    @needs_fork
    def test_tiny_budget_spills_and_stays_identical(self, tmp_path):
        eng, params = naive_engine(n=5)
        serial = explore(eng, invariant_for(params), max_depth=10)
        owned = explore_owner(
            eng, invariant_for(params), max_depth=10, workers=2,
            mem_budget=2048, spill_dir=str(tmp_path),
        )
        assert owned.peak_disk_bytes > 0  # the budget really spilled
        assert fields(owned) == fields(serial)

    @pytest.mark.parametrize("backend", ["object", "array"])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_violation_depth_and_message_match_serial(self, workers, backend):
        """Above one worker, violating children are also built for
        their owner by another shard (the build step), and must report
        the serial depth and message all the same."""
        eng, params = naive_engine(n=3, k=1, l=1)
        for p in range(3):
            eng.step_pid(p, -1)
        eng = on_backend(eng, backend)

        def inv(e):
            return e.total_cs_entries == 0 or "someone entered the CS"

        serial = explore(eng, inv, max_depth=8)
        owned = explore_owner(eng, inv, max_depth=8, workers=workers)
        assert not owned.ok
        assert owned.violation == serial.violation

    @pytest.mark.parametrize("backend", ["object", "array"])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_invariant_runs_once_per_configuration(self, workers, backend):
        """A shard judges a foreign child only once its owner accepted
        it: summed over every process, the invariant runs once per
        configuration, as in the serial search."""
        def counted():
            eng, params = naive_engine(n=5)
            safe = invariant_for(params)
            calls = multiprocessing.Value("i", 0)  # shared through the fork

            def inv(e):
                with calls.get_lock():
                    calls.value += 1
                return safe(e)

            return on_backend(eng, backend), inv, calls

        eng, inv, serial_calls = counted()
        serial = explore(eng, inv, max_depth=10)
        eng, inv, calls = counted()
        owned = explore_owner(eng, inv, max_depth=10, workers=workers)
        assert fields(owned) == fields(serial)
        assert calls.value == owned.configurations == serial_calls.value

    def test_explore_routes_distributed_keyword(self):
        eng, params = naive_engine()
        serial = explore(eng, invariant_for(params), max_depth=8)
        routed = explore(eng, invariant_for(params), max_depth=8,
                         distributed=True, workers=1)
        assert fields(routed) == fields(serial)

    def test_explore_rejects_distributed_por(self):
        eng, params = naive_engine()
        with pytest.raises(ValueError):
            explore(eng, invariant_for(params), max_depth=4,
                    distributed=True, por=True)

    @needs_fork
    @pytest.mark.slow
    def test_selfstab_repartitioning_is_identity(self):
        """Re-exploring under a different worker count (a different
        digest→owner map) must reproduce identical totals — the
        satellite's repartitioning claim, on selfstab n=5."""
        eng, params = selfstab_engine(n=5)
        runs = [
            explore_owner(eng.fork(), invariant_for(params), max_depth=6,
                          workers=w)
            for w in (1, 2, 4)
        ]
        assert fields(runs[0]) == fields(runs[1]) == fields(runs[2])
        serial = explore(eng.fork(), invariant_for(params), max_depth=6)
        assert fields(runs[0]) == fields(serial)


# ----------------------------------------------------------------------
# Worker failures
# ----------------------------------------------------------------------
@needs_fork
@pytest.mark.usefixtures("time_limit")
class TestWorkerFailures:
    """A worker that dies fails the campaign as a ``CampaignError``
    naming its shard — never a raw pipe error — and no worker process
    outlives the call.  (A worker that raises: ``test_parallel.py``,
    ``TestPersistentPool``.)"""

    @staticmethod
    def new_children(before):
        return [p for p in multiprocessing.active_children()
                if p.pid not in before]

    def test_worker_killed_between_levels(self):
        eng, params = naive_engine(n=5)
        before = {p.pid for p in multiprocessing.active_children()}
        killed = []

        def progress(ev):
            if not killed and "depth 2:" in ev.note:
                victim = self.new_children(before)[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                killed.append(victim.pid)

        with pytest.raises(CampaignError) as exc:
            explore(eng, invariant_for(params), max_depth=8, workers=2,
                    progress=progress)
        assert killed
        [failure] = exc.value.failures
        assert "worker unreachable" in failure.error
        assert self.new_children(before) == []

    def test_failed_campaign_resumes_to_serial_counts(self, tmp_path):
        """The last manifest a killed campaign published resumes to the
        serial search's counts."""
        eng, params = naive_engine(n=5)
        inv = invariant_for(params)
        serial = explore(eng, inv, max_depth=8)
        ckpt = str(tmp_path / "ckpt")
        before = {p.pid for p in multiprocessing.active_children()}
        killed = []

        def progress(ev):
            if not killed and "depth 2:" in ev.note:
                victim = self.new_children(before)[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                killed.append(victim.pid)

        with pytest.raises(CampaignError):
            explore(eng, inv, max_depth=8, workers=2, checkpoint_dir=ckpt,
                    checkpoint_every=1, progress=progress)
        assert killed and read_manifest(ckpt)["progress"]["level"] == 1
        resumed = explore(eng, inv, resume_dir=ckpt)
        assert (resumed.configurations, resumed.transitions,
                resumed.frontier_sizes, resumed.exhausted) == (
            serial.configurations, serial.transitions,
            serial.frontier_sizes, serial.exhausted,
        )

    @pytest.mark.parametrize("step,level", [("claim", 1), ("build", 2)])
    def test_worker_killed_serving_claim_or_build(
        self, tmp_path, monkeypatch, step, level
    ):
        """SIGKILL shard 1 as it starts serving its third claim (the
        root's, then levels 1 and 2) or third build (levels 1-3)
        request: a CampaignError names the shard, no worker is left, and
        the last manifest resumes to the serial counts."""
        eng, params = naive_engine(n=5)
        inv = invariant_for(params)
        serial = explore(eng, inv, max_depth=8)
        ckpt = str(tmp_path / "ckpt")
        before = {p.pid for p in multiprocessing.active_children()}
        parent = os.getpid()
        served = multiprocessing.Value("i", 0)  # shared through the fork
        real = getattr(owner_mod._OwnerWorker, step)

        def dying(worker, *args):
            if os.getpid() != parent and worker.rank == 1:
                with served.get_lock():
                    served.value += 1
                    third = served.value == 3
                if third:
                    os.kill(os.getpid(), signal.SIGKILL)
            return real(worker, *args)

        monkeypatch.setattr(owner_mod._OwnerWorker, step, dying)
        with pytest.raises(CampaignError) as exc:
            explore(eng, inv, max_depth=8, workers=2, checkpoint_dir=ckpt,
                    checkpoint_every=1)
        monkeypatch.undo()
        [failure] = exc.value.failures
        assert failure.shard == 1
        assert "worker exited without replying" in failure.error
        assert "shard 1:" in str(exc.value)
        assert self.new_children(before) == []
        assert read_manifest(ckpt)["progress"]["level"] == level
        resumed = explore(eng, inv, resume_dir=ckpt)
        assert (resumed.configurations, resumed.transitions,
                resumed.frontier_sizes, resumed.exhausted) == (
            serial.configurations, serial.transitions,
            serial.frontier_sizes, serial.exhausted,
        )

    def test_full_disk_during_spill_names_the_fix(self, tmp_path, monkeypatch):
        """ENOSPC on shard 1's third spill fails the campaign with the
        errno, the shard directory and the fix, and deletes the partial
        run file; no worker is left."""
        shard_dir = str(tmp_path / "shard1")
        monkeypatch.setattr(
            store_mod, "open", full_disk_open(open, shard_dir, 3),
            raising=False,
        )
        eng, params = naive_engine(n=5)
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(CampaignError) as exc:
            explore(eng, invariant_for(params), max_depth=10, workers=2,
                    mem_budget=2048, spill_dir=str(tmp_path))
        [failure] = exc.value.failures
        assert failure.shard == 1
        assert failure.error.startswith("OSError: [Errno 28] ")
        assert "run-000002.bin" in failure.error
        assert shard_dir in failure.error
        assert "--mem-budget" in failure.error
        assert "run-000002.bin" not in os.listdir(shard_dir)
        assert self.new_children(before) == []

    def test_worker_killed_mid_level(self):
        eng, params = naive_engine(n=5)
        before = {p.pid for p in multiprocessing.active_children()}
        parent = os.getpid()
        fired = multiprocessing.Value("i", 0)  # shared through the fork
        safe = invariant_for(params)

        def inv(e):
            if os.getpid() != parent and e.now >= 3:
                with fired.get_lock():
                    first = fired.value == 0
                    fired.value = 1
                if first:
                    os.kill(os.getpid(), signal.SIGKILL)
            return safe(e)

        with pytest.raises(CampaignError) as exc:
            explore(eng, inv, max_depth=8, workers=2)
        [failure] = exc.value.failures
        assert "worker exited without replying" in failure.error
        assert self.new_children(before) == []

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
        reason="reads worker pids from /proc/PID/task/PID/children",
    )
    def test_parent_kill_releases_workers(self):
        """SIGKILL the CLI parent mid-campaign: its orphaned workers
        must see their pipes close and exit, not wait forever."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
             env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "explore", "--variant", "naive",
             "--tree", "path", "--n", "7", "--k", "2", "--l", "3",
             "--max-depth", "40", "--workers", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"

        def alive(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        workers = []
        try:
            deadline = time.monotonic() + 60
            while (len(workers) < 2 and proc.poll() is None
                   and time.monotonic() < deadline):
                with open(children) as fh:
                    workers = [int(pid) for pid in fh.read().split()]
                time.sleep(0.02)
        finally:
            # never leave the (long) campaign running, whatever happened
            proc.kill()
            proc.wait(timeout=30)
        assert len(workers) == 2, "the campaign never forked its workers"
        deadline = time.monotonic() + 30
        while any(alive(w) for w in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [w for w in workers if alive(w)]
        for w in left:
            os.kill(w, signal.SIGKILL)
        assert left == [], "orphaned workers outlived their parent"


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_finished_campaign_short_circuits_to_stored_result(
        self, tmp_path
    ):
        eng, params = naive_engine()
        ckpt = str(tmp_path / "ckpt")
        first = explore_owner(eng, invariant_for(params), max_depth=8,
                              workers=1, checkpoint_dir=ckpt)
        man = read_manifest(ckpt)
        assert man["progress"]["complete"]
        resumed = explore_owner(eng, invariant_for(params),
                                resume_dir=ckpt)
        assert fields(resumed) == fields(first)
        # The stored result never re-enters the search loop.
        assert resumed.states_per_sec == 0.0

    def test_depth_extension_resumes_from_stored_frontier(self, tmp_path):
        eng, params = naive_engine()
        full = explore(eng, invariant_for(params), max_depth=10)
        ckpt = str(tmp_path / "ckpt")
        explore_owner(eng, invariant_for(params), max_depth=5, workers=1,
                      checkpoint_dir=ckpt, checkpoint_every=1)
        deeper = explore_owner(eng, invariant_for(params), max_depth=10,
                               resume_dir=ckpt)
        assert fields(deeper) == fields(full)

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_resume_from_a_frontier_pickled_with_tuple_ledgers(
        self, tmp_path, backend
    ):
        """Builds before request records were values pickled every
        ledger record as a plain 6-tuple.  Such an object-backend
        frontier resumes to the serial counts (the records are re-encoded
        on restore); an array frontier holds no ledger and resumes as
        before."""
        eng, params = naive_engine()
        full = explore(eng, invariant_for(params), max_depth=10)
        eng = on_backend(eng, backend)
        ckpt = str(tmp_path / "ckpt")
        explore_owner(eng, invariant_for(params), max_depth=5, workers=1,
                      checkpoint_dir=ckpt, checkpoint_every=1)
        (shard,) = read_manifest(ckpt)["shards"]
        blob = os.path.join(ckpt, shard["dir"], shard["frontier"])
        with open(blob, "rb") as fh:
            states = pickle.load(fh)
        records = 0
        if backend == "object":
            for state in states:
                apps = []
                for snap in state.apps:
                    assert all(type(r) is RequestRecord for r in snap[0])
                    records += len(snap[0])
                    apps.append((tuple(map(tuple, snap[0])),) + snap[1:])
                state.apps = tuple(apps)
            with open(blob, "wb") as fh:
                pickle.dump(states, fh)
        else:
            assert all(type(state) is tuple for state in states)
        assert (records > 0) == (backend == "object")
        deeper = explore_owner(eng, invariant_for(params), max_depth=10,
                               resume_dir=ckpt)
        assert fields(deeper) == fields(full)

    def test_resume_rejects_conflicting_workers(self, tmp_path):
        eng, params = naive_engine()
        ckpt = str(tmp_path / "ckpt")
        explore_owner(eng, invariant_for(params), max_depth=4, workers=1,
                      checkpoint_dir=ckpt)
        with pytest.raises(CheckpointError):
            explore_owner(eng, invariant_for(params), resume_dir=ckpt,
                          workers=3)

    def test_resume_rejects_foreign_partitioner_manifest(self, tmp_path):
        """Manifests no longer name their ownership map, but older ones
        do: one naming ``topbits``, the only map, still resumes; any
        other name raises, since its shard files only mean something
        under the map that wrote them."""
        eng, params = naive_engine()
        full = explore(eng, invariant_for(params), max_depth=6)
        ckpt = str(tmp_path / "ckpt")
        explore_owner(eng, invariant_for(params), max_depth=3, workers=1,
                      checkpoint_dir=ckpt)
        campaign = read_manifest(ckpt)["campaign"]
        assert "partitioner" not in campaign
        assert "partitioner_args" not in campaign

        def stamp(name):
            doc = read_manifest(ckpt)
            doc["campaign"].update(partitioner=name, partitioner_args={})
            write_manifest(ckpt, doc)

        stamp("modhash")
        with pytest.raises(CheckpointError, match="'modhash'"):
            explore_owner(eng, invariant_for(params), max_depth=6,
                          resume_dir=ckpt)
        stamp("topbits")
        resumed = explore_owner(eng, invariant_for(params), max_depth=6,
                                resume_dir=ckpt)
        assert fields(resumed) == fields(full)

    def test_resume_missing_directory_is_clean_error(self, tmp_path):
        eng, params = naive_engine()
        with pytest.raises(CheckpointError):
            explore_owner(eng, invariant_for(params),
                          resume_dir=str(tmp_path / "absent"))

    @needs_fork
    @pytest.mark.slow
    def test_kill_midcampaign_then_cli_resume_matches_serial(
        self, tmp_path
    ):
        """SIGKILL a checkpointing CLI campaign mid-flight, resume from
        the surviving manifest, and require the final stdout counts to
        be byte-identical to an unconstrained serial run."""
        ckpt = str(tmp_path / "ckpt")
        scenario = [
            "--variant", "naive", "--tree", "path", "--n", "5",
            "--k", "1", "--l", "2", "--max-depth", "10",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
             env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "explore", *scenario,
             "--distributed", "--mem-budget", "2k",
             "--checkpoint", ckpt, "--checkpoint-every", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        manifest = os.path.join(ckpt, "manifest.json")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(manifest) or proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        assert os.path.exists(manifest), "no checkpoint survived the kill"

        run = subprocess.run(
            [sys.executable, "-m", "repro", "explore", "--resume", ckpt],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        serial = subprocess.run(
            [sys.executable, "-m", "repro", "explore", *scenario],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert serial.returncode == 0, serial.stderr

        def counts(out):
            keep = ("configurations", "transitions", "frontier sizes",
                    "exhausted", "violation")
            return [line for line in out.splitlines()
                    if line.split(":")[0].strip() in keep]

        assert counts(run.stdout) == counts(serial.stdout)


# ----------------------------------------------------------------------
# Memory-bound contract
# ----------------------------------------------------------------------
class TestBoundedMemory:
    def test_budgeted_run_reports_resident_below_unbudgeted(self):
        """Same campaign, tiny budget: the resident estimate must drop
        (digests moved to disk) while every count stays identical."""
        eng, params = naive_engine(n=5)
        free = explore_owner(eng, invariant_for(params), max_depth=10,
                             workers=1)
        tight = explore_owner(eng, invariant_for(params), max_depth=10,
                              workers=1, mem_budget=2048)
        assert fields(tight) == fields(free)
        assert tight.peak_disk_bytes > 0
        assert free.peak_disk_bytes == 0
        # Resident RAM-set share: the budgeted run keeps at most the
        # spill threshold in RAM; the prefix filter (128 KiB) is a fixed
        # overhead reported as part of the resident estimate.
        assert tight.peak_seen_bytes - 128 * 1024 < free.peak_seen_bytes
