import concurrent.futures
import ctypes
import sys
import threading
import types

import numpy as np
import pytest

from evprune import encoder
from evprune import lanes as scheduling
from evprune.encoder import encode_dense, encode_masked_dense_oracle, encode_packed, merge_project
from evprune.errors import ValidationError
from evprune.events import EventFrame
from evprune.packing import pack_patches
from evprune.saliency import quantile_mask

from conftest import random_setup, small_config


class FakeBlas:
    """A BLAS thread count behind get and set functions; ``set_to`` records
    each count set, and ``asked`` each lookup of the pair."""

    def __init__(self, threads):
        self.threads, self.set_to, self.asked = threads, [], 0

    def resolve(self):
        self.asked += 1
        return self.get, self.set

    def get(self):
        return self.threads

    def set(self, threads):
        self.set_to.append(threads)
        self.threads = threads


def set_lanes(monkeypatch, cpus):
    """Give a forward up to ``cpus`` lanes: that many CPUs and a BLAS that
    reports one thread. One CPU looks no BLAS up, so a one-lane forward
    leaves BLAS alone there; a multi-lane forward always does. Returns the
    fake BLAS."""
    blas = FakeBlas(1)
    monkeypatch.setattr(scheduling, "_CPUS", cpus)
    monkeypatch.setattr(scheduling, "_blas_threads", blas.resolve)
    return blas


class TestLanes:
    """The forward runs in lanes, threads that each own a share of the rows
    and of the attention blocks. Tier-1 leaves BLAS at its default thread
    count, which gives one lane, so these tests set the lane count through
    the CPU count and a fake BLAS on one thread, which leaves the loaded
    BLAS alone: its count sets the float64 bits, and these tests compare
    lane counts."""

    SIDE = 30  # n = 900: seven attention blocks at small_config's tile, so 3 lanes

    def case(self, seed, **config):
        config = small_config(**config)
        patches, rope, weights = random_setup(self.SIDE, self.SIDE, config, seed=seed)
        scores = np.random.Generator(np.random.PCG64(seed)).random((self.SIDE, self.SIDE))
        return config, patches, rope, weights, quantile_mask(EventFrame(scores), 0.5)

    @pytest.mark.parametrize("block_rows", [None, 1, 2, 3])
    def test_every_lane_count_gives_the_same_bits(self, monkeypatch, block_rows):
        config, patches, rope, weights, mask = self.case(31)
        packed = pack_patches(patches, mask)
        seen, run_lanes = [], scheduling.run
        monkeypatch.setattr(scheduling, "run",
                            lambda lanes, lane: (seen.append(lanes), run_lanes(lanes, lane)))
        for n, run in ((self.SIDE**2, lambda: encode_dense(patches, rope, weights, config)),
                       (len(packed), lambda: encode_packed(packed, rope, weights, config)),
                       (self.SIDE**2, lambda: encode_masked_dense_oracle(
                           patches, rope, mask, weights, config))):
            if block_rows is not None:
                monkeypatch.setattr(encoder, "_TILE_BYTES", block_rows * 8 * config.n_heads * n)
            blocks = -(-n // encoder._block_rows(n, config.n_heads))
            got = []
            for lanes in (1, 2, 3):
                set_lanes(monkeypatch, lanes)
                seen.clear()
                result = run()
                assert seen == [max(1, min(lanes, blocks // 2))]
                got.append((result.tokens.tobytes(), result.kept.tobytes()))
            assert got[1] == got[0] and got[2] == got[0], (n, block_rows)

    def test_every_lane_has_two_attention_blocks(self, monkeypatch):
        seen = []
        set_lanes(monkeypatch, 64)
        monkeypatch.setattr(scheduling, "run", lambda lanes, lane: seen.append(lanes))
        config = small_config()
        for side in (4, 24, self.SIDE):  # 1, 3 and 7 blocks
            encode_dense(*random_setup(side, side, config, seed=33), config)
        assert seen == [1, 1, 3]

    @pytest.mark.parametrize("cpus, count, blocks, lanes", [
        (2, 2, 7, 1),  # BLAS on every CPU, its default
        (2, 1, 7, 2),
        (4, 1, 7, 3),  # a lane gets at least two blocks
        (4, 2, 7, 2),
        (4, 3, 7, 1),
        (4, 4, 7, 1),
        (4, 7, 7, 1),  # a count above the CPUs
        (4, 0, 7, 1),  # no positive count: taken as every CPU, and left alone
        (4, -1, 7, 1),
        (4, 1, 3, 1),
        (4, 1, 1, 1),
        (4, 1, 0, 1),
        (4, 1, 2, 1),  # two blocks: one lane, on a raised BLAS
        (4, 1, 4, 2),
        (4, 1, 5, 2),  # half the blocks, rounded down
        (4, 1, 6, 3),
        (8, 2, 7, 3),
        (8, 3, 7, 2),  # the idle CPUs, rounded down
        (8, 5, 7, 1),
        (3, 2, 7, 1),
        (1, 1, 7, 1),  # one CPU: BLAS is not looked up
        (64, 1, 7, 3),
        (64, 1, 200, 64),
        (64, 2, 200, 32),
    ])
    def test_lane_count_is_the_cpus_blas_leaves_idle(self, monkeypatch, cpus, count, blocks,
                                                      lanes):
        """One reading of BLAS's count gives the lanes and, for one lane on
        fewer threads than CPUs, the raise to every CPU inside the block."""
        blas = FakeBlas(count)
        monkeypatch.setattr(scheduling, "_CPUS", cpus)
        monkeypatch.setattr(scheduling, "_blas_threads", blas.resolve)
        raised = lanes == 1 and 0 < count < cpus
        before = threading.active_count()
        with scheduling.held(blocks) as got:
            assert got == lanes
            assert blas.threads == (cpus if raised else count)
        assert blas.threads == count
        assert blas.set_to == ([cpus, count] if raised else [])
        assert blas.asked == (cpus > 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("lanes, failing", [(2, 1), (3, 1), (3, 0), (3, 2)])
    @pytest.mark.parametrize("call", [1, 4])  # layer 0's queries, layer 1's keys
    def test_an_error_in_one_lane_reaches_the_caller(self, monkeypatch, lanes, failing, call):
        config, patches, rope, weights, _ = self.case(32)
        n = self.SIDE**2
        set_lanes(monkeypatch, lanes)
        rows = encoder._block_rows(n, config.n_heads)
        blocks = -(-n // rows)
        with scheduling.held(blocks) as count:
            first_block = failing * blocks // count
        first = divmod(first_block * rows, self.SIDE)  # the lane's first position
        rotate, calls = encoder.apply_rope_many, []

        def fail_in_one_lane(table, positions, v):
            if tuple(positions[0]) == first:
                calls.append(1)
                if len(calls) == call:
                    raise ValidationError(f"lane {failing} fails")
            return rotate(table, positions, v)

        monkeypatch.setattr(encoder, "apply_rope_many", fail_in_one_lane)
        before = threading.active_count()
        with pytest.raises(ValidationError, match=f"lane {failing} fails"):
            encode_dense(patches, rope, weights, config)
        assert threading.active_count() == before
        monkeypatch.setattr(encoder, "apply_rope_many", rotate)
        again = encode_dense(patches, rope, weights, config).tokens
        set_lanes(monkeypatch, 1)
        assert again.tobytes() == encode_dense(patches, rope, weights, config).tokens.tobytes()

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_lanes_stepped_in_turn_give_the_one_lane_bits(self, monkeypatch, lanes):
        """In place of ``run``, one thread steps each lane to its ``yield`` before
        the next starts, in lane order and then in reverse, round by round. A
        lane that wrote a layer's keys and values while another lane still read
        the layer before's would change that lane's bits."""
        config, patches, rope, weights, mask = self.case(38)
        runs = (lambda: encode_dense(patches, rope, weights, config),
                lambda: encode_masked_dense_oracle(patches, rope, mask, weights, config))
        set_lanes(monkeypatch, 1)
        want = [run().tokens.tobytes() for run in runs]
        seen = []

        def in_turn(count, lane):
            seen.append(count)
            steps = [lane(i) for i in range(count)]
            while any([next(step, False) for step in steps]):
                steps.reverse()

        monkeypatch.setattr(scheduling, "run", in_turn)
        set_lanes(monkeypatch, lanes)
        assert [run().tokens.tobytes() for run in runs] == want
        assert seen == [lanes, lanes]

    @pytest.mark.parametrize("lanes", [2, 3])
    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_a_forward_takes_one_round_per_layer_and_one_more(self, monkeypatch, lanes,
                                                               n_layers):
        """Lanes wait for each other once a layer, after its queries, keys and
        values: one round embeds and projects layer 0, each later round
        attends over one layer and projects the next, and the last attends
        over the last layer."""
        config, patches, rope, weights, mask = self.case(39, n_layers=n_layers)
        rounds, run_lanes = [], scheduling.run

        def run_counting_rounds(count, lane):
            rounds.append(1)  # the round in which the lanes end

            def counted(i):
                for step in lane(i):
                    rounds[-1] += i == 0
                    yield step

            run_lanes(count, counted)

        monkeypatch.setattr(scheduling, "run", run_counting_rounds)
        set_lanes(monkeypatch, lanes)
        encode_dense(patches, rope, weights, config)
        encode_masked_dense_oracle(patches, rope, mask, weights, config)
        assert rounds == [n_layers + 1] * 2

    @pytest.mark.parametrize("lanes", [2, 3])
    @pytest.mark.parametrize("block_rows", [None, 1, 7, 100])
    def test_each_lane_rotates_the_rows_of_its_own_blocks(self, monkeypatch, lanes, block_rows):
        """A lane's rows run from the first row of its first attention block
        to the last row of its last, so its out projection reads only results
        its own blocks wrote; the lanes' rows differ by at most one block."""
        config, patches, rope, weights, _ = self.case(45)
        n = self.SIDE**2
        if block_rows is not None:
            monkeypatch.setattr(encoder, "_TILE_BYTES", block_rows * 8 * config.n_heads * n)
        rows = encoder._block_rows(n, config.n_heads)
        starts = range(0, n, rows)
        set_lanes(monkeypatch, lanes)
        with scheduling.held(len(starts)) as count:
            assert count == lanes
        owned = []
        for i in range(count):
            mine = starts[i * len(starts) // count: (i + 1) * len(starts) // count]
            owned.append((mine[0], min(mine[-1] + rows, n)))
        rotate, spans = encoder.apply_rope_many, []

        def record_rows(table, positions, v):
            row, col = positions[0]
            spans.append((row * self.SIDE + col, len(positions)))
            return rotate(table, positions, v)

        monkeypatch.setattr(encoder, "apply_rope_many", record_rows)
        encode_dense(patches, rope, weights, config)
        assert sorted(spans) == sorted((start, stop - start) for start, stop in owned
                                       for _ in range(2 * config.n_layers))
        assert {start for start, _ in spans} <= set(starts)
        sizes = [stop - start for start, stop in owned]
        assert max(sizes) - min(sizes) <= rows

    def test_a_thread_that_cannot_start_releases_the_started_lanes(self, monkeypatch):
        config, patches, rope, weights, _ = self.case(34)
        start, started = threading.Thread.start, []

        def start_one(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        set_lanes(monkeypatch, 3)
        monkeypatch.setattr(threading.Thread, "start", start_one)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            encode_dense(patches, rope, weights, config)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before

    def test_one_lane_starts_no_thread(self, monkeypatch):
        config, patches, rope, weights, _ = self.case(35)
        set_lanes(monkeypatch, 1)
        want = encode_dense(patches, rope, weights, config).tokens.tobytes()

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert encode_dense(patches, rope, weights, config).tokens.tobytes() == want

    def test_three_lanes_on_one_pool_thread_give_the_one_lane_bits(self, monkeypatch):
        """No lane waits for another within a round, so one thread can step two
        lanes in turn; lanes that waited at a barrier would deadlock here."""
        config, patches, rope, weights, _ = self.case(36)
        set_lanes(monkeypatch, 1)
        want = encode_dense(patches, rope, weights, config).tokens.tobytes()
        pool, asked = concurrent.futures.ThreadPoolExecutor, []

        def one_thread(workers):
            asked.append(workers)
            return pool(1)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", one_thread)
        set_lanes(monkeypatch, 3)
        before, got = threading.active_count(), []
        runner = threading.Thread(  # so that a deadlock fails the test, not the suite
            target=lambda: got.append(encode_dense(patches, rope, weights, config)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert got[0].tokens.tobytes() == want
        assert asked == [2]
        assert threading.active_count() == before

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("value", [1e160, 1e308])
    def test_a_forward_that_overflows_float64_is_refused(self, monkeypatch, lanes, value):
        """At 1e160 layer norm's variance overflows, and every normalised row
        would become ln_beta; at 1e308 the sums overflow to inf. The large row
        is the last, so with two lanes a pool thread meets the overflow."""
        config = small_config(n_layers=1)
        patches, rope, weights = random_setup(self.SIDE, self.SIDE, config, seed=37)
        patches[-1] = value
        set_lanes(monkeypatch, lanes)
        with pytest.raises(ValidationError, match="encoder forward overflows float64"):
            encode_dense(patches, rope, weights, config)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_forward_below_the_overflow_returns_finite_rows(self, monkeypatch, lanes):
        config = small_config(n_layers=1)
        patches, rope, weights = random_setup(self.SIDE, self.SIDE, config, seed=37)
        patches[-1] = 1e150
        seen, run_lanes = [], scheduling.run
        set_lanes(monkeypatch, lanes)
        monkeypatch.setattr(scheduling, "run",
                            lambda n, lane: (seen.append(n), run_lanes(n, lane)))
        assert np.isfinite(encode_dense(patches, rope, weights, config).tokens).all()
        assert seen == [lanes]

    def test_a_lane_on_a_pool_thread_runs_under_the_callers_error_state(self):
        """Lane 1 runs on a pool thread, which does not inherit numpy's error
        state: its division by zero raises when the caller raises it, and only
        warns under numpy's default state."""
        quotients = []

        def lane(i):
            if i == 1:
                quotients.append(np.ones(1) / np.zeros(1))
            yield True

        with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide"):
            scheduling.run(2, lane)
        assert quotients == []
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            scheduling.run(2, lane)
        assert len(quotients) == 1 and np.isposinf(quotients[0]).all()


class TestBlasOnIdleCpus:
    """A one-lane forward raises BLAS's thread count to the CPUs of the
    process's affinity mask for the call and then restores it. The lookup is
    patched, so these tests leave the loaded BLAS alone and pretend 4 CPUs
    with BLAS on 1."""

    @pytest.fixture
    def blas(self, monkeypatch):
        return set_lanes(monkeypatch, 4)

    @staticmethod
    def count_rope_calls(monkeypatch, blas):
        """(rows, BLAS count) at each of the forward's rotations."""
        rotate, seen = encoder.apply_rope_many, []

        def rotate_and_count(table, positions, v):
            seen.append((len(positions), blas.threads))
            return rotate(table, positions, v)

        monkeypatch.setattr(encoder, "apply_rope_many", rotate_and_count)
        return seen

    def test_a_one_lane_forward_runs_blas_on_every_cpu(self, monkeypatch, blas):
        config = small_config()
        patches, rope, weights = random_setup(6, 6, config, seed=40)  # one block: one lane
        seen = self.count_rope_calls(monkeypatch, blas)
        encode_dense(patches, rope, weights, config)
        assert seen == [(36, 4)] * 2 * config.n_layers
        assert blas.set_to == [4, 1] and blas.threads == 1
        encode_dense(patches, rope, weights, config)
        assert blas.asked == 2 and blas.set_to == [4, 1] * 2

    def test_blas_already_on_every_cpu_is_not_set(self, blas):
        blas.threads = 4
        config = small_config()
        encode_dense(*random_setup(6, 6, config, seed=40), config)
        assert blas.asked == 1 and blas.set_to == []

    def test_a_multi_lane_forward_and_the_merge_leave_blas_alone(self, monkeypatch, blas):
        config, patches, rope, weights, _ = TestLanes().case(41)  # seven blocks: three lanes
        seen = self.count_rope_calls(monkeypatch, blas)
        merge_project(encode_dense(patches, rope, weights, config), config, weights)
        assert {threads for _, threads in seen} == {1}
        assert blas.asked == 1 and blas.set_to == []

    def test_a_count_set_at_run_time_decides_the_lanes(self, monkeypatch, blas):
        """BLAS's count is read when each forward starts: lowered to one thread
        after a forward that found it on every CPU, it gives the next forward
        of seven blocks three lanes, and no count is set."""
        config, patches, rope, weights, _ = TestLanes().case(41)
        seen, run_lanes = [], scheduling.run
        monkeypatch.setattr(scheduling, "run",
                            lambda lanes, lane: (seen.append(lanes), run_lanes(lanes, lane)))
        blas.threads = 4
        encode_dense(patches, rope, weights, config)
        blas.threads = 1
        encode_dense(patches, rope, weights, config)
        assert seen == [1, 3]
        assert blas.asked == 2 and blas.set_to == []

    def test_one_cpu_leaves_blas_alone(self, monkeypatch, blas):
        monkeypatch.setattr(scheduling, "_CPUS", 1)
        config = small_config()
        encode_dense(*random_setup(6, 6, config, seed=40), config)
        assert blas.asked == 0 and blas.set_to == []

    @pytest.mark.parametrize("call", [1, 4])  # layer 0's queries, layer 1's keys
    def test_the_count_is_restored_when_a_lane_fails(self, monkeypatch, blas, call):
        config = small_config()
        patches, rope, weights = random_setup(6, 6, config, seed=42)
        rotate, calls = encoder.apply_rope_many, []

        def fail_in_the_lane(table, positions, v):
            calls.append(1)
            if len(calls) == call:
                raise ValidationError("lane 0 fails")
            return rotate(table, positions, v)

        monkeypatch.setattr(encoder, "apply_rope_many", fail_in_the_lane)
        with pytest.raises(ValidationError, match="lane 0 fails"):
            encode_dense(patches, rope, weights, config)
        assert blas.set_to == [4, 1] and blas.threads == 1

    def test_the_count_is_restored_when_the_forward_overflows(self, blas):
        config = small_config()
        patches, rope, weights = random_setup(6, 6, config, seed=42)
        with pytest.raises(ValidationError, match="overflows float64"):
            encode_dense(np.full_like(patches, 1e160), rope, weights, config)
        assert blas.set_to == [4, 1] and blas.threads == 1

    def test_without_a_blas_pair_the_forward_runs_one_lane(self, monkeypatch):
        """With no (get, set) pair found, BLAS counts as on every CPU: a forward
        of seven blocks runs one lane, bit for bit the forward of a one-CPU
        process, which never looks BLAS up, and the lookup is made once a
        forward."""
        asked, seen, run_lanes = [], [], scheduling.run
        monkeypatch.setattr(scheduling, "_CPUS", 4)
        monkeypatch.setattr(scheduling, "_blas_threads", lambda: asked.append(1))
        monkeypatch.setattr(scheduling, "run",
                            lambda lanes, lane: (seen.append(lanes), run_lanes(lanes, lane)))
        config, patches, rope, weights, _ = TestLanes().case(44)
        got = encode_dense(patches, rope, weights, config).tokens.tobytes()
        assert asked == [1] and seen == [1]
        monkeypatch.setattr(scheduling, "_CPUS", 1)
        assert encode_dense(patches, rope, weights, config).tokens.tobytes() == got
        assert asked == [1] and seen == [1, 1]

    def test_concurrent_forwards_keep_their_counts_and_bits(self, monkeypatch, blas):
        """Two threads each of a one-lane packed forward (450 rows, two blocks)
        and of a three-lane dense one (two or three blocks a lane), with a short switch
        interval: every dense rotation runs at the count BLAS had, every
        packed one at the raised count, each forward returns the bits it
        returns alone, and BLAS ends at the count it started with."""
        config, patches, rope, weights, mask = TestLanes().case(43)
        packed = pack_patches(patches, mask)
        runs = {"packed": lambda: encode_packed(packed, rope, weights, config).tokens.tobytes(),
                "dense": lambda: encode_dense(patches, rope, weights, config).tokens.tobytes()}
        want = {name: run() for name, run in runs.items()}
        seen = self.count_rope_calls(monkeypatch, blas)
        names = ["packed", "dense"] * 2
        got = [[] for _ in names]

        def repeat(i):
            for _ in range(3):
                got[i].append(runs[names[i]]())

        threads = [threading.Thread(target=repeat, args=(i,), daemon=True)
                   for i in range(len(names))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[want[name]] * 3 for name in names]
        assert {threads for rows, threads in seen if rows == len(packed)} == {4}
        assert {threads for rows, threads in seen if rows != len(packed)} == {1}
        assert blas.threads == 1 and blas.set_to == [4, 1] * 7


class TestBlasLookup:
    """``_blas_threads`` opens numpy's ``_multiarray_umath`` extension by its
    file and returns the first (get, set) pair of ``_BLAS_SYMBOLS`` that the
    handle resolves, in the extension or a library it links."""

    SCIPY, OPENBLAS64, PLAIN = scheduling._BLAS_SYMBOLS

    @staticmethod
    def pair(symbols, threads=1):
        """The functions of one (get, set) symbol pair of a fake library."""
        get_name, set_name = symbols
        return {get_name: lambda: threads, set_name: lambda count: None}

    @staticmethod
    def lookup(monkeypatch, symbols):
        """Run the lookup with a handle that resolves ``symbols``, or with a
        load that raises them if they are an OSError. Returns the result and
        the paths opened, in order."""
        opened = []

        def fake_cdll(path):
            opened.append(path)
            if isinstance(symbols, OSError):
                raise symbols
            return types.SimpleNamespace(**symbols)

        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        return scheduling._blas_threads.__wrapped__(), opened

    def test_only_numpys_extension_is_opened(self, monkeypatch):
        from numpy._core import _multiarray_umath

        found, opened = self.lookup(monkeypatch, self.pair(self.SCIPY, threads=2))
        assert opened == [_multiarray_umath.__file__]
        assert found[0]() == 2

    def test_numpy_1_opens_the_extension_under_numpy_core(self, monkeypatch):
        """Without ``numpy._core``, as on numpy 1.x, the extension is the one
        ``numpy.core`` holds."""
        extension = types.SimpleNamespace(__file__="numpy1/core/_multiarray_umath.so")
        monkeypatch.setitem(sys.modules, "numpy._core", None)
        monkeypatch.setitem(sys.modules, "numpy.core",
                            types.SimpleNamespace(_multiarray_umath=extension))
        found, opened = self.lookup(monkeypatch, self.pair(self.PLAIN, threads=2))
        assert opened == [extension.__file__]
        assert found[0]() == 2

    @pytest.mark.parametrize("symbols", scheduling._BLAS_SYMBOLS)
    def test_each_symbol_pair_is_found(self, monkeypatch, symbols):
        found, _ = self.lookup(monkeypatch, self.pair(symbols, threads=3))
        assert found is not None and found[0]() == 3

    def test_numpys_pair_wins_over_the_others_the_handle_resolves(self, monkeypatch):
        found, _ = self.lookup(monkeypatch, {**self.pair(self.PLAIN, threads=1),
                                             **self.pair(self.OPENBLAS64, threads=2),
                                             **self.pair(self.SCIPY, threads=4)})
        assert found[0]() == 4

    def test_a_getter_without_its_setter_is_passed_over(self, monkeypatch):
        found, _ = self.lookup(monkeypatch, {self.SCIPY[0]: lambda: 4,
                                             **self.pair(self.PLAIN, threads=2)})
        assert found[0]() == 2

    def test_a_load_that_fails_finds_no_blas(self, monkeypatch):
        found, opened = self.lookup(monkeypatch, OSError("cannot open shared object file"))
        assert found is None and len(opened) == 1

    def test_a_handle_without_a_pair_finds_no_blas(self, monkeypatch):
        found, _ = self.lookup(monkeypatch, {"dgemm_": lambda: None})
        assert found is None

    def test_the_pair_is_typed_as_c_int(self, monkeypatch):
        (get, set_), _ = self.lookup(monkeypatch, self.pair(self.PLAIN))
        assert (get.argtypes, get.restype) == ([], ctypes.c_int)
        assert (set_.argtypes, set_.restype) == ([ctypes.c_int], None)

    def test_the_pair_is_found_without_reading_a_file(self, monkeypatch):
        """The loader resolves the pair: the lookup opens no file, as on a
        system without ``/proc``, and finds the functions found before."""
        want = scheduling._blas_threads()
        if want is None:
            pytest.skip("numpy is not linked to an OpenBLAS with a thread-count pair")

        def no_file(*args, **kwargs):
            raise PermissionError("no file may be read")

        monkeypatch.setattr(scheduling, "open", no_file, raising=False)
        found = scheduling._blas_threads.__wrapped__()
        assert found is not None
        assert ([ctypes.cast(f, ctypes.c_void_p).value for f in found]
                == [ctypes.cast(f, ctypes.c_void_p).value for f in want])
