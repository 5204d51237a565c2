import concurrent.futures
import copy
import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from tmknet import autodiff as ad
from tmknet import model as model_module
from tmknet.autodiff import Tape
from tmknet.errors import ConfigError
from tmknet.model import EVAL_BLOCK, TMKNet, eval_blocks

from conftest import model_config, stem_config


def toy_config(n_t=8, n_s=6, n_b=4, n_c=4, shared_bn=False):
    stem = stem_config(
        fs=512.0, r_data=0.25, r_resolution=(1 / 16, 1 / 32, 1 / 64),
        n_t=n_t, n_s=n_s,
        flexor_ids=tuple(range(4)), extensor_ids=tuple(range(4, 8)),
        proximal_ids=tuple(range(0, 8, 2)), distal_ids=tuple(range(1, 8, 2)),
        pool_size=4,
    )
    return model_config(stem, n_b=n_b, n_c=n_c, shared_bn=shared_bn)


@pytest.fixture
def toy_model():
    model = TMKNet(toy_config(), seed=0)
    model.register_domains(["0/0", "0/1"], ["0/2"])
    return model


class TestEvalBlocks:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17, 60, 200, 256])
    def test_balanced_ordered_cover(self, n):
        blocks = eval_blocks(n)
        assert len(blocks) == -(-n // EVAL_BLOCK)
        assert [i for s in blocks for i in range(n)[s]] == list(range(n))
        sizes = [len(range(n)[s]) for s in blocks]
        assert max(sizes, default=0) <= EVAL_BLOCK
        if n >= EVAL_BLOCK:
            assert min(sizes) >= EVAL_BLOCK // 2
        if blocks:
            assert sizes == [len(a) for a in np.array_split(np.arange(n), len(blocks))]


class TestForward:
    def test_shapes_and_finiteness(self, toy_model, rng):
        x = rng.normal(size=(4, 8, 64))
        labels = np.array([0, 1, 2, 3])
        ids = ["0/0", "0/0", "0/1", "0/1"]
        loss, grads = toy_model.loss_and_grads(x, labels, ids)
        assert np.isfinite(loss)
        for name, g in grads.items():
            assert g is not None and np.all(np.isfinite(g)), name
            assert g.shape == toy_model.params[name].value.shape

    def test_eval_is_pure(self, toy_model, rng):
        x = rng.normal(size=(4, 8, 64))
        ids = ["0/0"] * 4
        toy_model.loss_and_grads(x, np.zeros(4, dtype=int), ids)  # init stats
        a = toy_model.predict_logits(x, ids)
        b = toy_model.predict_logits(x, ids)
        assert np.array_equal(a, b)

    def test_eval_independent_of_batch_make_up(self, toy_model, rng):
        x = rng.normal(size=(6, 8, 64))
        ids = ["0/0", "0/1", "0/0", "0/1", "0/1", "0/0"]
        toy_model.loss_and_grads(x, np.arange(6) % 4, ids)  # init stats
        batch = toy_model.predict_logits(x, ids)
        single = np.concatenate([toy_model.predict_logits(x[i:i + 1], ids[i:i + 1])
                                 for i in range(len(ids))])
        perm = rng.permutation(len(ids))
        permuted = np.empty_like(batch)
        permuted[perm] = toy_model.predict_logits(x[perm], [ids[i] for i in perm])
        assert np.abs(permuted - batch).max() <= 1e-15
        # measured with OpenBLAS on one thread: at this toy shape the MSS
        # layer's small GEMMs (44 rows per trial, 16-64 columns in, 6 out)
        # round some rows differently with the product's row count, by about
        # 1e-15 before DSBN, and this small random network amplifies that to
        # about 1e-11 at the logits. At paper shape a 1-trial forward's stem,
        # DSBN and LogEig outputs equal a 2-trial forward's bit for bit; only
        # the head's (1, 900) @ (900, 4) product differs (1.7e-16 on a primed
        # model), because numpy takes the matrix-vector path for one row. At
        # desk shape blocks of 1 or 2 trials differ and blocks of 3 or more
        # do not, which is why `eval_blocks` never forms a block below 4
        assert np.abs(single - batch).max() <= 1e-10
        for other in (single, permuted):
            assert np.array_equal(other.argmax(axis=1), batch.argmax(axis=1))

    def test_training_step_frees_tape_without_cyclic_collector(self, toy_model, rng,
                                                                monkeypatch):
        tapes = []

        class WatchedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(model_module, "Tape", WatchedTape)
        x = rng.normal(size=(4, 8, 64))
        enabled = gc.isenabled()
        gc.disable()
        try:
            loss, grads = toy_model.loss_and_grads(x, np.arange(4), ["0/0", "0/0", "0/1", "0/1"])
            assert len(tapes) == 1 and tapes[0]() is None
        finally:
            if enabled:
                gc.enable()
        assert np.isfinite(loss) and set(grads) == {name for name, _ in toy_model.params.items()}

    def test_train_forward_keeps_no_stem_output(self, toy_model, rng, monkeypatch):
        # backward reads the stem nodes' outputs only for their signs, and the
        # second batch norm's output (covariance pooling's input) only for
        # its shape: none of the three outlives the forward
        x, labels, ids = rng.normal(size=(4, 8, 64)), np.arange(4), ["0/0", "0/0", "0/1", "0/1"]
        reference = copy.deepcopy(toy_model)
        refs = {}

        def watch(name):
            fn = getattr(ad, name)

            def wrapper(*args, **kwargs):
                res = fn(*args, **kwargs)
                v = (res[0] if isinstance(res, tuple) else res).value
                refs.setdefault(name, []).append(
                    [weakref.ref(a) for a in (v, v.base) if a is not None])
                return res

            monkeypatch.setattr(ad, name, wrapper)

        for name in ("mrt_block", "mss_block", "batch_norm"):
            watch(name)
        tape = Tape()
        pvars = toy_model.param_vars(tape, trainable=True)
        loss = ad.cross_entropy(toy_model.forward(tape, tape.leaf(x), ids, "train", pvars), labels)
        outs = (refs["mrt_block"][0], refs["mss_block"][0], refs["batch_norm"][1])
        assert [[r() is None for r in out] for out in outs] == [[True] * len(out) for out in outs]
        tape.backward(loss)

        # the reference: the same step with every forward value held to the end
        held = []
        record = Tape.record
        monkeypatch.setattr(Tape, "record", lambda tape, parents, value, backward_fn: (
            held.append(record(tape, parents, value, backward_fn)) or held[-1]))
        _, want = reference.loss_and_grads(x, labels, ids)
        assert held and set(want) == set(pvars)
        for name, g in want.items():
            assert pvars[name].grad.tobytes() == g.tobytes(), name

    def test_adapt_then_eval_on_target(self, toy_model, rng):
        x = rng.normal(size=(4, 8, 64))
        toy_model.loss_and_grads(x, np.zeros(4, dtype=int), ["0/0"] * 4)
        with pytest.raises(ConfigError):
            toy_model.predict_logits(x, ["0/2"] * 4)  # target stats missing
        toy_model.adapt_batch(x, ["0/2"] * 4)
        out = toy_model.predict_logits(x, ["0/2"] * 4)
        assert np.all(np.isfinite(out))

    def test_shared_bn_routes_all_domains_together(self, rng):
        model = TMKNet(toy_config(shared_bn=True), seed=0)
        model.register_domains(["0/0"], ["0/2"])  # ignored under shared bn
        x = rng.normal(size=(4, 8, 64))
        model.loss_and_grads(x, np.zeros(4, dtype=int), ["0/0"] * 4)
        out = model.predict_logits(x, ["0/2"] * 4)  # works without adapt
        assert np.all(np.isfinite(out))

    def test_sensor_count_checked(self, toy_model, rng):
        with pytest.raises(ConfigError):
            toy_model.predict_logits(rng.normal(size=(2, 6, 64)), ["0/0"] * 2)

    def test_n_b_above_n_s_rejected(self):
        with pytest.raises(ConfigError, match="exceeds n_s"):
            toy_config(n_s=4, n_b=6)

    @pytest.mark.parametrize("field", ["eps_reeig", "eps_var", "cov_lambda"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_non_positive_constant_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be positive and finite"):
            model_config(toy_config().stem, n_b=4, n_c=4, **{field: value})

    def test_same_seed_same_init(self):
        a = TMKNet(toy_config(), seed=3)
        b = TMKNet(toy_config(), seed=3)
        for name, p in a.params.items():
            assert np.array_equal(p.value, b.params[name].value)

    def test_state_arrays_round_trip(self, toy_model, rng):
        x = rng.normal(size=(4, 8, 64))
        toy_model.loss_and_grads(x, np.zeros(4, dtype=int), ["0/0"] * 4)
        toy_model.adapt_batch(x, ["0/2"] * 4)
        arrays = {k: v.copy() for k, v in toy_model.state_arrays().items()}
        kinds = toy_model.dsbn_domain_kinds()

        clone = TMKNet(toy_config(), seed=99)
        clone.load_state_arrays({**clone.state_arrays(),
                                 **{k: p.value.copy() for k, p in toy_model.params.items()}},
                                clone.dsbn_domain_kinds())
        clone.load_state_arrays(arrays, kinds)
        a = toy_model.predict_logits(x, ["0/2"] * 4)
        b = clone.predict_logits(x, ["0/2"] * 4)
        assert np.array_equal(a, b)

    def test_conflicting_domain_kind_loads_nothing(self, toy_model, rng):
        x = rng.normal(size=(4, 8, 64))
        toy_model.loss_and_grads(x, np.zeros(4, dtype=int), ["0/0"] * 4)
        before = {k: v.tobytes() for k, v in toy_model.state_arrays().items()}
        kinds = toy_model.dsbn_domain_kinds()
        # a new source domain first, then one the model holds as a target
        other = TMKNet(toy_config(), seed=99)
        other.register_domains(["0/3", "0/2"], [])
        with pytest.raises(ConfigError, match="already registered as target"):
            toy_model.load_state_arrays(other.state_arrays(), other.dsbn_domain_kinds())
        assert {k: v.tobytes() for k, v in toy_model.state_arrays().items()} == before
        assert toy_model.dsbn_domain_kinds() == kinds


@pytest.fixture
def primed(toy_model, rng):
    """The toy model with source and target statistics, and 20 trials (3
    blocks) whose domains mix a source and the target."""
    x = rng.normal(size=(20, 8, 64))
    toy_model.loss_and_grads(x[:4], np.arange(4), ["0/0", "0/0", "0/1", "0/1"])
    toy_model.adapt_batch(x[4:10], ["0/2"] * 6)
    return toy_model, x, ["0/0", "0/2"] * 10


def _threads(model, attr="forward"):
    """Names of the threads that run each call of `model`'s method `attr`
    from now on."""
    names = []
    method = getattr(model, attr)

    def spy(*args, **kwargs):
        names.append(threading.current_thread().name)
        return method(*args, **kwargs)

    setattr(model, attr, spy)
    return names


def _unit_threads(monkeypatch):
    """(function name, thread name) of each unit that `ad.run_units` runs
    from now on, in the order they start."""
    seen = []
    run_units = ad.run_units

    def traced(unit):
        def run():
            seen.append((getattr(unit, "func", unit).__name__, threading.current_thread().name))
            return unit()
        return run

    monkeypatch.setattr(ad, "run_units",
                        lambda units, *args: run_units([traced(u) for u in units], *args))
    return seen


def _executors(monkeypatch):
    """max_workers of each thread pool executor made from now on."""
    workers = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            workers.append(self._max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return workers


class TestBlockRunner:
    """`TMKNet._run_blocks` gives the same bytes on the worker pool as inline."""

    @pytest.mark.parametrize("call", ["array", "list", "adapt"])
    def test_zero_signals_rejected_before_any_block(self, primed, call):
        model = primed[0]
        blocks = _threads(model, "features")
        with pytest.raises(ValueError, match="at least one signal"):
            if call == "adapt":
                model.adapt_batch(np.zeros((0, 8, 64)), [])
            else:
                model.predict_logits(np.zeros((0, 8, 64)) if call == "array" else [], [])
        assert blocks == []

    def test_predict_logits_pooled_equals_inline(self, primed, monkeypatch):
        model, x, ids = primed
        inline_cap, pooled_cap = {}, {}
        inline = model.predict_logits(x, ids, inline_cap)
        names = _threads(model)
        assert names == [] and inline.shape == (20, 4)
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        pooled = model.predict_logits(x, ids, pooled_cap)
        assert len(names) == 3 and all(n.startswith("tmknet-eval") for n in names)
        assert pooled.tobytes() == inline.tobytes()
        assert list(pooled_cap) == list(inline_cap) == ["pre_dsbn", "post_dsbn"]
        for key in inline_cap:
            assert pooled_cap[key].tobytes() == inline_cap[key].tobytes()

    def test_adapt_batch_pooled_equals_inline(self, primed, monkeypatch):
        model, x, _ = primed
        pooled = copy.deepcopy(model)
        model.adapt_batch(x, ["0/2"] * 20)
        names = _threads(pooled, "features")
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        pooled.adapt_batch(x, ["0/2"] * 20)
        assert len(names) == 3 and all(n.startswith("tmknet-eval") for n in names)
        want = model.state_arrays()
        got = pooled.state_arrays()
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    def test_concurrent_callers_on_more_workers_than_cores(self, primed, monkeypatch):
        model, x, ids = primed
        want = [model.predict_logits(x[i:], ids[i:]).tobytes() for i in range(6)]
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        monkeypatch.setattr(ad, "_cpus", lambda: 64)
        workers = _executors(monkeypatch)
        got = {}

        def caller(i):
            for _ in range(3):
                got.setdefault(i, set()).add(model.predict_logits(x[i:], ids[i:]).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert workers == [ad._POOL_WORKERS] * 18
        assert got == {i: {want[i]} for i in range(6)}

    @pytest.mark.parametrize("call", ["predict_logits", "adapt_batch", "raised",
                                      "loss_and_grads"])
    def test_no_worker_outlives_the_call(self, primed, monkeypatch, call):
        model, x, ids = primed
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        names = _threads(model, "features")
        units = _unit_threads(monkeypatch)
        if call == "predict_logits":
            model.predict_logits(x, ids)
        elif call == "adapt_batch":
            model.adapt_batch(x, ["0/2"] * 20)
        elif call == "loss_and_grads":
            model.loss_and_grads(x[:4], np.arange(4), ["0/0", "0/0", "0/1", "0/1"])
        else:
            with pytest.raises(ConfigError):
                model.predict_logits(x, ids[:10] + ["9/9"] * 10)
        if call == "loss_and_grads":
            assert names == ["MainThread"]
            assert units and all(n.startswith("tmknet-stem") for _, n in units)
        else:
            assert len(names) == 3 and all(n.startswith("tmknet-eval") for n in names)
        alive = [t.name for t in threading.enumerate() if t.name.startswith("tmknet")]
        assert alive == []

    @pytest.mark.parametrize("call", ["predict_logits", "adapt_batch"])
    def test_worker_starts_no_nested_executor(self, primed, monkeypatch, call):
        model, x, ids = primed
        # every gate open: only the 0 bytes that a node recording nothing
        # passes keep the stem's units on the eval worker that runs them
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        workers = _executors(monkeypatch)
        units = _unit_threads(monkeypatch)
        if call == "predict_logits":
            model.predict_logits(x, ids)
        else:
            model.adapt_batch(x, ["0/2"] * 20)
        assert workers == [min(ad._POOL_WORKERS, ad._cpus())]
        funcs = [f for f, _ in units]
        assert funcs.count("block") == 3 and {"conv_block", "kernel_out"} <= set(funcs)
        assert all(n.startswith("tmknet-eval") for _, n in units)

    @pytest.mark.parametrize("case", ["unknown-domain", "stem-bn-uninitialized"])
    def test_worker_error_reaches_caller(self, primed, monkeypatch, case):
        model, x, ids = primed
        if case == "unknown-domain":
            ids = ids[:10] + ["9/9"] * 10
        else:
            model = TMKNet(toy_config(), seed=0)
            model.register_domains(["0/0"], [])
            ids = ["0/0"] * 20
        with pytest.raises(ConfigError) as inline:
            model.predict_logits(x, ids)
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        with pytest.raises(ConfigError) as pooled:
            model.predict_logits(x, ids)
        assert str(pooled.value) == str(inline.value)

    def test_first_failing_block_wins(self, primed, monkeypatch):
        model, x, ids = primed
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        forward = model.forward

        def failing(tape, xv, domain_ids, *args, **kwargs):
            first = int(np.flatnonzero((x == xv.value[0]).all(axis=(1, 2)))[0])
            if first > 0:
                time.sleep(0.05 if first < 14 else 0.0)  # the last block fails first
                raise ConfigError(f"block from row {first}")
            return forward(tape, xv, domain_ids, *args, **kwargs)

        model.forward = failing
        with pytest.raises(ConfigError, match="block from row 7$"):
            model.predict_logits(x, ids)

    @pytest.mark.parametrize("threads,cpus,pooled", [
        (1, 2, True), (2, 2, False), (None, 2, False), (1, 1, False)])
    def test_pool_gate(self, primed, monkeypatch, threads, cpus, pooled):
        model, x, ids = primed
        monkeypatch.setattr(ad, "_POOL_UNIT_BYTES", 0)
        monkeypatch.setattr(ad, "_blas_threads", lambda: threads)
        monkeypatch.setattr(ad, "_cpus", lambda: cpus)
        names = _threads(model)
        model.predict_logits(x, ids)
        model.predict_logits(x[:8], ids[:8])  # one block always runs inline
        assert len(names) == 4
        assert [n.startswith("tmknet-eval") for n in names] == [pooled] * 3 + [False]

    def test_block_threshold_keeps_toy_blocks_inline(self, primed, monkeypatch):
        model, x, ids = primed
        monkeypatch.setattr(ad, "_blas_threads", lambda: 1)
        monkeypatch.setattr(ad, "_cpus", lambda: 2)
        names = _threads(model)
        model.predict_logits(x, ids)
        # twice 8 rows x 8 sensors x 64 samples x n_t 8 x 8 bytes
        assert 2 * 8 * 8 * 64 * 8 * 8 < ad._POOL_UNIT_BYTES
        assert names == ["MainThread"] * 3

    @pytest.mark.parametrize("branches", [1, 3])
    @pytest.mark.parametrize("samples,pooled", [(128, True), (112, False)])
    def test_blocks_pool_from_512_kib_of_one_branch(self, rng, monkeypatch, branches, samples,
                                                    pooled):
        # 8 rows x 8 sensors x 128 samples x n_t 8 x 8 bytes is 512 KiB, of
        # each temporal branch, whatever the number of branches
        stem = stem_config(
            fs=512.0, r_data=0.25, r_resolution=(1 / 16, 1 / 32, 1 / 64)[:branches],
            n_t=8, n_s=6, flexor_ids=tuple(range(4)), extensor_ids=tuple(range(4, 8)),
            proximal_ids=tuple(range(0, 8, 2)), distal_ids=tuple(range(1, 8, 2)), pool_size=4)
        model = TMKNet(model_config(stem, n_b=4, n_c=4), seed=0)
        model.register_domains(["0/0"], [])
        x = rng.normal(size=(16, 8, samples))
        model.prime_stats(x, ["0/0"] * 16)
        monkeypatch.setattr(ad, "_blas_threads", lambda: 1)
        monkeypatch.setattr(ad, "_cpus", lambda: 2)
        names = _threads(model)
        model.predict_logits(x, ["0/0"] * 16)
        assert len(names) == 2
        assert [n.startswith("tmknet-eval") for n in names] == [pooled] * 2


class TestStemSplit:
    """A training step's stem nodes run their units on worker threads
    (`ad.run_units`) with the bytes they compute inline."""

    def test_step_equals_inline(self, primed, monkeypatch):
        model, x, _ = primed
        split = copy.deepcopy(model)
        step = (x[:12], np.arange(12) % 4, ["0/0"] * 6 + ["0/1"] * 6)
        units = _unit_threads(monkeypatch)
        want_loss, want = model.loss_and_grads(*step)
        assert units and all(n == "MainThread" for _, n in units)  # the toy shape is inline
        del units[:]
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        # two CPUs, so that the batch norms split their channels in two
        monkeypatch.setattr(ad, "_cpus", lambda: 2)
        got_loss, got = split.loss_and_grads(*step)
        # all four nodes split, forward and backward
        assert {f for f, n in units if n.startswith("tmknet-stem")} == {
            "conv_block", "branch_grads", "kernel_out", "add_taps", "norm_channels",
            "channel_grads"}
        assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
        assert list(got) == list(want)
        for name in want:
            assert (got[name].strides, got[name].tobytes()) == \
                (want[name].strides, want[name].tobytes()), name
        got_state, want_state = split.state_arrays(), model.state_arrays()
        assert list(got_state) == list(want_state)
        assert all(got_state[k].tobytes() == want_state[k].tobytes() for k in want_state)

    def test_concurrent_steps_on_more_threads_than_cores(self, primed, monkeypatch):
        model, x, _ = primed
        step = (x[:12], np.arange(12) % 4, ["0/0"] * 6 + ["0/1"] * 6)

        def grads_bytes(m):
            loss, grads = m.loss_and_grads(*step)
            return np.float64(loss).tobytes() + b"".join(g.tobytes() for g in grads.values())

        want = grads_bytes(copy.deepcopy(model))
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        got = {}

        def caller(i):
            # each caller steps its own copy twice, from the same state
            got[i] = {grads_bytes(copy.deepcopy(model)) for _ in range(2)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # 4 callers, each making an executor per split node
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == {i: {want} for i in range(4)}

    @pytest.mark.parametrize("node", ["mrt", "mss"])
    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_worker_error_reaches_caller(self, rng, monkeypatch, node, phase):
        # an overflow under np.errstate(over="raise"): in a forward unit's
        # bias add; in backward, in the temporal node's bias gradient of a
        # huge gradient, or where the spatial node's second kernel adds its
        # taps onto the first one's
        x = np.abs(rng.normal(size=(6, 1, 8, 64) if node == "mrt" else (6, 4, 8, 16)))
        forward = phase == "forward"
        x *= 1e306 if forward else 1.0
        bias = 1.79e308 if forward else 0.0

        def run():
            tape = Tape()
            xv = tape.leaf(x, requires_grad=True)
            with np.errstate(over="raise"):
                if node == "mrt":
                    out = ad.mrt_block(xv, [(tape.leaf(np.ones((4, 1, 1, k)), True),
                                             tape.leaf(np.full(4, bias), True))
                                            for k in (4, 2, 1)], 0.01, 4)
                else:
                    # a global kernel, and one of height 2 dilated by 4,
                    # whose output gradients pass 1.5e308 on to each input row
                    out = ad.mss_block(xv, [(None, tape.leaf(np.full((4, 4, kh, 1), 0.25), forward),
                                             tape.leaf(np.full(4, bias), forward), 1, dilation)
                                            for kh, dilation in ((8, 1), (2, 4))], 0.01)
                (_, _, backward), = tape._nodes
                backward(np.full(out.value.shape, 1e308 if node == "mrt" else 1.5e308))

        with pytest.raises(FloatingPointError) as inline:
            run()
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        units = _unit_threads(monkeypatch)
        with pytest.raises(FloatingPointError) as pooled:
            run()
        assert any(n.startswith("tmknet-stem") for _, n in units)
        assert str(pooled.value) == str(inline.value)

    def test_gradient_free_and_desk_calls_make_no_executor(self, rng, monkeypatch):
        # two CPUs and one BLAS thread: only the size gate keeps these inline
        monkeypatch.setattr(ad, "_cpus", lambda: 2)
        monkeypatch.setattr(ad, "_blas_threads", lambda: 1)
        workers = _executors(monkeypatch)
        # paper stem: 64 temporal and 40 spatial channels, 8 sensors x 128
        # samples; 8 trials make 4 MiB temporal conv outputs
        paper = TMKNet(toy_config(n_t=64, n_s=40), seed=0)
        paper.register_domains(["0/0"], ["0/2"])
        x = rng.normal(size=(8, 8, 128))
        # one eval block each, and stem nodes that record nothing
        paper.prime_stats(x, ["0/0"] * 8)
        paper.adapt_batch(x, ["0/2"] * 8)
        paper.predict_logits(x[:1], ["0/2"])
        # desk stem: 6 and 10 channels, 30 trials of 8 sensors x 64 samples
        desk = TMKNet(toy_config(n_t=6, n_s=10), seed=0)
        desk.register_domains(["0/0", "0/1"], [])
        desk.loss_and_grads(rng.normal(size=(30, 8, 64)), np.arange(30) % 4,
                            ["0/0"] * 15 + ["0/1"] * 15)
        assert workers == []
        # while a paper-shape training step does split
        paper.loss_and_grads(x, np.arange(8) % 4, ["0/0"] * 8)
        assert workers and set(workers) == {2}
        # and a node that records nothing runs inline whatever the gate says
        del workers[:]
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        paper.prime_stats(x, ["0/0"] * 8)
        paper.predict_logits(x[:1], ["0/2"])
        assert workers == []


class TestEndToEndGradients:
    def test_full_network_matches_finite_differences(self, rng):
        # acceptance-scale toy: 4 samples, c=8, t=64, n_t=8, n_s=6, n_b=4
        model = TMKNet(toy_config(), seed=1)
        model.register_domains(["0/0", "0/1"], [])
        x = rng.normal(size=(4, 8, 64))
        labels = np.array([0, 1, 2, 3])
        ids = ["0/0", "0/0", "0/1", "0/1"]

        def loss_with(values):
            probe = TMKNet(toy_config(), seed=1)
            probe.register_domains(["0/0", "0/1"], [])
            probe.load_state_arrays({**probe.state_arrays(), **values},
                                    probe.dsbn_domain_kinds())
            tape = Tape()
            pvars = probe.param_vars(tape, trainable=False)
            logits = probe.forward(tape, tape.leaf(x), ids, "train", pvars)
            return float(ad.cross_entropy(logits, labels).value)

        base = {k: p.value.copy() for k, p in model.params.items()}
        _, grads = model.loss_and_grads(x, labels, ids)

        check = {
            "mrt.branch0.weight": 6,
            "mrt.bn.gamma": 4,
            "mss.flexor.weight": 6,
            "mss.dilated.weight": 6,
            "bimap.weight": 8,
            "dsbn.g_phi": 6,
            "dsbn.log_v_phi": 1,
            "head.weight": 6,
            "head.bias": 2,
        }
        h = 1e-6
        for name, n_coords in check.items():
            flat = base[name].ravel()
            coords = rng.choice(flat.size, min(n_coords, flat.size), replace=False)
            for i in coords:
                orig = flat[i]
                step = h * max(1.0, abs(orig))
                flat[i] = orig + step
                fp = loss_with(base)
                flat[i] = orig - step
                fm = loss_with(base)
                flat[i] = orig
                fd = (fp - fm) / (2 * step)
                an = grads[name].ravel()[i]
                scale = max(abs(fd), abs(an), 1e-7)
                assert abs(an - fd) / scale < 1e-4, (name, i, an, fd)
