import numpy as np
import pytest

from tmknet import linalg
from tmknet.data import (
    DatasetManifest,
    DomainBatchSampler,
    SplitPlan,
    SynthSpec,
    Trial,
    hampel,
    leave_one_session_out,
    load_dataset,
    save_dataset,
    synth_generate,
    window,
    zscore,
)
from tmknet.errors import ConfigError, DataError
from tmknet.geometry import airm_dist, karcher_mean


def make_manifest(**overrides):
    base = dict(
        name="toy", fs=2000.0, sensors=4, class_names=["a", "b"],
        domains=[(0, 0), (0, 1)], flexor_ids=[0, 1], extensor_ids=[2, 3],
        proximal_ids=[0, 2], distal_ids=[1, 3], window_ms=200.0, overlap_ms=100.0,
    )
    base.update(overrides)
    return DatasetManifest(**base)


class TestWindow:
    def test_hop_arithmetic(self, rng):
        signal = rng.normal(size=(3, 1000))
        segs = window(signal, fs=2000.0, window_ms=200.0, overlap_ms=100.0)
        assert len(segs) == 4
        for i, seg in enumerate(segs):
            assert seg.shape == (3, 400)
            assert np.array_equal(seg, signal[:, i * 200: i * 200 + 400])

    def test_exactly_one_window(self, rng):
        segs = window(rng.normal(size=(2, 400)), 2000.0, 200.0, 100.0)
        assert len(segs) == 1

    def test_too_short(self, rng):
        with pytest.raises(DataError):
            window(rng.normal(size=(2, 399)), 2000.0, 200.0, 100.0)

    def test_segments_share_no_storage(self, rng):
        signal = rng.normal(size=(2, 600))
        segs = window(signal, 2000.0, 200.0, 100.0)
        segs[0][0, 0] = 1e9
        assert signal[0, 0] != 1e9


class TestHampel:
    def test_constant_unchanged(self):
        x = np.full(50, 3.3)
        assert np.array_equal(hampel(x, 3), x)

    def test_spike_replaced(self):
        x = np.zeros(30)
        x[15] = 100.0
        out = hampel(x, 3, 3.0)
        assert out[15] == 0.0
        assert np.array_equal(out[:15], np.zeros(15))

    def test_ramp_unchanged_matches_bruteforce(self):
        x = np.arange(10.0)

        def brute(x, hw, ns):
            out = x.copy()
            for i in range(x.size):
                lo, hi = max(0, i - hw), min(x.size, i + hw + 1)
                seg = x[lo:hi]
                m = np.median(seg)
                s = 1.4826 * np.median(np.abs(seg - m))
                if abs(x[i] - m) > ns * s:
                    out[i] = m
            return out

        assert np.array_equal(hampel(x, 3, 3.0), brute(x, 3, 3.0))
        assert np.array_equal(hampel(x, 3, 3.0), x)

    def test_matches_bruteforce_random(self, rng):
        x = rng.normal(size=64)
        x[10] = 40.0
        x[40] = -35.0

        def brute(x, hw, ns):
            out = x.copy()
            for i in range(x.size):
                lo, hi = max(0, i - hw), min(x.size, i + hw + 1)
                seg = x[lo:hi]
                m = np.median(seg)
                s = 1.4826 * np.median(np.abs(seg - m))
                if abs(x[i] - m) > ns * s:
                    out[i] = m
            return out

        assert np.allclose(hampel(x, 5, 3.0), brute(x, 5, 3.0))

    def test_half_window_validation(self):
        with pytest.raises(ConfigError):
            hampel(np.zeros(10), 0)


class TestZscore:
    def test_already_standardized(self, rng):
        x = rng.normal(size=(3, 500))
        x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        assert np.abs(zscore(x) - x).max() < 1e-12

    def test_two_point_channel(self):
        out = zscore(np.array([[0.0, 2.0]]))
        assert np.allclose(out, [[-1.0, 1.0]])

    def test_constant_channel_maps_to_zero(self):
        assert np.array_equal(zscore(np.full((2, 10), 5.0)), np.zeros((2, 10)))


class TestPreprocessStream:
    def test_count_matches_hop_formula_and_deterministic(self, rng):
        from tmknet.data import preprocess_stream

        m = make_manifest()
        stream = rng.normal(size=(4, 1500)).astype(np.float64)
        segs1 = preprocess_stream(stream, m)
        segs2 = preprocess_stream(stream, m)
        w = m.window_samples  # 400
        hop = w - round(m.overlap_ms * m.fs / 1000.0)  # 200
        assert len(segs1) == (1500 - w) // hop + 1
        for a, b in zip(segs1, segs2):
            assert np.array_equal(a, b)
            assert a.shape == (4, w)
            assert a.dtype == np.float32
            # z-scored output: per-channel mean 0, variance 1
            assert np.abs(a.mean(axis=1)).max() < 1e-6
            assert np.abs(a.astype(np.float64).var(axis=1) - 1.0).max() < 1e-5


class TestSplits:
    def test_leave_one_session_out(self):
        m = make_manifest(domains=[(0, 0), (0, 1), (0, 2), (1, 0)])
        plan = leave_one_session_out(m, subject=0, target_session=1)
        assert plan.target == (0, 1)
        assert plan.sources == [(0, 0), (0, 2)]

    def test_target_not_in_sources(self):
        with pytest.raises(ConfigError):
            SplitPlan(subject=0, target=(0, 1), sources=[(0, 1), (0, 2)])

    def test_missing_session(self):
        m = make_manifest()
        with pytest.raises(ConfigError):
            leave_one_session_out(m, subject=0, target_session=9)


def make_trials(rng, domains, per_domain=30, c=4, t=16, n_classes=2):
    trials = []
    tid = 0
    for d in domains:
        for i in range(per_domain):
            trials.append(Trial(signal=rng.normal(size=(c, t)).astype(np.float32),
                                label=i % n_classes, domain=d, trial_id=tid))
            tid += 1
    return trials


class TestSampler:
    def test_balanced_batches(self, rng):
        domains = [(0, s) for s in range(5)]
        trials = make_trials(rng, domains)
        x, y, doms = DomainBatchSampler(trials, 50, 5, np.random.default_rng(3)).next_batch()
        assert x.shape[0] == 50
        counts = {d: doms.count(d) for d in set(doms)}
        assert all(v == 10 for v in counts.values())
        assert len(counts) == 5

    def test_single_domain_batches(self, rng):
        trials = make_trials(rng, [(0, 0), (0, 1)], per_domain=60)
        x, y, doms = DomainBatchSampler(trials, 50, 1, np.random.default_rng(3)).next_batch()
        assert len(set(doms)) == 1 and len(doms) == 50

    def test_deterministic_under_seed(self, rng):
        trials = make_trials(rng, [(0, 0), (0, 1)], per_domain=60)
        a = DomainBatchSampler(trials, 20, 2, np.random.default_rng(11)).next_batch()
        b = DomainBatchSampler(trials, 20, 2, np.random.default_rng(11)).next_batch()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]

    def test_all_domains_visited_each_epoch(self, rng):
        domains = [(0, s) for s in range(6)]
        trials = make_trials(rng, domains, per_domain=10)
        sampler = DomainBatchSampler(trials, 10, 2, np.random.default_rng(0))
        seen = set()
        for _ in range(3):  # 6 domains / 2 per batch
            _, _, doms = sampler.next_batch()
            seen.update(doms)
        assert seen == set(domains)

    def test_indivisible_batch_rejected(self, rng):
        trials = make_trials(rng, [(0, 0), (0, 1)])
        with pytest.raises(ConfigError):
            DomainBatchSampler(trials, 50, 3, np.random.default_rng(0)).next_batch()

    def test_too_many_domains_rejected(self, rng):
        trials = make_trials(rng, [(0, 0)])
        with pytest.raises(ConfigError):
            DomainBatchSampler(trials, 50, 5, np.random.default_rng(0)).next_batch()


class TestSynthGenerate:
    def test_reproducible(self):
        spec = SynthSpec(n_classes=2, sensors=4, n_domains=2, trials_per_cell=3, seed=9)
        m1, t1 = synth_generate(spec)
        m2, t2 = synth_generate(spec)
        assert m1 == m2
        for a, b in zip(t1, t2):
            assert np.array_equal(a.signal, b.signal)
            assert (a.label, a.domain, a.trial_id) == (b.label, b.domain, b.trial_id)

    def test_labels_balanced(self):
        spec = SynthSpec(n_classes=3, sensors=4, n_domains=2, trials_per_cell=5, seed=1)
        _, trials = synth_generate(spec)
        labels = [t.label for t in trials]
        assert all(labels.count(k) == 10 for k in range(3))

    def test_covariance_classifier_separates_classes(self):
        # single domain, two classes with disjoint active blocks: nearest
        # class-mean on logeig-vectorized raw covariances must excel
        spec = SynthSpec(n_classes=2, sensors=8, n_domains=1, trials_per_cell=40,
                         domain_shift=0.0, seed=5)
        _, trials = synth_generate(spec)
        feats, labels = [], []
        for tr in trials:
            x = tr.signal.astype(np.float64)
            c = np.cov(x) + 1e-6 * np.eye(x.shape[0])
            feats.append(linalg.sym_fn(c, "log").ravel())
            labels.append(tr.label)
        feats = np.stack(feats)
        labels = np.array(labels)
        train = np.arange(len(trials)) % 2 == 0
        means = [feats[train & (labels == k)].mean(axis=0) for k in (0, 1)]
        pred = np.argmin(
            np.stack([np.linalg.norm(feats[~train] - m, axis=1) for m in means]), axis=0
        )
        assert (pred == labels[~train]).mean() > 0.95

    def test_domain_shift_moves_covariance_means(self):
        spec = SynthSpec(n_classes=2, sensors=6, n_domains=3, trials_per_cell=20,
                         domain_shift=1.0, seed=2)
        _, trials = synth_generate(spec)
        means = []
        for s in range(3):
            covs = np.stack([
                np.cov(t.signal.astype(np.float64)) + 1e-6 * np.eye(6)
                for t in trials if t.domain == (0, s)
            ])
            means.append(karcher_mean(covs, iters=5))
        dists = [airm_dist(means[i], means[j]) for i in range(3) for j in range(i + 1, 3)]
        assert np.mean(dists) > 0.1

    def test_odd_sensor_count_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(sensors=7)


class TestStoreIO:
    def test_round_trip_lossless(self, tmp_path, rng):
        spec = SynthSpec(n_classes=2, sensors=4, n_domains=2, trials_per_cell=4, seed=3)
        manifest, trials = synth_generate(spec)
        save_dataset(tmp_path / "ds", manifest, trials)
        m2, t2 = load_dataset(tmp_path / "ds")
        assert m2 == manifest
        assert len(t2) == len(trials)
        for a, b in zip(trials, t2):
            assert np.array_equal(a.signal, b.signal)
            assert (a.label, a.domain, a.trial_id) == (b.label, b.domain, b.trial_id)

    def test_truncated_tensor_file(self, tmp_path):
        spec = SynthSpec(n_classes=2, sensors=4, n_domains=1, trials_per_cell=2, seed=3)
        manifest, trials = synth_generate(spec)
        save_dataset(tmp_path / "ds", manifest, trials)
        blob = (tmp_path / "ds" / "trials.f32").read_bytes()
        (tmp_path / "ds" / "trials.f32").write_bytes(blob[:-10])
        with pytest.raises(DataError):
            load_dataset(tmp_path / "ds")

    def test_unknown_version(self, tmp_path):
        spec = SynthSpec(n_classes=2, sensors=4, n_domains=1, trials_per_cell=2, seed=3)
        manifest, trials = synth_generate(spec)
        save_dataset(tmp_path / "ds", manifest, trials)
        import json
        doc = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        doc["format_version"] = 99
        (tmp_path / "ds" / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_out_of_range(self, tmp_path, label):
        spec = SynthSpec(n_classes=2, sensors=4, n_domains=1, trials_per_cell=2, seed=3)
        manifest, trials = synth_generate(spec)
        trials[1].label = label
        save_dataset(tmp_path / "ds", manifest, trials)
        with pytest.raises(DataError, match="label_id"):
            load_dataset(tmp_path / "ds")

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "ds").mkdir()
        (tmp_path / "ds" / "manifest.json").write_text("{not json")
        with pytest.raises(DataError):
            load_dataset(tmp_path / "ds")


class TestManifestValidation:
    def test_window_overlap_ordering(self):
        with pytest.raises(ConfigError):
            make_manifest(window_ms=100.0, overlap_ms=100.0)

    def test_indices_in_range(self):
        with pytest.raises(ConfigError):
            make_manifest(flexor_ids=[0, 9])

    def test_trial_rejects_nan(self):
        with pytest.raises(DataError):
            Trial(signal=np.array([[np.nan, 0.0]]), label=0, domain=(0, 0), trial_id=0)
