import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from tmknet import linalg
from tmknet.data import (
    DatasetManifest,
    DomainBatchSampler,
    SplitPlan,
    SynthSpec,
    Trial,
    leave_one_session_out,
    load_dataset,
    save_dataset,
    synth_generate,
    zscore,
)
from tmknet.errors import ConfigError, DataError
from tmknet.experiment import RunConfig
from tmknet.geometry import airm_dist
from tmknet.metrics import report_from_predictions

from spd_oracles import karcher_mean


def make_manifest(**overrides):
    base = dict(
        name="toy", fs=2000.0, sensors=4, class_names=["a", "b"],
        domains=[(0, 0), (0, 1)], flexor_ids=[0, 1], extensor_ids=[2, 3],
        proximal_ids=[0, 2], distal_ids=[1, 3], window_ms=200.0, overlap_ms=100.0,
    )
    base.update(overrides)
    return DatasetManifest(**base)


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
        # the manifest's own montage check, at construction
        with pytest.raises(ConfigError, match="^sensor count must be even, got 7$"):
            SynthSpec(sensors=7)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -3"):
            SynthSpec(seed=-3)


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

    @staticmethod
    def _small_store(path):
        spec = SynthSpec(n_classes=2, sensors=4, n_domains=1, trials_per_cell=2, seed=3)
        save_dataset(path, *synth_generate(spec))
        return path

    def test_manifest_document_is_to_doc(self, tmp_path):
        ds = self._small_store(tmp_path / "ds")
        manifest, _ = load_dataset(ds)
        doc = json.loads((ds / "manifest.json").read_text())
        assert doc == json.loads(json.dumps(asdict(manifest)))
        assert doc["domains"] == [[0, 0]]

    @pytest.mark.parametrize("edit", [{"overlap_ms": 900.0}, {"flexor_ids": [0, 7]},
                                      {"fs": "fast"}, {"fs": float("inf")}, {"domains": [5]},
                                      {"sensors": 0}, {"class_names": "ab"},
                                      {"flexor_ids": [0.0, 1]}, {"extensor_ids": [0, 1]},
                                      {"distal_ids": [0, 2]}],
                             ids=["overlap-exceeds-window", "index-out-of-range",
                                  "fs-string", "fs-inf", "domain-int", "no-sensors",
                                  "class-names-string", "flexor-id-float",
                                  "extensor-is-flexor", "distal-is-proximal"])
    def test_invalid_manifest_is_data_error(self, tmp_path, edit):
        ds = self._small_store(tmp_path / "ds")
        doc = json.loads((ds / "manifest.json").read_text())
        (ds / "manifest.json").write_text(json.dumps({**doc, **edit}))
        with pytest.raises(DataError, match="manifest.json"):
            load_dataset(ds)

    @pytest.mark.parametrize("name", ["index.csv", "trials.f32"])
    def test_missing_store_file(self, tmp_path, name):
        ds = self._small_store(tmp_path / "ds")
        (ds / name).unlink()
        with pytest.raises(DataError, match=name):
            load_dataset(ds)

    @staticmethod
    def _edit_index(ds, line, field, value):
        """Set one field of index.csv; line 0 is the header."""
        with open(ds / "index.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[line][field] = value
        with open(ds / "index.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize("field,value", [(1, "x12"), (4, ""), (0, "1.5")])
    def test_non_integer_index_field(self, tmp_path, field, value):
        ds = self._small_store(tmp_path / "ds")
        self._edit_index(ds, 2, field, value)
        with pytest.raises(DataError, match=r"index\.csv line 3"):
            load_dataset(ds)

    def test_short_index_row(self, tmp_path):
        ds = self._small_store(tmp_path / "ds")
        lines = (ds / "index.csv").read_text().splitlines(keepends=True)
        lines[1] = "0,0\r\n"
        (ds / "index.csv").write_text("".join(lines))
        with pytest.raises(DataError, match=r"index\.csv line 2"):
            load_dataset(ds)

    def test_index_header_missing_column(self, tmp_path):
        ds = self._small_store(tmp_path / "ds")
        text = (ds / "index.csv").read_text()
        (ds / "index.csv").write_text(text.replace("label_id", "label", 1))
        with pytest.raises(DataError, match="label_id"):
            load_dataset(ds)

    def test_negative_byte_offset(self, tmp_path):
        ds = self._small_store(tmp_path / "ds")
        self._edit_index(ds, 2, 1, "-8")
        with pytest.raises(DataError, match="trial 1"):
            load_dataset(ds)

    @pytest.mark.parametrize("line,field,value,message", [
        (3, 0, "0", "trial id 0 appears more than once"),
        (2, 4, "9", r"trial 1 has domain \(0, 9\), which manifest.json does not list"),
        (2, 3, "5", r"trial 1 has domain \(5, 0\), which manifest.json does not list"),
        (2, 1, "0", "trials 0 and 1 share byte offset 0"),
        (2, 1, "4", "trial 1 starts at byte 4, not a multiple"),  # straddles trials 0 and 1
    ], ids=["duplicate-id", "unlisted-session", "unlisted-subject", "shared-offset",
            "misaligned-offset"])
    def test_inconsistent_index_row(self, tmp_path, line, field, value, message):
        ds = self._small_store(tmp_path / "ds")
        self._edit_index(ds, line, field, value)
        with pytest.raises(DataError, match=message):
            load_dataset(ds)


class TestManifestValidation:
    def test_window_overlap_ordering(self):
        with pytest.raises(ConfigError):
            make_manifest(window_ms=100.0, overlap_ms=100.0)

    def test_indices_in_range(self):
        with pytest.raises(ConfigError):
            make_manifest(flexor_ids=[0, 9])

    @pytest.mark.parametrize("edit,message", [
        (dict(sensors=3, flexor_ids=[0], extensor_ids=[1], proximal_ids=[0],
              distal_ids=[1, 2]), "must be even"),
        (dict(flexor_ids=[0], extensor_ids=[1, 2, 3]), "each cover half"),
        (dict(extensor_ids=[0, 1]), r"flexor \+ extensor lists must partition"),
        (dict(proximal_ids=[0, 1], distal_ids=[1, 3]), r"proximal \+ distal lists must"),
    ], ids=["odd-count", "unequal-halves", "extensor-is-flexor", "proximal-distal-overlap"])
    def test_muscle_groups_partition_the_sensors(self, edit, message):
        """The checks the stem makes of its config, made when the data loads."""
        with pytest.raises(ConfigError, match=message):
            make_manifest(**edit)

    @pytest.mark.parametrize("edit,field", [
        ({"domains": [(0, 0, 1)]}, "domains"), ({"domains": [(0, "a")]}, "domains"),
        ({"sensors": True}, "sensors"), ({"format_version": True}, "format_version"),
        ({"notes": None}, "notes"),
    ], ids=["domain-triple", "domain-string", "sensors-bool", "version-bool", "notes-null"])
    def test_field_types_match_annotations(self, edit, field):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            make_manifest(**edit)

    def test_trial_rejects_nan(self):
        with pytest.raises(DataError):
            Trial(signal=np.array([[np.nan, 0.0]]), label=0, domain=(0, 0), trial_id=0)


def _report_with_nan_accuracy():
    rep = report_from_predictions([0, 1], [0, 1], 2)
    rep.accuracy, rep.seed, rep.config_hash = float("nan"), 7, "abc"
    return rep


class TestJsonDocuments:
    @pytest.mark.parametrize("doc", [
        RunConfig(),
        RunConfig(ablation=("no_mss", "no_dilated", "shared_bn"), r_resolution=(0.0625,),
                  cov_lambda=0.5, adaptation="interleaved"),
        synth_generate(SynthSpec(n_classes=2, sensors=4, n_domains=3, trials_per_cell=1,
                                 seed=3))[0],
        _report_with_nan_accuracy(),
    ], ids=["run-config-default", "run-config-tuples-and-flags", "manifest",
            "report-nan-seed-hash"])
    def test_round_trip(self, doc):
        text = json.dumps(asdict(doc))
        back = type(doc)(**json.loads(text))
        # repr, unlike ==, holds NaN equal to itself and tells a tuple from a list
        assert repr(back) == repr(doc)
        assert json.dumps(asdict(back)) == text
