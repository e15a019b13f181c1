"""Segmentation, fold planning, aggregation, synthetic EEG, manifest I/O."""

import json

import numpy as np
import pytest
from scipy import signal as sps
from scipy import stats

from adhdeepnet import data
from adhdeepnet.data import (CHANNELS, FRONTAL, EegRecording, IngestionError,
                             PlanningError, aggregate_subject,
                             generate_synthetic, load_dataset, plan_folds,
                             save_dataset, segment, segment_all)


def make_recording(subject_id, n_samples, label="ADHD", seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((19, n_samples)).astype(np.float32)
    return EegRecording(subject_id, samples, label)


# -- recording validation ----------------------------------------------------


def test_recording_rejects_wrong_channel_count():
    with pytest.raises(IngestionError, match="19 channels"):
        EegRecording("s1", np.zeros((18, 600), np.float32), "ADHD")


def test_recording_rejects_wrong_fs():
    with pytest.raises(IngestionError, match="fs=128"):
        EegRecording("s1", np.zeros((19, 600), np.float32), "ADHD", fs=256)


def test_recording_rejects_short_signal():
    with pytest.raises(IngestionError, match="at least 512"):
        EegRecording("s1", np.zeros((19, 511), np.float32), "ADHD")


def test_recording_rejects_bad_label():
    with pytest.raises(IngestionError, match="label"):
        EegRecording("s1", np.zeros((19, 600), np.float32), "adhd")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_recording_rejects_non_finite_sample(bad):
    samples = np.zeros((19, 1024), np.float32)
    samples[4, 700] = bad
    with pytest.raises(IngestionError, match=r"s1: non-finite.*T3.*700"):
        EegRecording("s1", samples, "ADHD")


# -- segmentation ---------------------------------------------------------------


def test_segment_exactly_one_window():
    trials = segment(make_recording("s1", 512))
    assert len(trials) == 1
    assert trials[0].window.shape == (19, 512)
    assert trials[0].segment_index == 0


def test_segment_discards_remainder():
    trials = segment(make_recording("s1", 5000))
    assert len(trials) == 9  # floor(5000/512), 392 samples dropped


def test_segment_windows_partition_prefix():
    rec = make_recording("s1", 1500, seed=1)
    trials = segment(rec)
    rebuilt = np.concatenate([t.window for t in trials], axis=1)
    np.testing.assert_array_equal(rebuilt, rec.samples[:, :2 * 512])


def test_segment_windows_do_not_overlap():
    rec = make_recording("s1", 1024, seed=2)
    t0, t1 = segment(rec)
    np.testing.assert_array_equal(t0.window, rec.samples[:, :512])
    np.testing.assert_array_equal(t1.window, rec.samples[:, 512:1024])


def test_trial_label_vectors():
    adhd = segment(make_recording("a", 512, "ADHD"))[0]
    hc = segment(make_recording("h", 512, "HC"))[0]
    assert adhd.label_vector == (1.0, 0.0)
    assert hc.label_vector == (0.0, 1.0)


# -- fold planning ------------------------------------------------------------------


def synthetic_cohort(n_adhd, n_hc, seed=0, min_trials=10, max_trials=12):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n_adhd):
        n = int(rng.integers(min_trials, max_trials + 1)) * 512
        recs.append(make_recording(f"a{i:03d}", n, "ADHD", seed=100 + i))
    for i in range(n_hc):
        n = int(rng.integers(min_trials, max_trials + 1)) * 512
        recs.append(make_recording(f"h{i:03d}", n, "HC", seed=200 + i))
    return recs


def test_plan_folds_deterministic():
    recs = synthetic_cohort(20, 20)
    p1 = plan_folds(recs, k=10, seed=7)
    p2 = plan_folds(recs, k=10, seed=7)
    assert p1.assignments == p2.assignments


def test_plan_folds_subject_atomicity_and_cover():
    recs = synthetic_cohort(61, 60, seed=3)
    plan = plan_folds(recs, k=10, seed=0)
    assert set(plan.assignments) == {r.subject_id for r in recs}
    assert set(plan.assignments.values()) == set(range(10))
    sizes = [len(plan.subjects_in(f)) for f in range(10)]
    assert all(12 <= s <= 13 for s in sizes)  # 121 subjects over 10 folds


def test_plan_folds_ratio_balance():
    recs = synthetic_cohort(61, 60, seed=3)
    plan = plan_folds(recs, k=10, seed=0)
    total = {"ADHD": 0, "HC": 0}
    for c in plan.counts:
        total["ADHD"] += c["ADHD"]
        total["HC"] += c["HC"]
    global_ratio = total["ADHD"] / total["HC"]
    for c in plan.counts:
        ratio = c["ADHD"] / c["HC"]
        assert abs(ratio - global_ratio) / global_ratio <= 0.10 + 1e-9


def test_plan_folds_one_subject_per_fold():
    recs = synthetic_cohort(5, 5, seed=4)
    plan = plan_folds(recs, k=10, seed=1)
    sizes = [len(plan.subjects_in(f)) for f in range(10)]
    assert sizes == [1] * 10


def test_plan_folds_train_test_disjoint():
    recs = synthetic_cohort(20, 20, seed=5)
    plan = plan_folds(recs, k=10, seed=2)
    for f in range(10):
        test = set(plan.subjects_in(f))
        train = set(plan.subjects_not_in(f))
        assert not test & train
        assert test | train == set(plan.assignments)


def test_plan_folds_too_few_subjects():
    with pytest.raises(PlanningError):
        plan_folds(synthetic_cohort(3, 3), k=10, seed=0)


def test_plan_folds_reports_best_on_failure():
    # one ADHD subject carries almost all positive trials: unbalanceable
    recs = [make_recording("a-big", 512 * 200, "ADHD", seed=6)]
    recs += [make_recording(f"a{i}", 512, "ADHD", seed=7 + i)
             for i in range(10)]
    recs += [make_recording(f"h{i}", 512 * 3, "HC", seed=30 + i)
             for i in range(11)]
    with pytest.raises(PlanningError, match="deviation"):
        plan_folds(recs, k=10, seed=0, max_attempts=50)


# -- aggregation -----------------------------------------------------------------------


def test_aggregate_majority():
    assert aggregate_subject([(0.9, 0.1), (0.4, 0.6)]) == "ADHD"


def test_aggregate_tie_goes_positive():
    assert aggregate_subject([(0.5, 0.5), (0.5, 0.5)]) == "ADHD"


def test_aggregate_single_segment():
    assert aggregate_subject([(0.2, 0.8)]) == "HC"


def test_aggregate_empty_errors():
    with pytest.raises(ValueError):
        aggregate_subject([])


def test_aggregate_uses_probability_mass_not_votes():
    # two weak HC votes vs one confident ADHD: mass wins
    assert aggregate_subject([(0.05, 0.95), (0.45, 0.55),
                              (0.99, 0.01)]) == "HC"
    assert aggregate_subject([(0.4, 0.6), (0.4, 0.6), (0.99, 0.01)]) == "ADHD"


# -- synthetic EEG ------------------------------------------------------------------------


def theta_beta_ratio(recording):
    idx = [CHANNELS.index(ch) for ch in FRONTAL]
    freqs, psd = sps.welch(recording.samples[idx], fs=128, nperseg=256,
                           axis=1)
    theta = psd[:, (freqs >= 4) & (freqs < 8)].mean()
    beta = psd[:, (freqs >= 13) & (freqs < 30)].mean()
    return theta / beta


def test_synthetic_shapes_and_labels():
    recs = generate_synthetic(3, 20, 0.5, seed=0)
    assert len(recs) == 6
    assert sum(r.label == "ADHD" for r in recs) == 3
    for r in recs:
        assert r.samples.shape == (19, 20 * 128)
        assert r.samples.dtype == np.float32


def test_synthetic_deterministic():
    a = generate_synthetic(2, 10, 0.7, seed=42)
    b = generate_synthetic(2, 10, 0.7, seed=42)
    for ra, rb in zip(a, b):
        assert ra.subject_id == rb.subject_id
        np.testing.assert_array_equal(ra.samples, rb.samples)


def test_synthetic_seed_changes_data():
    a = generate_synthetic(1, 10, 0.5, seed=1)[0]
    b = generate_synthetic(1, 10, 0.5, seed=2)[0]
    assert not np.array_equal(a.samples, b.samples)


def test_synthetic_separation_one_orders_ratios():
    recs = generate_synthetic(10, 40, 1.0, seed=5)
    adhd = [theta_beta_ratio(r) for r in recs if r.label == "ADHD"]
    hc = [theta_beta_ratio(r) for r in recs if r.label == "HC"]
    pairs = [(a, h) for a in adhd for h in hc]
    frac = np.mean([a > h for a, h in pairs])
    assert frac >= 0.95


def test_synthetic_separation_zero_indistinguishable():
    recs = generate_synthetic(20, 30, 0.0, seed=11)
    adhd = [theta_beta_ratio(r) for r in recs if r.label == "ADHD"]
    hc = [theta_beta_ratio(r) for r in recs if r.label == "HC"]
    _, p = stats.ttest_ind(adhd, hc, equal_var=False)
    assert p > 0.05


def test_synthetic_rejects_bad_separation():
    with pytest.raises(ValueError):
        generate_synthetic(2, 10, 1.5, seed=0)


# -- manifest I/O --------------------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    recs = generate_synthetic(2, 8, 0.5, seed=3)
    manifest = save_dataset(recs, tmp_path / "ds")
    loaded = load_dataset(manifest)
    assert len(loaded) == len(recs)
    by_id = {r.subject_id: r for r in loaded}
    for rec in recs:
        np.testing.assert_array_equal(by_id[rec.subject_id].samples,
                                      rec.samples)
        assert by_id[rec.subject_id].label == rec.label


def test_load_csv_fixture(tmp_path):
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((19, 600)).astype(np.float32)
    np.savetxt(tmp_path / "subj.csv", mat, delimiter=",")
    manifest = {"subjects": [{"subject_id": "s1", "path": "subj.csv",
                              "label": "HC"}]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    recs = load_dataset(mpath)
    assert len(recs) == 1
    np.testing.assert_allclose(recs[0].samples, mat, rtol=1e-5)


def test_load_rejects_wrong_channel_count(tmp_path):
    mat = np.zeros((18, 600), np.float32)
    np.savetxt(tmp_path / "bad.csv", mat, delimiter=",")
    manifest = [{"subject_id": "s1", "path": "bad.csv", "label": "ADHD"}]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(IngestionError, match="bad.csv|19 channels"):
        load_dataset(mpath)


def test_load_rejects_wrong_fs(tmp_path):
    np.zeros((19, 600), np.float32).astype("<f4").tofile(tmp_path / "s.f32")
    manifest = [{"subject_id": "s1", "path": "s.f32", "label": "ADHD",
                 "fs": 256}]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(IngestionError, match="fs=128"):
        load_dataset(mpath)


def test_load_collects_all_problems(tmp_path):
    np.zeros((19, 600), np.float32).astype("<f4").tofile(tmp_path / "ok.f32")
    manifest = [
        {"subject_id": "bad1", "path": "missing.f32", "label": "ADHD"},
        {"subject_id": "bad2", "path": "ok.f32", "label": "WRONG"},
        {"subject_id": "good", "path": "ok.f32", "label": "HC"},
    ]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(IngestionError, match="2 of 3"):
        load_dataset(mpath)


def test_load_rejects_wrong_manifest_channel_order(tmp_path):
    manifest = {"channels": list(reversed(CHANNELS)), "subjects": []}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(IngestionError, match="channel order"):
        load_dataset(mpath)


def test_segment_all_counts():
    recs = [make_recording("a", 512 * 3, "ADHD"),
            make_recording("b", 512 * 2 + 100, "HC")]
    trials = segment_all(recs)
    assert len(trials) == 5
    assert sum(t.label == "ADHD" for t in trials) == 3


def test_channel_list_is_the_contract():
    assert data.CHANNELS == ("Fz", "Cz", "Pz", "C3", "T3", "C4", "T4",
                             "Fp1", "Fp2", "F3", "F4", "F7", "F8", "P3",
                             "P4", "T5", "T6", "O1", "O2")
    assert len(data.CHANNELS) == 19
    assert set(data.FRONTAL) <= set(data.CHANNELS)


# -- subject-disjoint splits -------------------------------------------------


def _reference_validation_slice(train_trials, rng, fraction=0.10):
    """The early-stopping slice written out without the shared helpers:
    the same rng calls and list order ``validation_slice`` must keep."""
    by_label = {}
    for t in train_trials:
        by_label.setdefault(t.label, set()).add(t.subject_id)
    held = set()
    for label in data.LABELS:
        subjects = sorted(by_label.get(label, ()))
        n_hold = max(1, round(fraction * len(subjects)))
        if len(subjects) - n_hold < 1:
            return train_trials, []
        picks = rng.choice(len(subjects), size=n_hold, replace=False)
        held.update(subjects[i] for i in picks)
    core = [t for t in train_trials if t.subject_id not in held]
    val = [t for t in train_trials if t.subject_id in held]
    return core, val


def _reference_bipartition(trials, rng):
    """The inner halves written out without the shared helpers: the same
    rng calls and list order ``stratified_bipartition`` must keep."""
    subject_label = {}
    for t in trials:
        subject_label.setdefault(t.subject_id, t.label)
    by_label = {lab: sorted(s for s, l in subject_label.items() if l == lab)
                for lab in data.LABELS}
    first = set()
    for lab in data.LABELS:
        subs = list(by_label[lab])
        rng.shuffle(subs)
        first.update(subs[:len(subs) // 2 + len(subs) % 2])
    return ([t for t in trials if t.subject_id in first],
            [t for t in trials if t.subject_id not in first])


def _interleaved_trials(seed):
    """Trials of 13 ADHD and 9 HC subjects in a shuffled order, so a split
    that reordered them would show."""
    rng = np.random.default_rng(seed)
    trials = [data.Trial(f"{label.lower()}-{s:03d}", k, None, label)
              for label, n in (("ADHD", 13), ("HC", 9))
              for s in range(n) for k in range(3)]
    return [trials[i] for i in rng.permutation(len(trials))]


def _same_trials(got, want):
    assert [id(t) for t in got] == [id(t) for t in want]


def test_subjects_by_label_sorts_each_class_in_label_order():
    trials = _interleaved_trials(0)[:20]
    got = data.subjects_by_label(trials)
    assert list(got) == list(data.LABELS)
    for label, subjects in got.items():
        assert subjects == sorted({t.subject_id for t in trials
                                   if t.label == label})
    assert data.subjects_by_label([t for t in trials if t.label == "HC"]) \
        ["ADHD"] == []


def test_split_subjects_keeps_the_order_of_each_side():
    trials = _interleaved_trials(1)
    held = {"adhd-003", "hc-007"}
    rest, taken = data.split_subjects(trials, held, "test boundary")
    _same_trials(rest, [t for t in trials if t.subject_id not in held])
    _same_trials(taken, [t for t in trials if t.subject_id in held])


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5])
def test_validation_slice_draws_the_reference_lists(seed, fraction):
    trials = _interleaved_trials(seed)
    got = data.validation_slice(trials, np.random.default_rng(seed),
                                fraction)
    want = _reference_validation_slice(trials, np.random.default_rng(seed),
                                    fraction)
    for g, w in zip(got, want):
        _same_trials(g, w)


@pytest.mark.parametrize("seed", range(5))
def test_stratified_bipartition_draws_the_reference_lists(seed):
    from adhdeepnet.optimize import stratified_bipartition
    trials = _interleaved_trials(seed)
    got = stratified_bipartition(trials, np.random.default_rng(seed))
    want = _reference_bipartition(trials, np.random.default_rng(seed))
    for g, w in zip(got, want):
        _same_trials(g, w)


def test_check_disjoint_raises_naming_the_boundary():
    trials = _interleaved_trials(2)
    a = [t for t in trials if t.subject_id == "hc-001"]
    data.check_disjoint(a, [t for t in trials if t not in a], "fold 4")
    with pytest.raises(data.LeakageError,
                       match=r"fold 4: subjects on both sides: \['hc-001'\]"):
        data.check_disjoint(a, trials, "fold 4")
