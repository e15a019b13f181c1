"""EEG ingestion, trial segmentation, fold planning, subject aggregation,
and a synthetic 19-channel generator for runs without clinical data.

Recordings are 19-channel, 128 Hz voltage matrices with a binary subject
label. Trials are contiguous non-overlapping 4-second windows (19x512);
trailing samples that do not fill a window are discarded. All subject-level
bookkeeping (folds, aggregation) is keyed by subject_id so that no
subject's trials ever straddle a train/test boundary.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FS = 128
WINDOW = 512  # 4 seconds at 128 Hz
CHANNELS = ("Fz", "Cz", "Pz", "C3", "T3", "C4", "T4", "Fp1", "Fp2",
            "F3", "F4", "F7", "F8", "P3", "P4", "T5", "T6", "O1", "O2")
FRONTAL = ("Fp1", "Fp2", "F3", "F4", "F7", "F8", "Fz")
LABELS = ("ADHD", "HC")  # the order is the class index
LABEL_VECTORS = {"ADHD": (1.0, 0.0), "HC": (0.0, 1.0)}


def class_index(label):
    """Class index of a label: its position in ``LABELS``."""
    return LABELS.index(label)


class IngestionError(ValueError):
    """A recording or manifest violates the input contract."""


class PlanningError(RuntimeError):
    """Fold planning could not satisfy the balance invariant."""


@dataclass
class EegRecording:
    """One subject's 19-channel recording; every sample must be finite."""

    subject_id: str
    samples: np.ndarray  # [19, p] float32 microvolts
    label: str
    fs: int = FS

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 2 or self.samples.shape[0] != len(CHANNELS):
            raise IngestionError(
                f"{self.subject_id}: expected {len(CHANNELS)} channels, got "
                f"shape {self.samples.shape}")
        bad = np.argwhere(~np.isfinite(self.samples))
        if len(bad):
            channel, index = bad[0]
            raise IngestionError(
                f"{self.subject_id}: non-finite sample "
                f"{self.samples[channel, index]} on channel "
                f"{CHANNELS[channel]} at sample {index} "
                f"({len(bad)} non-finite in all)")
        if self.fs != FS:
            raise IngestionError(
                f"{self.subject_id}: only fs={FS} supported, got {self.fs}")
        if self.samples.shape[1] < WINDOW:
            raise IngestionError(
                f"{self.subject_id}: recording has {self.samples.shape[1]} "
                f"samples, need at least {WINDOW}")
        if self.label not in LABELS:
            raise IngestionError(
                f"{self.subject_id}: label must be one of {LABELS}, got "
                f"{self.label!r}")

    @property
    def trial_count(self):
        return self.samples.shape[1] // WINDOW


@dataclass
class Trial:
    subject_id: str
    segment_index: int
    window: np.ndarray  # [19, 512] float32
    label: str
    copy: int = 0  # 0 = raw segment, >=1 = augmented copy number

    @property
    def label_vector(self):
        return LABEL_VECTORS[self.label]


def segment(recording):
    """Split a recording into floor(p/512) contiguous 19x512 trials."""
    count = recording.trial_count
    trials = []
    for s in range(count):
        window = recording.samples[:, s * WINDOW:(s + 1) * WINDOW]
        trials.append(Trial(recording.subject_id, s, np.ascontiguousarray(window),
                            recording.label))
    return trials


def segment_all(recordings):
    out = []
    for rec in recordings:
        out.extend(segment(rec))
    return out


# -- fold planning ---------------------------------------------------------------


@dataclass
class FoldPlan:
    assignments: dict  # subject_id -> fold index 0..k-1
    k: int
    counts: list = field(default_factory=list)  # per fold {label: trials}

    def subjects_in(self, fold):
        return sorted(s for s, f in self.assignments.items() if f == fold)

    def subjects_not_in(self, fold):
        return sorted(s for s, f in self.assignments.items() if f != fold)


def _fold_trial_counts(recordings, assignments, k):
    counts = [{label: 0 for label in LABELS} for _ in range(k)]
    for rec in recordings:
        counts[assignments[rec.subject_id]][rec.label] += rec.trial_count
    return counts


def _balance_ok(counts, global_ratio, tolerance=0.10):
    worst = 0.0
    for c in counts:
        if c["HC"] == 0 or c["ADHD"] == 0:
            return False, np.inf
        ratio = c["ADHD"] / c["HC"]
        dev = abs(ratio - global_ratio) / global_ratio
        worst = max(worst, dev)
    return worst <= tolerance, worst


def plan_folds(recordings, k=10, seed=0, tolerance=0.10, max_attempts=1000):
    """Assign whole subjects to k folds with near-equal class trial ratios.

    Subjects are shuffled and dealt round-robin per class so fold sizes stay
    even; the deal is retried until every fold's ADHD:HC trial ratio is
    within ``tolerance`` of the global ratio. When a class has fewer
    subjects than folds the ratio check is vacuous (some folds cannot hold
    both classes) and the first deal stands.
    """
    if k < 2:
        raise PlanningError(f"k-fold planning needs k >= 2, got k={k}")
    by_label = {label: sorted(r.subject_id for r in recordings
                              if r.label == label) for label in LABELS}
    if len(recordings) < k:
        raise PlanningError(
            f"k={k} folds need at least {k} subjects, got "
            f"{len(recordings)}")
    ids = [r.subject_id for r in recordings]
    if len(set(ids)) != len(ids):
        raise PlanningError("duplicate subject_id in dataset")

    totals = {label: sum(r.trial_count for r in recordings
                         if r.label == label) for label in LABELS}
    check_ratio = all(len(v) >= k for v in by_label.values())
    global_ratio = (totals["ADHD"] / totals["HC"]) if totals["HC"] else np.inf

    rng = np.random.default_rng(seed)
    best_dev, best_plan = np.inf, None
    for _ in range(max_attempts):
        assignments = {}
        # one shuffled fold sequence, dealt through continuously: fold
        # sizes stay within one subject of each other while retries move
        # the size-remainder subjects of each class to different folds
        fold_order = rng.permutation(k)
        cursor = 0
        for label in LABELS:
            order = list(by_label[label])
            rng.shuffle(order)
            for sid in order:
                assignments[sid] = int(fold_order[cursor % k])
                cursor += 1
        counts = _fold_trial_counts(recordings, assignments, k)
        if not check_ratio:
            return FoldPlan(assignments, k, counts)
        ok, dev = _balance_ok(counts, global_ratio, tolerance)
        if ok:
            return FoldPlan(assignments, k, counts)
        if dev < best_dev:
            best_dev, best_plan = dev, counts
    raise PlanningError(
        f"no fold assignment within {tolerance:.0%} of the global "
        f"ADHD:HC trial ratio after {max_attempts} shuffles; best "
        f"deviation {best_dev:.1%} with per-fold counts {best_plan}")


# -- subject-disjoint splits ------------------------------------------------------


class LeakageError(AssertionError):
    """A subject reached both sides of a train/test boundary."""


def subjects_by_label(trials):
    """{label: sorted subject ids} in ``LABELS`` order; a class without
    trials maps to an empty list."""
    pairs = {(t.label, t.subject_id) for t in trials}
    return {label: sorted(s for lab, s in pairs if lab == label)
            for label in LABELS}


def check_disjoint(a, b, context):
    """Raise ``LeakageError`` naming ``context`` if a subject has trials in
    both ``a`` and ``b``."""
    overlap = {t.subject_id for t in a} & {t.subject_id for t in b}
    if overlap:
        raise LeakageError(
            f"{context}: subjects on both sides: {sorted(overlap)[:5]}")


def split_subjects(trials, held, context):
    """(rest, held) trial lists, each in the order of ``trials``: a trial
    goes to the held side when its subject is in ``held``. The boundary is
    checked, naming ``context``."""
    rest = [t for t in trials if t.subject_id not in held]
    taken = [t for t in trials if t.subject_id in held]
    check_disjoint(rest, taken, context)
    return rest, taken


def validation_slice(trials, rng, fraction=0.10, context="validation slice"):
    """(core, val): hold out about ``fraction`` of the subjects of each
    class (at least one) for early stopping, keeping every class in the
    core. When a class cannot spare a subject, returns (trials, [])."""
    held = set()
    for subjects in subjects_by_label(trials).values():
        n_hold = max(1, round(fraction * len(subjects)))
        if len(subjects) - n_hold < 1:
            return trials, []
        picks = rng.choice(len(subjects), size=n_hold, replace=False)
        held.update(subjects[i] for i in picks)
    return split_subjects(trials, held, context)


# -- subject-level aggregation ------------------------------------------------------


def aggregate_subject(predictions):
    """Combine per-trial probability pairs into one subject label.

    Sums the probability vectors and takes the argmax; an exact tie goes to
    the positive (ADHD) class.
    """
    if len(predictions) == 0:
        raise ValueError("aggregate_subject needs at least one prediction")
    sums = np.sum(np.asarray(predictions, dtype=np.float64), axis=0)
    if sums.shape != (2,):
        raise ValueError(
            f"predictions must be probability pairs, got array of shape "
            f"{np.asarray(predictions).shape}")
    return "ADHD" if sums[0] >= sums[1] else "HC"


# -- synthetic EEG --------------------------------------------------------------------


def _pink_noise(rng, n_channels, n_samples):
    """1/f-amplitude noise per channel, unit variance."""
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / FS)
    amp = np.zeros_like(freqs)
    amp[1:] = 1.0 / np.sqrt(freqs[1:])
    spec = (rng.standard_normal((n_channels, freqs.size))
            + 1j * rng.standard_normal((n_channels, freqs.size))) * amp
    x = np.fft.irfft(spec, n=n_samples, axis=1)
    x /= x.std(axis=1, keepdims=True)
    return x


def _band_signal(rng, n_samples, lo, hi):
    """Unit-variance oscillation with energy confined to [lo, hi) Hz."""
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / FS)
    mask = (freqs >= lo) & (freqs < hi)
    spec = np.zeros(freqs.size, dtype=complex)
    spec[mask] = rng.standard_normal(mask.sum()) \
        + 1j * rng.standard_normal(mask.sum())
    x = np.fft.irfft(spec, n=n_samples)
    std = x.std()
    return x / std if std > 0 else x


THETA_BAND = (4.0, 8.0)
BETA_BAND = (13.0, 30.0)
_BASE_STD = 10.0
_OSC_STD = 3.0


def check_synthetic(subjects_per_class, seconds_per_subject, separation):
    """Raise ValueError naming the setting unless ``generate_synthetic``
    can build a cohort from these settings."""
    if not 0.0 <= separation <= 1.0:
        raise ValueError(f"separation must be in [0,1], got {separation}")
    if not np.isfinite(seconds_per_subject):
        raise ValueError(f"seconds must be finite, got {seconds_per_subject}")
    if seconds_per_subject * FS < WINDOW:
        raise ValueError(f"seconds must cover one {WINDOW / FS:g} s trial "
                         f"window, got {seconds_per_subject}")
    if subjects_per_class < 1:
        raise ValueError(f"need at least one subject per class, got "
                         f"{subjects_per_class}")


def generate_synthetic(subjects_per_class, seconds_per_subject, separation,
                       seed):
    """Build a labelled synthetic dataset with a slow-wave class contrast.

    Every channel carries pink noise plus theta- and beta-band
    oscillations. At frontal electrodes the positive class gets theta
    amplified and beta damped in proportion to ``separation``; the control
    class gets the reverse. ``separation=0`` makes the classes identically
    distributed. Deterministic in (parameters, seed); ``check_synthetic``
    refuses the settings it cannot build.
    """
    check_synthetic(subjects_per_class, seconds_per_subject, separation)
    n = int(seconds_per_subject * FS)
    frontal_idx = [CHANNELS.index(ch) for ch in FRONTAL]
    recordings = []
    for class_idx, label in enumerate(LABELS):
        for subj in range(subjects_per_class):
            rng = np.random.default_rng([seed, class_idx, subj])
            g = rng.uniform(0.8, 1.2)
            up = _OSC_STD * (1.0 + 2.0 * separation * g)
            down = _OSC_STD / (1.0 + separation * g)
            theta_std, beta_std = (up, down) if label == "ADHD" else (down, up)
            x = _pink_noise(rng, len(CHANNELS), n) * _BASE_STD
            for ch in range(len(CHANNELS)):
                t_std = theta_std if ch in frontal_idx else _OSC_STD
                b_std = beta_std if ch in frontal_idx else _OSC_STD
                x[ch] += t_std * _band_signal(rng, n, *THETA_BAND)
                x[ch] += b_std * _band_signal(rng, n, *BETA_BAND)
            sid = f"{label.lower()}-{subj:03d}"
            recordings.append(EegRecording(sid, x.astype(np.float32), label))
    return recordings


# -- manifest I/O ------------------------------------------------------------------------


def _atomic_write(path, payload, mode, encoding=None):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    """Write via a sibling temp file and rename, so readers never see a
    truncated file."""
    _atomic_write(path, text, "w", encoding="utf-8")


def atomic_write_bytes(path, payload):
    _atomic_write(path, payload, "wb")


def canonical_json(payload):
    """Key-sorted, indented JSON text: the form of every report file."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_dataset(recordings, out_dir):
    """Write recordings as raw float32 files plus a JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in recordings:
        fname = f"{rec.subject_id}.f32"
        atomic_write_bytes(out / fname, rec.samples.astype("<f4").tobytes())
        entries.append({"subject_id": rec.subject_id, "path": fname,
                        "label": rec.label, "fs": rec.fs})
    manifest = {"channels": list(CHANNELS), "subjects": entries}
    path = out / "manifest.json"
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
    return path


def _read_matrix(path):
    if path.suffix.lower() == ".csv":
        mat = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        return mat.astype(np.float32)
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % len(CHANNELS) != 0:
        raise IngestionError(
            f"{path.name}: {raw.size} float32 values do not divide into "
            f"{len(CHANNELS)} channels")
    return raw.reshape(len(CHANNELS), -1)


# the fields every manifest entry must have
_ENTRY_REQUIRED = ("subject_id", "path", "label")
# the JSON kind of each manifest entry field, where present
_ENTRY_KINDS = {"subject_id": (str, "a string"), "path": (str, "a string"),
                "label": (str, "a string"),
                "fs": ((int, float), "a whole number"),
                "channels": (list, "a list")}


def _wrong_kind(value, kind):
    """True unless ``value`` is of ``kind``; a bool is no number, and a
    float (1e400 reads as infinity) must hold a whole number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return True
    return isinstance(value, float) and not value.is_integer()


def load_dataset(manifest_path):
    """Load and validate recordings listed in a JSON manifest.

    Per-file problems are collected and reported together rather than
    failing on the first bad file. A problem names its entry by
    ``subject_id``, or by position from 1 (``entry 2``) when it has none.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if isinstance(manifest, dict):
        declared = manifest.get("channels", list(CHANNELS))
        if not isinstance(declared, list):
            raise IngestionError(
                f"{manifest_path}: channels must be a list, got "
                f"{json.dumps(declared)}")
        if tuple(declared) != CHANNELS:
            raise IngestionError(
                f"manifest channels {declared}: the channel order does not "
                f"match the required order {list(CHANNELS)}")
        entries = manifest.get("subjects")
    else:
        entries = manifest
    if not isinstance(entries, list) \
            or not all(isinstance(entry, dict) for entry in entries):
        raise IngestionError(
            f"{manifest_path}: the manifest must be a list of subject "
            f"objects, or an object whose \"subjects\" holds that list")

    recordings, problems = [], []
    for position, entry in enumerate(entries, start=1):
        sid = entry.get("subject_id", f"entry {position}")
        wrong = [f'missing field "{name}"' for name in _ENTRY_REQUIRED
                 if name not in entry]
        wrong += [f"{name} must be {what}, got {json.dumps(entry[name])}"
                  for name, (kind, what) in _ENTRY_KINDS.items()
                  if name in entry and _wrong_kind(entry[name], kind)]
        if wrong:
            owner = sid if isinstance(sid, str) else json.dumps(sid)
            problems.append(f"{owner}: " + "; ".join(wrong))
            continue
        try:
            fs = int(entry.get("fs", FS))
            if tuple(entry.get("channels", CHANNELS)) != CHANNELS:
                raise IngestionError(
                    f"{sid}: channel order in manifest entry does not match "
                    f"the required electrode order")
            path = manifest_path.parent / entry["path"]
            if not path.is_file():
                raise IngestionError(f"{sid}: path {json.dumps(entry['path'])}"
                                     f" names no file ({path})")
            samples = _read_matrix(path)
            recordings.append(
                EegRecording(sid, samples, entry["label"], fs=fs))
        except (IngestionError, ValueError, OSError) as exc:
            problems.append(f"{sid}: {exc}" if not str(exc).startswith(sid)
                            else str(exc))
    if problems:
        raise IngestionError(
            f"{len(problems)} of {len(entries)} subjects failed to load:\n  "
            + "\n  ".join(problems))
    if not recordings:
        raise IngestionError("manifest lists no subjects")
    return recordings
