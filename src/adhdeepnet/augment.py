"""Additive Gaussian-noise augmentation and the 18-combination sweep.

A combination is one or two (magnification m, noise std sigma) pairs drawn
from m in {1,2,3} and sigma in {0.1, 0.01, 0.001}. Singles append one noisy
copy per training trial (set doubles); doubles append the four copies
{m1,m2} x {sigma1,sigma2}, each with freshly sampled noise (set
quintuples). Test trials are never touched here; the evaluation layer
asserts that separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from zlib import crc32

import numpy as np

from .data import Trial

MAGNIFICATIONS = (1, 2, 3)
SIGMAS = (0.1, 0.01, 0.001)


@dataclass(frozen=True)
class AugCombo:
    id: str
    entries: tuple  # one or two (m, sigma) pairs

    def __post_init__(self):
        if len(self.entries) not in (1, 2):
            raise ValueError(
                f"{self.id}: a combination holds 1 or 2 (m, sigma) pairs, "
                f"got {len(self.entries)}")
        for m, sigma in self.entries:
            if m not in MAGNIFICATIONS:
                raise ValueError(f"{self.id}: magnification {m} not in "
                                 f"{MAGNIFICATIONS}")
            if sigma <= 0:
                raise ValueError(f"{self.id}: sigma must be positive")
        if len(self.entries) == 2:
            (m1, s1), (m2, s2) = self.entries
            if m1 == m2 or s1 == s2:
                raise ValueError(
                    f"{self.id}: paired entries need distinct magnifications "
                    f"and distinct sigmas, got {self.entries}")

    @property
    def is_double(self):
        return len(self.entries) == 2


def enumerate_combos(magnifications=MAGNIFICATIONS, sigmas=SIGMAS):
    """The default sweep: 9 singles then 9 canonical doubles, C1..C18.

    Singles run magnification-major. The pair constraint (distinct m and
    distinct sigma) admits more doubles than the sweep holds, so the nine
    shipped doubles pair each single (m_a, s_i) with its cyclic successor
    (m_{a+1}, s_{i+1}); pass explicit combos to run a different selection.
    """
    combos = []
    idx = 1
    for m in magnifications:
        for s in sigmas:
            combos.append(AugCombo(f"C{idx}", ((m, s),)))
            idx += 1
    nm, ns = len(magnifications), len(sigmas)
    for a, m in enumerate(magnifications):
        for i, s in enumerate(sigmas):
            partner = (magnifications[(a + 1) % nm], sigmas[(i + 1) % ns])
            combos.append(AugCombo(f"C{idx}", ((m, s), partner)))
            idx += 1
    return combos


def augment_trial(trial, m, sigma, rng, copy=1):
    """Noisy copy number ``copy``: window + m * Normal(0, sigma^2). Source
    untouched."""
    if m not in MAGNIFICATIONS:
        raise ValueError(f"magnification {m} not in {MAGNIFICATIONS}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    noise = rng.normal(0.0, sigma, size=trial.window.shape)
    window = (trial.window + m * noise).astype(np.float32)
    return Trial(trial.subject_id, trial.segment_index, window, trial.label,
                 copy=copy)


def _trial_rng(seed, trial, copy_index):
    """Independent stream per (trial, copy): parallel-safe determinism."""
    key = (crc32(trial.subject_id.encode("utf-8")), trial.segment_index,
           copy_index)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def augment_training_set(train_trials, combo, seed):
    """Expand a training set per one combination.

    Returns the original trials followed by the augmented copies. A single
    (m, sigma) appends one copy per trial; a pair appends the four
    {m1,m2} x {sigma1,sigma2} copies, each with fresh noise. Noise streams
    are derived per (subject, segment, copy) so the expansion is
    deterministic in ``seed`` and independent of iteration order.
    """
    if combo.is_double:
        (m1, s1), (m2, s2) = combo.entries
        recipe = [(m1, s1), (m1, s2), (m2, s1), (m2, s2)]
    else:
        recipe = list(combo.entries)
    out = list(train_trials)
    for trial in train_trials:
        for k, (m, sigma) in enumerate(recipe, start=1):
            out.append(augment_trial(trial, m, sigma,
                                     _trial_rng(seed, trial, k), copy=k))
    return out
