"""Filter spectra, spatial maps, exact t-SNE, and the analysis exporters."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2
from scipy.signal import firwin

from conftest import assert_same_bytes, binary_search_oracle, \
    squared_distances_oracle, tsne_descent_oracle, tsne_setup_oracle
from adhdeepnet.data import FS, CHANNELS, Trial, generate_synthetic, \
    segment_all
from adhdeepnet.explain import (
    BANDS,
    AnalysisError,
    band_summary,
    export_analysis,
    frequency_response,
    layer_activations,
    normalize_symmetric,
    spatial_maps,
    tsne,
    _binary_search_neighbors,
    _distances_from_gram,
    _tsne_gradient,
    _tsne_kernel,
    _tsne_setup,
)
from adhdeepnet import model as model_module
from adhdeepnet.model import ModelConfig, build_adhdeepnet, \
    build_eegnet_baseline, desk_config


def tiny_model(temporal_kernel=8, seed=0):
    config = ModelConfig(temporal_filters=4, temporal_kernel=temporal_kernel,
                         branch_width=4, branch_sep_kernels=(4, 8),
                         post_sep_kernel=8, se_ratio=4)
    return build_adhdeepnet(config, seed=seed)


# -- frequency response --------------------------------------------------------------


def test_impulse_has_flat_response():
    b = np.zeros(64)
    b[0] = 1.0
    spec = frequency_response(b)
    assert np.allclose(spec.amplitude, 1.0, atol=1e-12)
    assert spec.frequencies[0] == 0.0
    assert spec.frequencies[-1] == FS / 2
    for mean in spec.band_means.values():
        assert mean == pytest.approx(1.0)


def test_two_tap_average_matches_closed_form():
    spec = frequency_response([0.5, 0.5])
    expected = np.abs(np.cos(np.pi * spec.frequencies / FS))
    assert np.allclose(spec.amplitude, expected, atol=1e-12)
    assert spec.amplitude[-1] == pytest.approx(0.0, abs=1e-12)  # Nyquist


def test_dtft_matches_zero_padded_fft_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        b = rng.normal(size=64)
        spec = frequency_response(b, grid_size=513)
        # 1024-point FFT bins sit exactly on the 0.125 Hz grid
        oracle = np.abs(np.fft.rfft(b, 1024))
        assert np.max(np.abs(spec.amplitude - oracle)) < 1e-6


def test_band_means_average_the_right_grid_points():
    rng = np.random.default_rng(1)
    spec = frequency_response(rng.normal(size=32))
    for name, (lo, hi) in BANDS.items():
        mask = (spec.frequencies >= lo) & (spec.frequencies < hi)
        assert spec.band_means[name] == \
            pytest.approx(float(spec.amplitude[mask].mean()))


def test_bands_are_disjoint():
    freqs = np.linspace(0.0, FS / 2, 513)
    membership = np.zeros(len(freqs), dtype=int)
    for lo, hi in BANDS.values():
        membership += ((freqs >= lo) & (freqs < hi)).astype(int)
    assert membership.max() == 1  # no grid point in two bands
    assert membership.sum() > 0


def test_frequency_response_argument_errors():
    with pytest.raises(ValueError, match="at least one"):
        frequency_response([])
    with pytest.raises(ValueError, match="129"):
        frequency_response([1.0, 0.5], grid_size=64)


# -- band summary and ranking ----------------------------------------------------------


def plant_filters(model, taps_list):
    kernel = model._by_name["temporal_conv"].kernel
    for i, taps in enumerate(taps_list):
        kernel.data[i, 0, 0, :] = np.asarray(taps, dtype=np.float32)


def test_planted_theta_bandpass_ranks_first():
    model = tiny_model(temporal_kernel=64)
    theta_bp = firwin(64, [4.0, 8.0], pass_zero=False, fs=FS)
    impulse = np.zeros(64)
    impulse[0] = 1.0
    plant_filters(model, [theta_bp, impulse, impulse, impulse])
    spectra, ranking = band_summary(model)
    assert ranking[0] == 0
    assert spectra[0].theta_beta_ratio > spectra[1].theta_beta_ratio


def test_all_zero_filters_rank_stably_by_index():
    model = tiny_model(temporal_kernel=8)
    plant_filters(model, [np.zeros(8)] * 4)
    spectra, ranking = band_summary(model)
    assert ranking == [0, 1, 2, 3]
    for s in spectra:
        assert all(v == 0.0 for v in s.band_means.values())
        assert s.theta_beta_ratio == 0.0


def test_ranking_is_permutation_equivariant():
    taps = [firwin(64, [4.0, 8.0], pass_zero=False, fs=FS),
            firwin(64, [5.0, 10.0], pass_zero=False, fs=FS),
            np.eye(64)[0],
            firwin(64, [13.0, 30.0], pass_zero=False, fs=FS)]
    model_a = tiny_model(temporal_kernel=64)
    plant_filters(model_a, taps)
    _, ranking_a = band_summary(model_a)

    perm = [2, 0, 3, 1]
    model_b = tiny_model(temporal_kernel=64)
    plant_filters(model_b, [taps[p] for p in perm])
    _, ranking_b = band_summary(model_b)

    position_in_b = {orig: j for j, orig in enumerate(perm)}
    assert ranking_b == [position_in_b[r] for r in ranking_a]


def test_band_summary_requires_temporal_stage():
    fake = SimpleNamespace(_by_name={})
    with pytest.raises(AnalysisError, match="temporal"):
        band_summary(fake)


# -- spatial maps -----------------------------------------------------------------------


def test_normalize_symmetric_hand_cases():
    assert np.allclose(normalize_symmetric([-2.0, 0.0, 2.0]), [-1, 0, 1])
    assert np.allclose(normalize_symmetric([3.0, 3.0, 3.0]), [1, 1, 1])
    assert np.allclose(normalize_symmetric([-0.5, -0.5]), [-1, -1])
    assert np.allclose(normalize_symmetric(np.zeros(4)), np.zeros(4))


def test_normalize_symmetric_idempotent():
    rng = np.random.default_rng(0)
    w = rng.normal(size=19)
    once = normalize_symmetric(w)
    assert np.allclose(normalize_symmetric(once), once)
    assert np.max(np.abs(once)) == pytest.approx(1.0)


def test_spatial_maps_shapes_and_order():
    model = tiny_model()
    maps = spatial_maps(model)
    assert len(maps) == 4 * 2  # temporal filters x depth multiplier
    assert [m.filter_index for m in maps] == list(range(8))
    for m in maps:
        assert m.electrodes == CHANNELS
        assert m.values.shape == (19,)
        peak = np.max(np.abs(m.values))
        assert peak == pytest.approx(1.0) or peak == 0.0


def test_spatial_maps_reflect_planted_weights():
    model = tiny_model()
    kernel = model._by_name["spatial_depthwise"].kernel
    planted = np.zeros(19, dtype=np.float32)
    planted[0] = -2.0
    planted[5] = 1.0
    kernel.data[1, 0, :, 0] = planted
    maps = spatial_maps(model)
    target = [m for m in maps if m.temporal_filter == 1
              and m.depth_index == 0][0]
    assert target.values[0] == pytest.approx(-1.0)
    assert target.values[5] == pytest.approx(0.5)
    assert target.values[3] == 0.0


def test_spatial_maps_require_depthwise_stage():
    fake = SimpleNamespace(_by_name={})
    with pytest.raises(AnalysisError, match="depthwise"):
        spatial_maps(fake)


# -- t-SNE ------------------------------------------------------------------------------


def two_clusters(n_per=100, d=10, gap=8.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per, d))
    b = rng.normal(0.0, 1.0, (n_per, d)) + gap
    labels = np.array([0] * n_per + [1] * n_per)
    return np.vstack([a, b]), labels


def test_perplexity_binary_search_hits_target():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 5))
    cond = _binary_search_neighbors(squared_distances_oracle(x), 20.0)
    for i in range(100):
        row = cond[i][cond[i] > 0]
        assert cond[i, i] == 0.0
        entropy = -np.sum(row * np.log(row))
        assert abs(np.exp(entropy) - 20.0) <= 1.1e-4


def search_cohorts():
    """(name, rows, perplexity, max_iter) cases for the perplexity search."""
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        for m, d in ((3, 4), (17, 3), (64, 20), (150, 8)):
            x = rng.normal(size=(m, d)) * scale
            perp = min(30.0, max(2.0, (m - 1) / 3.0))
            yield f"gauss-{m}x{d}-{scale:g}", x, perp, 200
    # integer grid points: many rows share the same distances exactly
    x = rng.integers(0, 3, size=(80, 3)).astype(np.float64)
    yield "duplicate-distances", x, 20.0, 200
    x = rng.normal(size=(40, 5))
    x[5] = x[4]
    x[6] = x[4]
    yield "duplicate-rows", x, 10.0, 200
    yield "few-steps", rng.normal(size=(50, 6)), 12.0, 3
    # one point far out: its row needs many halvings from beta = 1
    x = rng.normal(size=(30, 4))
    x[0] += 1e3
    yield "outlier", x, 8.0, 200
    # equidistant points: a row's perplexity is m - 1 = 2 at any precision,
    # so no row reaches 1.5 and each spends every step
    yield "equidistant-3", np.eye(3), 1.5, 200
    # the origin row is 1 from every unit vector, so it stays at
    # perplexity 19 and runs out of steps while the other rows converge
    yield "one-row-out-of-steps", np.vstack([np.zeros(19), np.eye(19)]), \
        10.0, 200


@pytest.mark.parametrize("name,x,perplexity,max_iter",
                         list(search_cohorts()),
                         ids=[c[0] for c in search_cohorts()])
def test_perplexity_search_is_bitwise_the_per_row_oracle(name, x, perplexity,
                                                         max_iter):
    for d2 in (squared_distances_oracle(x),
               _distances_from_gram(x @ x.T, np.sum(x ** 2, axis=1))):
        cond = _binary_search_neighbors(d2, perplexity, max_iter=max_iter)
        assert_same_bytes(
            cond, binary_search_oracle(d2, perplexity, max_iter=max_iter))
    if name in ("equidistant-3", "one-row-out-of-steps"):
        # a row out of steps keeps its last value: uniform over the others
        m = len(x)
        assert np.array_equal(cond[0], np.r_[0.0, np.full(m - 1, 1 / (m - 1))])


def test_perplexity_search_memory_stays_within_four_square_arrays():
    """The descent holds four [m, m] float64 arrays (P, the exaggerated P,
    the kernel and a scratch buffer); the search must not need more."""
    m = 1000
    x = np.random.default_rng(13).normal(size=(m, 10))
    d2 = _distances_from_gram(x @ x.T, np.sum(x ** 2, axis=1))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cond = _binary_search_neighbors(d2, 30.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cond.shape == (m, m)
    assert peak <= 4 * m * m * 8, f"peak {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("scale", [1e-4, 1.0, 30.0])
def test_tsne_kernel_and_gradient_match_double_loop_oracle(scale):
    x, _ = two_clusters(n_per=20, d=6, seed=4)
    _, _, p, _ = _tsne_setup(x, 8.0)
    m = p.shape[0]
    y = np.random.default_rng(5).normal(size=(m, 2)) * scale
    y -= y.mean(axis=0)
    want_num = tsne_descent_oracle(p, y)[0]
    num, scratch = np.empty((m, m)), np.empty((m, m))
    assert _tsne_kernel(y, num, scratch) is num
    assert np.array_equal(num, num.T)  # exactly symmetric
    assert_same_bytes(np.diag(num), np.zeros(m))  # +0.0 on the diagonal
    assert np.abs(num - want_num).max() <= 1e-12 * want_num.max()
    for p_eff in (p, p * 12.0):
        want_grad = tsne_descent_oracle(p_eff, y)[2]
        grad = _tsne_gradient(p_eff, y, num, scratch)
        assert np.abs(grad - want_grad).max() <= \
            1e-12 * np.abs(want_grad).max()


def test_tsne_recovers_two_clusters():
    x, labels = two_clusters()
    embedding = tsne(x, perplexity=30.0, iterations=600)
    assert embedding.points.shape == (200, 2)
    assert np.all(np.isfinite(embedding.points))
    assert embedding.final_kl < embedding.initial_kl
    _, assigned = kmeans2(embedding.points, 2, minit="++", seed=3)
    agreement = max(np.mean(assigned == labels),
                    np.mean(assigned == 1 - labels))
    assert agreement >= 0.95


def test_tsne_is_deterministic():
    x, _ = two_clusters(n_per=50, seed=1)
    first = tsne(x, perplexity=15.0, iterations=120)
    second = tsne(x, perplexity=15.0, iterations=120)
    assert np.array_equal(first.points, second.points)
    assert (first.initial_kl, first.final_kl) \
        == (second.initial_kl, second.final_kl)


def test_tsne_keeps_duplicates_coincident():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(96, 10))
    x[1] = x[0]
    embedding = tsne(x, perplexity=30.0, iterations=300)
    gap = np.linalg.norm(embedding.points[0] - embedding.points[1])
    assert gap <= 1e-3


def test_tsne_argument_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="N, d"):
        tsne(rng.normal(size=(50, 1)), perplexity=10.0)
    # exp(entropy) >= 1, so the neighbor search could never reach these
    for perplexity in (0.0, 0.5, -2.0, float("nan")):
        with pytest.raises(ValueError, match="perplexity must be >= 1"):
            tsne(rng.normal(size=(30, 5)), perplexity=perplexity)


def test_tsne_kl_descends_overall():
    x, _ = two_clusters(n_per=40, seed=3)
    embedding = tsne(x, perplexity=12.0, iterations=400)
    assert embedding.final_kl < embedding.initial_kl


def _same_embedding(a, b):
    return (np.array_equal(a.points, b.points)
            and (a.initial_kl, a.final_kl) == (b.initial_kl, b.final_kl))


def test_tsne_shrinks_the_perplexity_to_the_distinct_rows():
    """A perplexity the m distinct rows cannot support runs as
    max(2, (m - 1) / 3); one they can support runs as given."""
    x = np.random.default_rng(0).normal(size=(20, 5))
    shrunk = tsne(x, perplexity=30.0, iterations=60)
    assert _same_embedding(shrunk, tsne(x, perplexity=19 / 3, iterations=60))
    assert not _same_embedding(shrunk,
                               tsne(x, perplexity=5.0, iterations=60))
    x[10:] = x[0]  # 11 distinct rows
    assert _same_embedding(tsne(x, perplexity=30.0, iterations=60),
                           tsne(x, perplexity=10 / 3, iterations=60))
    few = tsne(x[:5], perplexity=30.0, iterations=60)  # 5 rows: perplexity 2
    assert _same_embedding(few, tsne(x[:5], perplexity=2.0, iterations=60))


def test_tsne_rejects_non_finite_rows():
    rng = np.random.default_rng(4)
    for bad in (np.nan, np.inf, -np.inf):
        x = rng.normal(size=(40, 6))
        x[17, 2] = bad
        x[23, 0] = bad
        with pytest.raises(ValueError, match="activation row 17 is not "
                                             "finite"):
            tsne(x, perplexity=10.0, iterations=10)


def test_tsne_rejects_fewer_than_one_iteration():
    x = np.random.default_rng(0).normal(size=(30, 5))
    for iterations in (0, -3):
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            tsne(x, perplexity=5.0, iterations=iterations)


def planted_activations(n=60, d=40, seed=6):
    """Rank-3 signal with well-separated variances, small noise, and
    planted duplicates, one of them equal only up to the sign of a zero."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(d, 3)))[0].T
    scores = rng.normal(size=(n, 3)) * np.array([9.0, 4.0, 1.5])
    x = scores @ basis + 0.05 * rng.normal(size=(n, d)) + 3.0
    x[11] = x[2]
    x[30] = x[2]
    x[45] = x[19]
    x[7, 5] = 0.0
    x[52] = x[7]
    x[52, 5] = -0.0
    return x


def test_tsne_setup_matches_row_width_oracle():
    x = planted_activations()
    unique, oracle_inverse, oracle_p, oracle_y = tsne_setup_oracle(x, 12.0)
    distinct, inverse, p, y = _tsne_setup(x, 12.0)
    # same duplicate partition: 60 rows, 4 planted duplicates
    assert distinct.size == unique.shape[0] == 56
    perm = oracle_inverse[distinct]  # oracle row of each distinct row
    assert sorted(perm) == list(range(56))
    assert np.array_equal(oracle_inverse, perm[inverse])
    assert np.array_equal(x[distinct], unique[perm])
    # same P after the row permutation, within 1e-12 of its largest entry
    expected = oracle_p[np.ix_(perm, perm)]
    assert np.abs(p - expected).max() <= 1e-12 * expected.max()
    # same init up to the sign of each column, within 1e-9 relative
    expected = oracle_y[perm]
    signs = np.sign(np.sum(expected * y, axis=0))
    assert np.abs(expected * signs - y).max() <= 1e-9 * np.abs(y).max()


def test_tsne_of_negated_activations_is_bitwise_equal():
    x = planted_activations(seed=8)
    _, _, p, y = _tsne_setup(x, 12.0)
    _, _, p_neg, y_neg = _tsne_setup(-x, 12.0)
    assert np.array_equal(p, p_neg)
    assert np.array_equal(y, y_neg)
    # the sign rule: each column's largest-magnitude entry is positive
    assert np.all(y[np.abs(y).argmax(axis=0), [0, 1]] > 0)
    first = tsne(x, perplexity=12.0, iterations=120)
    second = tsne(-x, perplexity=12.0, iterations=120)
    assert _same_embedding(first, second)


def test_tsne_folds_signed_zeros_into_one_point():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 6))
    x[3, 1] = 0.0
    x[8] = x[3]
    x[8, 1] = -0.0
    distinct, inverse, _, _ = _tsne_setup(x, 10.0)
    assert distinct.size == 39
    assert inverse[3] == inverse[8]
    embedding = tsne(x, perplexity=10.0, iterations=200)
    assert np.array_equal(embedding.points[3], embedding.points[8])


def test_tsne_setup_groups_byte_equal_rows():
    x = np.random.default_rng(11).normal(size=(30, 7))
    x[[4, 6, 21]] = x[1]
    x[25] = x[0]
    distinct, inverse, p, y = _tsne_setup(x, 5.0)
    assert distinct.tolist() == [i for i in range(30)
                                 if i not in (4, 6, 21, 25)]
    assert inverse[[1, 4, 6, 21]].tolist() == [1] * 4
    assert inverse[0] == inverse[25] == 0
    assert np.array_equal(x[distinct][inverse], x)
    assert p.shape == (26, 26) and y.shape == (26, 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tsne_setup_keeps_rows_one_ulp_apart(dtype):
    x = np.random.default_rng(13).normal(size=(24, 9)).astype(dtype)
    x[7] = x[3]
    x[7, 5] = np.nextafter(x[3, 5], dtype(np.inf))
    x[11] = x[3]
    distinct, inverse, _, _ = _tsne_setup(x, 5.0)
    assert distinct.size == 23
    assert inverse[3] == inverse[11] != inverse[7]


def test_tsne_setup_memory_stays_below_a_quarter_of_a_float64_copy():
    x = np.random.default_rng(14).normal(size=(64, 65536)).astype(np.float32)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _tsne_setup(x, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.size * 8 / 4, f"peak {peak / 2 ** 20:.1f} MiB"


def test_tsne_of_rank_one_activations_is_finite():
    rng = np.random.default_rng(10)
    x = np.outer(rng.normal(size=40), rng.normal(size=12))
    embedding = tsne(x, perplexity=10.0, iterations=200)
    assert embedding.points.shape == (40, 2)
    assert np.all(np.isfinite(embedding.points))
    assert np.isfinite(embedding.final_kl)


# -- layer activations -------------------------------------------------------------------


def synthetic_trials(n_per_class=2, seconds=8, seed=0):
    return segment_all(generate_synthetic(n_per_class, seconds, 1.0,
                                          seed=seed))


def test_layer_activations_shapes_and_tags():
    model = tiny_model()
    trials = synthetic_trials()
    acts = layer_activations(model, trials)
    assert set(acts) == {"block1", "inxception", "attention"}
    for matrix in acts.values():
        assert matrix.ndim == 2
        assert matrix.shape[0] == len(trials)
        assert matrix.shape[1] > 0
        assert np.all(np.isfinite(matrix))


def test_layer_activations_do_not_depend_on_batch_size(monkeypatch):
    model = tiny_model(seed=2)
    trials = synthetic_trials(3, 48, seed=5)[:70]  # batch 64 leaves 6 over
    monkeypatch.setattr(model_module, "INFERENCE_BATCH", 1)
    one = layer_activations(model, trials)
    monkeypatch.setattr(model_module, "INFERENCE_BATCH", 64)
    many = layer_activations(model, trials)
    assert set(one) == set(many)
    for tag, matrix in many.items():
        assert matrix.shape == (70, matrix.shape[1])
        assert_same_bytes(one[tag], matrix)


def test_layer_activations_stack_the_batches_bitwise():
    model = tiny_model(seed=2)
    trials = synthetic_trials(3, 48, seed=5)[:70]  # batch 32 leaves 6 over
    windows = np.stack([t.window for t in trials])
    acts = layer_activations(model, trials)
    tags = tuple(acts)
    batches = {tag: [] for tag in tags}
    capture = {tag: lambda _, data, tag=tag: batches[tag].append(data.copy())
               for tag in tags}
    for _ in model.infer(windows, capture=capture):
        pass
    for tag in tags:
        assert_same_bytes(acts[tag], np.concatenate(
            [b.reshape(len(b), -1) for b in batches[tag]]))


def test_layer_activations_memory_does_not_grow_with_the_trial_count(
        monkeypatch):
    """Beyond its output matrices, layer_activations holds one batch's
    forward and no stack of every window."""
    monkeypatch.setattr(model_module, "INFERENCE_BATCH", 8)
    model = tiny_model(seed=2)
    trials = synthetic_trials(4, 64, seed=5)[:64]
    layer_activations(model, trials[:8])  # warm caches
    beyond = []
    for n in (32, 64):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            acts = layer_activations(model, trials[:n])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        beyond.append(peak - sum(a.nbytes for a in acts.values()))
    # a list of window views grows a little; one stacked window would not
    # fit in the slack
    assert beyond[1] - beyond[0] < trials[0].window.nbytes, beyond


@pytest.mark.parametrize("build", [
    lambda: build_eegnet_baseline(desk_config(), seed=1),
    lambda: build_adhdeepnet(desk_config(use_inxception=False), seed=1)],
    ids=["eegnet", "se-only"])
def test_layer_activations_capture_tags_that_share_a_stage(build):
    model = build()
    assert model.capture_tags["block1"] == model.capture_tags["inxception"]
    trials = synthetic_trials()
    acts = layer_activations(model, trials)
    assert list(acts) == ["block1", "inxception", "attention"]
    assert_same_bytes(acts["block1"], acts["inxception"])
    assert acts["attention"].shape[0] == len(trials)


def test_layer_activations_unknown_tag():
    model = tiny_model()
    with pytest.raises(ValueError, match="unknown capture tags"):
        layer_activations(model, synthetic_trials(), ("block1", "nope"))


def test_zero_input_gives_constant_activations():
    model = tiny_model()
    trials = [Trial(subject_id="z", segment_index=i,
                    window=np.zeros((19, 512), dtype=np.float32),
                    label="ADHD") for i in range(3)]
    acts = layer_activations(model, trials)
    for matrix in acts.values():
        assert np.array_equal(matrix[0], matrix[1])
        assert np.array_equal(matrix[0], matrix[2])


def test_activations_feed_tsne_without_shape_errors():
    model = tiny_model()
    trials = synthetic_trials(3, 8)  # 12 trials
    acts = layer_activations(model, trials)
    for tag, matrix in acts.items():
        embedding = tsne(matrix, perplexity=3.0, iterations=150,
                         labels=[t.label for t in trials], layer_tag=tag)
        assert embedding.points.shape == (len(trials), 2)
        assert embedding.final_kl < embedding.initial_kl


# -- exporters ---------------------------------------------------------------------------


def test_export_analysis_writes_everything(tmp_path):
    model = tiny_model()
    trials = synthetic_trials(3, 8)
    written = export_analysis(model, trials, str(tmp_path), iterations=60)
    spectra_text = (tmp_path / "spectra.csv").read_text().splitlines()
    assert spectra_text[0] == "filter,frequency_hz,amplitude"
    assert len(spectra_text) == 1 + 4 * 513
    bands_text = (tmp_path / "bands.csv").read_text().splitlines()
    assert len(bands_text) == 1 + 4
    assert bands_text[0].endswith("rank")
    maps_text = (tmp_path / "maps.csv").read_text().splitlines()
    assert len(maps_text) == 1 + 8 * 19
    assert (tmp_path / "maps.svg").read_text().startswith("<svg")
    for tag in ("block1", "inxception", "attention"):
        csv_lines = (tmp_path / f"tsne_{tag}.csv").read_text().splitlines()
        assert csv_lines[0] == "x,y,label"
        assert len(csv_lines) == 1 + len(trials)
        assert csv_lines[1].endswith(("ADHD", "HC"))
        svg = (tmp_path / f"tsne_{tag}.svg").read_text()
        assert svg.startswith("<svg")
        assert "circle" in svg
    assert len(written) == 4 + 2 * 3
