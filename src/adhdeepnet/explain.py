"""Post-hoc model interpretation.

Four analyses over a trained model:
  * frequency responses of the temporal filters (direct DTFT on a fixed
    Hz grid) with clinical band averages,
  * ranking of filters by their theta-to-beta band ratio,
  * electrode-space maps of the depthwise spatial weights, normalized
    to [-1, 1],
  * exact t-SNE embeddings of captured layer activations.

Everything here reads a frozen model; nothing mutates weights. Outputs
are CSV for downstream tooling plus small self-contained SVG previews.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CHANNELS, FS, atomic_write_text

BANDS = {
    "delta": (0.5, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 13.0),
    "beta": (13.0, 30.0),
}

DEFAULT_GRID_SIZE = 513  # 0.125 Hz steps over [0, 64]
DEFAULT_LAYER_TAGS = ("block1", "inxception", "attention")

# schematic top-view 10-20 electrode positions (x right, y front)
ELECTRODE_XY = {
    "Fp1": (-0.31, 0.95), "Fp2": (0.31, 0.95),
    "F7": (-0.95, 0.31), "F3": (-0.55, 0.48), "Fz": (0.0, 0.72),
    "F4": (0.55, 0.48), "F8": (0.95, 0.31),
    "T3": (-1.0, 0.0), "C3": (-0.72, 0.0), "Cz": (0.0, 0.0),
    "C4": (0.72, 0.0), "T4": (1.0, 0.0),
    "T5": (-0.95, -0.31), "P3": (-0.55, -0.48), "Pz": (0.0, -0.72),
    "P4": (0.55, -0.48), "T6": (0.95, -0.31),
    "O1": (-0.31, -0.95), "O2": (0.31, -0.95),
}


class AnalysisError(RuntimeError):
    """The model lacks the layer an analysis needs."""


# -- filter spectra -----------------------------------------------------------------


@dataclass
class FilterSpectrum:
    filter_index: int
    frequencies: np.ndarray
    amplitude: np.ndarray
    band_means: dict

    @property
    def theta_beta_ratio(self):
        theta = self.band_means["theta"]
        beta = self.band_means["beta"]
        if beta > 0:
            return theta / beta
        return 0.0 if theta == 0 else float("inf")


def frequency_response(coeffs, grid_size=DEFAULT_GRID_SIZE,
                       filter_index=0):
    """|H(f)| of an FIR filter on a uniform grid over [0, FS/2] Hz.

    Direct DTFT evaluation: H(f) = sum_n b[n] exp(-2j pi (f/FS) n).
    Band means average |H| over the grid points inside each band.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64).ravel()
    if coeffs.size == 0:
        raise ValueError("frequency_response needs at least one coefficient")
    if grid_size < 129:
        raise ValueError(f"grid_size must be >= 129, got {grid_size}")
    freqs = np.linspace(0.0, FS / 2.0, grid_size)
    phase = np.exp(-2j * np.pi * np.outer(freqs / FS,
                                          np.arange(coeffs.size)))
    amplitude = np.abs(phase @ coeffs)
    band_means = {}
    for name, (lo, hi) in BANDS.items():
        inside = (freqs >= lo) & (freqs < hi)
        band_means[name] = float(amplitude[inside].mean())
    return FilterSpectrum(filter_index=filter_index, frequencies=freqs,
                          amplitude=amplitude, band_means=band_means)


def band_summary(model, grid_size=DEFAULT_GRID_SIZE):
    """Spectra for every temporal filter plus a theta/beta ranking.

    Returns (spectra, ranking) where ranking lists filter indices from
    highest to lowest theta-to-beta ratio; ties keep index order.
    """
    layer = model._by_name.get("temporal_conv")
    if layer is None or not hasattr(layer, "kernel"):
        raise AnalysisError("model has no temporal convolution stage")
    kernel = layer.kernel.data  # [F, 1, 1, k]
    spectra = [frequency_response(kernel[i, 0, 0, :], grid_size,
                                  filter_index=i)
               for i in range(kernel.shape[0])]
    ratios = np.asarray([s.theta_beta_ratio for s in spectra])
    ranking = list(np.argsort(-ratios, kind="stable"))
    return spectra, [int(i) for i in ranking]


# -- spatial maps -------------------------------------------------------------------


@dataclass
class SpatialMap:
    filter_index: int       # output channel index (filter * depth + d)
    temporal_filter: int
    depth_index: int
    electrodes: tuple
    values: np.ndarray      # normalized to [-1, 1]


def normalize_symmetric(weights):
    """Scale by the largest magnitude so values span [-1, 1].

    All-zero input stays zero; equal positive values all map to +1.
    Idempotent: applying twice gives the same result.
    """
    weights = np.asarray(weights, dtype=np.float64)
    peak = np.max(np.abs(weights))
    if peak == 0:
        return np.zeros_like(weights)
    return weights / peak


def spatial_maps(model):
    """Normalized electrode weights of the depthwise spatial filters."""
    layer = model._by_name.get("spatial_depthwise")
    if layer is None or not hasattr(layer, "kernel"):
        raise AnalysisError("model has no depthwise spatial stage")
    kernel = layer.kernel.data  # [C, D, electrodes, 1]
    n_filters, depth, n_electrodes, _ = kernel.shape
    electrodes = CHANNELS[:n_electrodes]
    maps = []
    for c in range(n_filters):
        for d in range(depth):
            values = normalize_symmetric(kernel[c, d, :, 0])
            maps.append(SpatialMap(filter_index=c * depth + d,
                                   temporal_filter=c, depth_index=d,
                                   electrodes=electrodes, values=values))
    return maps


# -- exact t-SNE --------------------------------------------------------------------


@dataclass
class Embedding2D:
    points: np.ndarray
    labels: list
    layer_tag: str
    initial_kl: float
    final_kl: float
    kl_trace: list = field(default_factory=list)


def _distances_from_gram(g, sq):
    """Pairwise squared distances from a Gram matrix and its row norms."""
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    # exact symmetry matters: identical input rows must see bitwise
    # identical distances, or float noise seeds a spurious separation
    d2 = (d2 + d2.T) / 2.0
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _squared_distances(x):
    return _distances_from_gram(x @ x.T, np.sum(x ** 2, axis=1))


def _binary_search_neighbors(d2, perplexity, tol=1e-4, max_iter=200):
    """Per-point conditional neighbor distributions at fixed perplexity.

    Binary-searches each point's Gaussian precision until exp(entropy)
    matches the target within ``tol``.
    """
    n = d2.shape[0]
    p = np.zeros((n, n))
    for i in range(n):
        others = np.delete(d2[i], i)
        # shifting by the row minimum keeps the normalizer >= 1, so the
        # weights never underflow to an all-zero row (normalized
        # probabilities and entropy are shift-invariant)
        shifted = others - others.min()
        beta, lo, hi = 1.0, -np.inf, np.inf
        row = np.full_like(others, 1.0 / others.size)
        for _ in range(max_iter):
            w = np.exp(-shifted * beta)
            row = w / w.sum()
            entropy = -np.sum(row * np.log(np.maximum(row, 1e-300)))
            perp = np.exp(entropy)
            if abs(perp - perplexity) <= tol:
                break
            if perp > perplexity:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo == -np.inf else (beta + lo) / 2.0
        p[i, :i] = row[:i]
        p[i, i + 1:] = row[i:]
    return p


def _kl_divergence(p, q):
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _check_tsne_arguments(perplexity, iterations):
    if not perplexity >= 1:  # exp(entropy) >= 1, so no search reaches it
        raise ValueError(f"perplexity must be >= 1, got {perplexity}")
    if not iterations >= 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")


def _distinct_rows(x):
    """Group the rows of x by their exact bytes.

    Returns the indices of the distinct rows in order of first occurrence
    and, for every row, the position of its group among them. Sorting a
    void view puts byte-equal rows next to each other without copying
    them (``np.unique`` on the view would copy every row three times).
    """
    rows = x.view(np.dtype((np.void, x.dtype.itemsize * x.shape[1])))
    rows = rows.ravel()
    order = np.argsort(rows, kind="stable")
    fresh = np.ones(order.size, dtype=bool)
    fresh[1:] = [rows[a] != rows[b] for a, b in zip(order[1:], order[:-1])]
    # a stable sort starts each run of equal rows at its first occurrence
    first = np.empty_like(order)
    first[order] = order[fresh][np.cumsum(fresh) - 1]
    distinct, inverse = np.unique(first, return_inverse=True)
    return distinct, inverse


def _pca_init(g, scale=1e-4):
    """Top-2 PCA coordinates of centred rows u from their Gram matrix u u^T.

    With u = U S V^T the projection u V is U S, so the coordinates are the
    top eigenvectors of g scaled by the root of their eigenvalues. Each
    column is scaled to std ``scale`` and signed so that its
    largest-magnitude entry is positive.
    """
    values, vectors = np.linalg.eigh(g)  # ascending
    y = vectors[:, :-3:-1] * np.sqrt(np.maximum(values[:-3:-1], 0.0))
    peak = y[np.abs(y).argmax(axis=0), [0, 1]]
    y = np.where(peak < 0, -y, y)
    std = y.std(axis=0)
    std[std == 0] = 1.0
    return y / std * scale


def _tsne_setup(activations, perplexity):
    """Distinct rows, joint neighbor probabilities and PCA initialization.

    The cost is one m x m Gram matrix over the m distinct rows: exact
    duplicates are found by comparing row bytes (after folding -0.0 into
    0.0), the distinct rows are centred once, and both the neighbor
    distances and the initialization come from g = u u^T. Returns
    (distinct, inverse, p, y): the indices of the distinct rows in order
    of first occurrence, each row's position among them, the [m, m] joint
    probabilities and the [m, 2] initial coordinates.
    """
    x = np.array(activations, dtype=np.float64)  # private: edited in place
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"activations must be [N, d>=2], got {x.shape}")
    n = x.shape[0]
    if n < 3 * perplexity:
        raise ValueError(
            f"{n} points cannot support perplexity {perplexity} "
            f"(need N >= 3*perplexity)")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"activation row {int(np.argmin(finite))} is not finite")

    # Exact-duplicate rows must come out coincident, but the descent cannot
    # guarantee that on its own: at this learning rate the dynamics of a
    # coincident pair are unstable, so any summation-order float asymmetry
    # (~1e-16) doubles every few iterations until the pair flies apart.
    # Embed the distinct rows only and broadcast coordinates back at the end.
    x += 0.0  # folds -0.0 into 0.0, so equal rows have equal bytes
    distinct, inverse = _distinct_rows(x)
    m = distinct.size
    if m < 3:
        raise ValueError(f"only {m} distinct activation rows; need >= 3")
    perp = min(float(perplexity), max(2.0, (m - 1) / 3.0))

    u = x[distinct] if m < n else x
    u -= u.mean(axis=0)  # distances do not change under a shift
    g = u @ u.T
    cond = _binary_search_neighbors(_distances_from_gram(g, np.diag(g)),
                                    perp)
    p = (cond + cond.T) / (2.0 * m)
    p = np.maximum(p, 1e-12)
    return distinct, inverse, p, _pca_init(g)


def tsne(activations, perplexity=30.0, iterations=1000, seed=0,
         labels=None, layer_tag="", exaggeration=12.0,
         exaggeration_iters=250):
    """Exact t-SNE to two dimensions.

    The set-up (``_tsne_setup``) needs one Gram matrix over the distinct
    rows; activation rows must be finite. Deterministic: initialization is
    the top-2 PCA projection scaled to std 1e-4 (no jitter), each
    component signed so that its largest-magnitude entry is positive, so
    the seed only matters as provenance. The returned embedding carries
    the KL trace; the final KL is always checked against the plain
    (non-exaggerated) similarity matrix.
    """
    _check_tsne_arguments(perplexity, iterations)
    _, inverse, p, y = _tsne_setup(activations, perplexity)
    m = y.shape[0]
    lr = max(m / 12.0, 50.0)
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)

    def q_matrix(y):
        num = 1.0 / (1.0 + _squared_distances(y))
        np.fill_diagonal(num, 0.0)
        q = num / num.sum()
        return np.maximum(q, 1e-12), num

    q, _ = q_matrix(y)
    initial_kl = _kl_divergence(p, q)
    kl_trace = [initial_kl]

    for it in range(iterations):
        p_eff = p * exaggeration if it < exaggeration_iters else p
        q, num = q_matrix(y)
        pq = (p_eff - q) * num
        grad = 4.0 * (pq.sum(axis=1)[:, None] * y - pq @ y)
        momentum = 0.5 if it < exaggeration_iters else 0.8
        flips = np.sign(grad) != np.sign(velocity)
        gains = np.where(flips, gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - lr * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        if (it + 1) % 50 == 0:
            q, _ = q_matrix(y)
            kl_trace.append(_kl_divergence(p, q))

    q, _ = q_matrix(y)
    final_kl = _kl_divergence(p, q)
    kl_trace.append(final_kl)
    points = y[inverse]
    return Embedding2D(points=points, labels=list(labels) if labels is not None
                       else [], layer_tag=layer_tag, initial_kl=initial_kl,
                       final_kl=final_kl, kl_trace=kl_trace)


# -- layer activations --------------------------------------------------------------


def _check_layer_tags(model, layer_tags):
    unknown = [t for t in layer_tags if t not in model.capture_tags]
    if unknown:
        raise ValueError(
            f"unknown capture tags {unknown}; model offers "
            f"{sorted(model.capture_tags)}")


def layer_activations(model, trials, layer_tags=DEFAULT_LAYER_TAGS,
                      batch_size=64):
    """Flattened per-trial activation matrices at the tagged stages.

    Each batch is copied into one preallocated matrix per tag as it
    arrives and is dropped before the next forward. Batches kept for a
    concatenation at the end sit in the C heap wherever the allocator put
    them, and the resident peak then varies from run to run by up to
    75 MiB.
    """
    _check_layer_tags(model, layer_tags)
    windows = np.stack([t.window for t in trials])[:, None, :, :]
    rows = {}
    for start, _, captured in model.infer(windows, batch_size,
                                          capture=tuple(layer_tags)):
        for tag in layer_tags:
            data = captured[tag]
            if tag not in rows:
                rows[tag] = np.empty((len(windows), data[0].size), data.dtype)
            rows[tag][start:start + len(data)] = data.reshape(len(data), -1)
        del captured, data  # hold no batch while the next one runs
    return rows


# -- file emission ------------------------------------------------------------------


def write_spectra_csv(spectra, path):
    lines = ["filter,frequency_hz,amplitude"]
    for s in spectra:
        for f, a in zip(s.frequencies, s.amplitude):
            lines.append(f"{s.filter_index},{f:.6g},{a:.8g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_bands_csv(spectra, ranking, path):
    rank_of = {f: r for r, f in enumerate(ranking)}
    lines = ["filter,delta,theta,alpha,beta,theta_beta_ratio,rank"]
    for s in spectra:
        b = s.band_means
        ratio = s.theta_beta_ratio
        lines.append(
            f"{s.filter_index},{b['delta']:.8g},{b['theta']:.8g},"
            f"{b['alpha']:.8g},{b['beta']:.8g},{ratio:.8g},"
            f"{rank_of[s.filter_index]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_maps_csv(maps, path):
    lines = ["filter,temporal_filter,depth,electrode,weight"]
    for m in maps:
        for electrode, value in zip(m.electrodes, m.values):
            lines.append(f"{m.filter_index},{m.temporal_filter},"
                         f"{m.depth_index},{electrode},{value:.8g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _weight_color(value):
    """Diverging color: blue for -1, white for 0, red for +1."""
    v = float(np.clip(value, -1.0, 1.0))
    if v >= 0:
        other = int(round(255 * (1.0 - v)))
        return f"rgb(255,{other},{other})"
    other = int(round(255 * (1.0 + v)))
    return f"rgb({other},{other},255)"


def write_maps_svg(maps, path, cell=110):
    """One scalp schematic per map, tiled on a grid."""
    columns = max(1, min(8, len(maps)))
    rows = (len(maps) + columns - 1) // columns
    width, height = columns * cell, rows * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    radius = cell * 0.42
    for idx, m in enumerate(maps):
        cx = (idx % columns) * cell + cell / 2
        cy = (idx // columns) * cell + cell / 2
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{radius}" '
                     f'fill="none" stroke="#888"/>')
        parts.append(f'<text x="{cx}" y="{cy - radius - 2}" '
                     f'font-size="8" text-anchor="middle" fill="#444">'
                     f'{m.filter_index}</text>')
        for electrode, value in zip(m.electrodes, m.values):
            ex, ey = ELECTRODE_XY[electrode]
            px = cx + ex * radius * 0.85
            py = cy - ey * radius * 0.85
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" '
                         f'fill="{_weight_color(value)}" '
                         f'stroke="#555" stroke-width="0.4"/>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


def write_embedding_csv(embedding, path):
    lines = ["x,y,label"]
    labels = embedding.labels or [""] * len(embedding.points)
    for (x, y), label in zip(embedding.points, labels):
        lines.append(f"{x:.8g},{y:.8g},{label}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_embedding_svg(embedding, path, size=480, margin=30):
    points = embedding.points
    labels = embedding.labels or [""] * len(points)
    span = max(float(np.abs(points).max()), 1e-12)
    colors = {"ADHD": "#c0392b", "HC": "#2471a3", "": "#555555"}
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>',
             f'<text x="{size / 2}" y="16" font-size="12" '
             f'text-anchor="middle">{embedding.layer_tag} '
             f'(KL {embedding.final_kl:.3f})</text>']
    half = size / 2 - margin
    for (x, y), label in zip(points, labels):
        px = size / 2 + x / span * half
        py = size / 2 - y / span * half
        color = colors.get(label, "#555555")
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" '
                     f'fill="{color}" fill-opacity="0.7"/>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


def export_analysis(model, trials, out_dir, layer_tags=DEFAULT_LAYER_TAGS,
                    perplexity=30.0, iterations=1000, seed=0,
                    grid_size=DEFAULT_GRID_SIZE):
    """Run every analysis on a frozen model and write the output files.

    The embedding perplexity shrinks automatically when there are too few
    trials to support the requested value. The perplexity, the iteration
    count and the layer tags are checked before any file is written.
    Returns {name: path}.
    """
    import os

    _check_tsne_arguments(perplexity, iterations)
    _check_layer_tags(model, layer_tags)
    written = {}
    spectra, ranking = band_summary(model, grid_size=grid_size)
    path = os.path.join(out_dir, "spectra.csv")
    write_spectra_csv(spectra, path)
    written["spectra"] = path
    path = os.path.join(out_dir, "bands.csv")
    write_bands_csv(spectra, ranking, path)
    written["bands"] = path

    maps = spatial_maps(model)
    path = os.path.join(out_dir, "maps.csv")
    write_maps_csv(maps, path)
    written["maps"] = path
    path = os.path.join(out_dir, "maps.svg")
    write_maps_svg(maps, path)
    written["maps_svg"] = path

    effective = min(float(perplexity), max(2.0, (len(trials) - 1) / 3.0))
    exaggeration_iters = min(250, iterations // 3)
    activations = layer_activations(model, trials, layer_tags)
    labels = [t.label for t in trials]
    for tag in layer_tags:
        embedding = tsne(activations[tag], perplexity=effective,
                         iterations=iterations, seed=seed, labels=labels,
                         layer_tag=tag,
                         exaggeration_iters=exaggeration_iters)
        path = os.path.join(out_dir, f"tsne_{tag}.csv")
        write_embedding_csv(embedding, path)
        written[f"tsne_{tag}"] = path
        path = os.path.join(out_dir, f"tsne_{tag}.svg")
        write_embedding_svg(embedding, path)
        written[f"tsne_{tag}_svg"] = path
    return written
