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

from dataclasses import dataclass

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

EXAGGERATION = 12.0  # t-SNE's scale of P in its early steps (see ``tsne``)

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


def _distances_from_gram(g, sq):
    """Pairwise squared distances from a Gram matrix and its row norms."""
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    # exact symmetry matters: identical input rows must see bitwise
    # identical distances, or float noise seeds a spurious separation
    d2 = (d2 + d2.T) / 2.0
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _binary_search_neighbors(d2, perplexity, tol=1e-4, max_iter=200):
    """Per-point conditional neighbor distributions at fixed perplexity.

    Binary-searches each point's Gaussian precision until exp(entropy)
    matches the target within ``tol``. All rows are searched together:
    each step works on the rows that have not converged yet, and every row
    goes through the arithmetic of a search of that row alone, so its
    result does not depend on the other rows. Besides ``d2`` the search
    holds three [m, m-1] arrays, then one of them and the [m, m] result.
    """
    m = d2.shape[0]
    # row i of d2 without d2[i, i]: the diagonal sits at every (m+1)-th
    # flat index, so it is the last column of the flat tail as [m-1, m+1]
    flat = np.ascontiguousarray(d2, dtype=np.float64).reshape(-1)
    neg = np.array(flat[1:].reshape(m - 1, m + 1)[:, :-1]).reshape(m, m - 1)
    # shifting by the row minimum keeps the normalizer >= 1, so the
    # weights never underflow to an all-zero row (normalized
    # probabilities and entropy are shift-invariant)
    neg -= neg.min(axis=1, keepdims=True)
    np.negative(neg, out=neg)  # exp(-shifted * beta) takes one product
    beta = np.ones(m)
    lo = np.full(m, -np.inf)
    hi = np.full(m, np.inf)
    active = np.arange(m)
    rows, terms = np.empty_like(neg), np.empty_like(neg)
    for step in range(max_iter):
        row, term = rows[:active.size], terms[:active.size]
        # mode="clip" writes straight into out ("raise" buffers a copy)
        np.take(neg, active, axis=0, out=row, mode="clip")
        row *= beta[active, None]
        np.exp(row, out=row)
        row /= row.sum(axis=1, keepdims=True)
        np.maximum(row, 1e-300, out=term)
        np.log(term, out=term)
        term *= row
        perp = np.exp(-term.sum(axis=1))
        done = np.abs(perp - perplexity) <= tol
        if step == max_iter - 1:
            done[:] = True  # out of steps: a row keeps its last value
        # a finished row no longer needs its distances, so it replaces them
        finished = np.flatnonzero(done)
        neg[active[finished]] = np.take(row, finished, axis=0, mode="clip",
                                        out=terms[:finished.size])
        active, perp = active[~done], perp[~done]
        if not active.size:
            break
        b, over = beta[active], perp > perplexity
        lo[active] = np.where(over, b, lo[active])
        hi[active] = np.where(over, hi[active], b)
        beta[active] = np.where(
            over,
            np.where(hi[active] == np.inf, b * 2.0, (b + hi[active]) / 2.0),
            np.where(lo[active] == -np.inf, b / 2.0, (b + lo[active]) / 2.0))
    del rows, terms, row, term  # free both buffers before p is made
    p = np.zeros((m, m))
    p.reshape(-1)[1:].reshape(m - 1, m + 1)[:, :-1] = neg.reshape(m - 1, m)
    return p


def _kl_divergence(p, num, scratch):
    """KL(P || Q) for a P without zeros and Q the kernel ``num`` normalized
    and clamped at 1e-12; ``scratch`` is an [m, m] buffer it overwrites."""
    q = np.divide(num, num.sum(), out=scratch)
    np.maximum(q, 1e-12, out=q)
    terms = np.divide(p, q, out=q)
    np.log(terms, out=terms)
    terms *= p
    return float(terms.sum())


def _tsne_kernel(y, num, scratch):
    """Student-t kernel 1 / (1 + |y_i - y_j|^2) of [m, 2] points, into num.

    Built from coordinate differences, so it is exactly symmetric ((a-b)^2
    and (b-a)^2 are the same float) and needs no clamp; the diagonal is
    zero. ``scratch`` is an [m, m] buffer it overwrites. Returns num.
    """
    np.subtract(y[:, 0, None], y[None, :, 0], out=num)
    np.square(num, out=num)
    np.subtract(y[:, 1, None], y[None, :, 1], out=scratch)
    np.square(scratch, out=scratch)
    num += scratch
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    return num


def _tsne_gradient(p, y, num, scratch):
    """KL gradient 4 sum_j (p_ij - q_ij) num_ij (y_i - y_j) at kernel num.

    q is num normalized to sum 1; ``scratch`` is an [m, m] buffer it
    overwrites. Returns the [m, 2] gradient.
    """
    pq = np.divide(num, -num.sum(), out=scratch)
    pq += p
    pq *= num
    return 4.0 * (pq.sum(axis=1)[:, None] * y - pq @ y)


def _check_tsne_arguments(perplexity, iterations):
    if not perplexity >= 1:  # exp(entropy) >= 1, so no search reaches it
        raise ValueError(f"perplexity must be >= 1, got {perplexity}")
    if not iterations >= 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")


# float64 bytes of one column chunk of the t-SNE Gram matrix
_GRAM_CHUNK_BYTES = 1 << 21


def _centred_gram(x, rows=slice(None)):
    """Gram matrix u u^T of the ``rows`` of x centred over those rows, in
    float64. Raises ValueError naming the first row that is not finite.

    Columns are converted, checked and centred one chunk of at most
    ``_GRAM_CHUNK_BYTES`` at a time, so no float64 copy of x is made.
    """
    n = x[rows, :1].shape[0]
    step = max(1, _GRAM_CHUNK_BYTES // (8 * n))
    g = np.zeros((n, n))
    finite = np.ones(n, dtype=bool)
    for j in range(0, x.shape[1], step):
        u = np.array(x[rows, j:j + step], dtype=np.float64)  # private
        finite &= np.isfinite(u).all(axis=1)
        if finite.all():  # past a bad row only the check goes on
            u -= u.mean(axis=0)  # distances do not change under a shift
            g += u @ u.T
    if not finite.all():
        raise ValueError(
            f"activation row {int(np.argmin(finite))} is not finite")
    return g


def _group_equal_rows(x, d2, sq):
    """Group the exactly equal rows of x (-0.0 equals 0.0), given their
    squared distances d2 from a centred float64 Gram matrix with diagonal sq.

    Each Gram entry is a sum of d products, off by at most d eps |u_i| |u_j|
    in float64, so two equal rows lie within 4 d eps (sq_i + sq_j) of
    distance 0. Every pair within that bound is confirmed with
    ``np.array_equal``. Returns the indices of the distinct rows in order of
    first occurrence and, for every row, the position of its group among
    them.
    """
    n, d = x.shape
    bound = 4.0 * d * np.finfo(np.float64).eps * np.add.outer(sq, sq)
    first = np.arange(n)
    # pairs in row-major order: a row meets its first occurrence first
    for i, j in np.argwhere(np.triu(d2 <= bound, 1)):
        if first[i] == i and first[j] == j and np.array_equal(x[i], x[j]):
            first[j] = i
    return np.unique(first, return_inverse=True)


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

    The perplexity shrinks to max(2, (m - 1) / 3) when the m distinct rows
    are too few to support the requested value.

    The cost is one n x n Gram matrix of the centred rows, built in float64
    one column chunk at a time (``_centred_gram``). Exact duplicates are
    found from the distances it gives (``_group_equal_rows``); only when
    there are some is the Gram rebuilt over the m distinct rows. Both the
    neighbor distances and the initialization come from that Gram. Returns
    (distinct, inverse, p, y): the indices of the distinct rows in order of
    first occurrence, each row's position among them, the [m, m] joint
    probabilities and the [m, 2] initial coordinates.
    """
    x = np.asarray(activations)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"activations must be [N, d>=2], got {x.shape}")
    n = x.shape[0]
    g = _centred_gram(x)

    # Exact-duplicate rows must come out coincident, but the descent cannot
    # guarantee that on its own: at this learning rate the dynamics of a
    # coincident pair are unstable, so any summation-order float asymmetry
    # (~1e-16) doubles every few iterations until the pair flies apart.
    # Embed the distinct rows only and broadcast coordinates back at the end.
    sq = np.diag(g)
    d2 = _distances_from_gram(g, sq)
    distinct, inverse = _group_equal_rows(x, d2, sq)
    m = distinct.size
    if m < 3:
        raise ValueError(f"only {m} distinct activation rows; need >= 3")
    if m < n:
        g = _centred_gram(x, distinct)
        d2 = _distances_from_gram(g, np.diag(g))
    perp = min(float(perplexity), max(2.0, (m - 1) / 3.0))
    cond = _binary_search_neighbors(d2, perp)
    del d2
    p = (cond + cond.T) / (2.0 * m)
    p = np.maximum(p, 1e-12)
    return distinct, inverse, p, _pca_init(g)


def tsne(activations, perplexity=30.0, iterations=1000, labels=None,
         layer_tag=""):
    """Exact t-SNE to two dimensions.

    The set-up (``_tsne_setup``) needs one Gram matrix over the distinct
    rows; activation rows must be finite. Deterministic, so it takes no
    seed: initialization is the top-2 PCA projection scaled to std 1e-4
    (no jitter), each component signed so that its largest-magnitude entry
    is positive. Each descent step computes the Student-t kernel of the
    points once (``_tsne_kernel``), from coordinate differences into one
    of two reused [m, m] buffers, and the gradient (``_tsne_gradient``)
    from it. The first min(250, iterations // 3) steps run with P scaled
    by ``EXAGGERATION``; the initial and final KL are taken against the
    plain (non-exaggerated) similarity matrix.
    """
    _check_tsne_arguments(perplexity, iterations)
    exaggeration_iters = min(250, iterations // 3)
    _, inverse, p, y = _tsne_setup(activations, perplexity)
    m = y.shape[0]
    lr = max(m / 12.0, 50.0)
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    num, scratch = np.empty((m, m)), np.empty((m, m))
    _tsne_kernel(y, num, scratch)
    initial_kl = _kl_divergence(p, num, scratch)

    p_eff = p * EXAGGERATION
    for it in range(iterations):
        if it == exaggeration_iters:
            p_eff = p
        grad = _tsne_gradient(p_eff, y, num, scratch)
        momentum = 0.5 if it < exaggeration_iters else 0.8
        flips = np.sign(grad) != np.sign(velocity)
        gains = np.where(flips, gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - lr * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        _tsne_kernel(y, num, scratch)  # serves the next step

    final_kl = _kl_divergence(p, num, scratch)
    points = y[inverse]
    return Embedding2D(points=points, labels=list(labels) if labels is not None
                       else [], layer_tag=layer_tag, initial_kl=initial_kl,
                       final_kl=final_kl)


# -- layer activations --------------------------------------------------------------


def _check_layer_tags(model, layer_tags):
    unknown = [t for t in layer_tags if t not in model.capture_tags]
    if unknown:
        raise ValueError(
            f"unknown capture tags {unknown}; model offers "
            f"{sorted(model.capture_tags)}")


def layer_activations(model, trials, layer_tags=DEFAULT_LAYER_TAGS):
    """Flattened per-trial activation matrices at the tagged stages.

    ``Model.infer`` stacks one batch of windows at a time, and each tagged
    stage's output is copied into its rows of one preallocated matrix per
    tag as that stage returns, so a forward holds no capture past the
    stage that made it. The matrices are allocated before the first batch,
    sized by a one-trial forward: allocated during a batch, one could land
    on top of that batch's temporaries in the C heap, so the heap could
    not shrink under what the caller allocates next.
    """
    _check_layer_tags(model, layer_tags)
    windows = [t.window for t in trials]
    probe = {}

    def measure(tag):
        def keep(_, data):
            probe[tag] = (data[0].size, data.dtype)
        return keep

    def copy_into(matrix):
        def keep(start, data):
            matrix[start:start + len(data)] = data.reshape(len(data), -1)
        return keep

    next(model.infer(windows[:1],
                     capture={tag: measure(tag) for tag in layer_tags}))
    rows = {tag: np.empty((len(windows), probe[tag][0]), probe[tag][1])
            for tag in layer_tags}
    for _ in model.infer(windows, capture={
            tag: copy_into(matrix) for tag, matrix in rows.items()}):
        pass
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
                    perplexity=30.0, iterations=1000,
                    grid_size=DEFAULT_GRID_SIZE):
    """Run every analysis on a frozen model and write the output files.

    The embedding perplexity shrinks when there are too few distinct
    activation rows to support the requested value (``tsne``). The
    perplexity, the iteration count and the layer tags are checked before
    any file is written.
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

    activations = layer_activations(model, trials, layer_tags)
    labels = [t.label for t in trials]
    for tag in layer_tags:
        embedding = tsne(activations[tag], perplexity=perplexity,
                         iterations=iterations, labels=labels,
                         layer_tag=tag)
        path = os.path.join(out_dir, f"tsne_{tag}.csv")
        write_embedding_csv(embedding, path)
        written[f"tsne_{tag}"] = path
        path = os.path.join(out_dir, f"tsne_{tag}.svg")
        write_embedding_svg(embedding, path)
        written[f"tsne_{tag}_svg"] = path
    return written
