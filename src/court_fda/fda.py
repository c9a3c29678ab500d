"""Multivariate functional PCA for gridded bivariate observations.

The data live in the product of two L2 spaces over the unit square; the
inner product is the sum of the two component inner products, each
discretized with product trapezoid weights. The decomposition runs
through the N x N matrix of centered inner products (the dual route),
which shares its nonzero spectrum with the discretized covariance
operator; :func:`covariance_oracle` keeps the direct operator route
available on coarse grids as an independent cross-check.

Bivariate grid functions are ndarrays of shape (2, nx, ny) with the
missed component first and the made component second. A dataset is one
:class:`~court_fda.density.DensityStack`, which stays in its files: the
mean, the Gram matrix, the eigenfunctions and the scores are each one pass
over its blocks of grid nodes, read and centered in one buffer, so no more
than one block of the stack is held at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from court_fda.density import DensityStack
from court_fda.export import check_npy, read_npy_rows, replacing, write_json
from court_fda.grids import GridSpec, grid_integral

#: Relative cutoff under which a Gram eigenvalue counts as numerically zero.
RANK_RTOL = 1e-12

#: Largest entrywise gap |G - G'| that :func:`eigendecompose` accepts as symmetric.
SYMMETRY_TOL = 1e-12

#: Negative eigenvalues this close to zero are rounding and read as 0.
CLAMP_TOL = 1e-10

#: Largest per-axis node count the direct covariance route will accept.
MAX_ORACLE_NODES = 21

#: Grid nodes per column block when a stack is read and centered block by block;
#: a block of N players holds N * GRAM_BLOCK floats.
GRAM_BLOCK = 4096


class GridMismatchError(ValueError):
    """Operands are defined on different grids."""


class RankDeficiencyError(ValueError):
    """More components requested than the data's numerical rank supports."""

    def __init__(self, achievable_rank: int, message: str):
        super().__init__(message)
        self.achievable_rank = achievable_rank


@dataclass
class ScoreMatrix:
    """Per-player component scores; rows follow the dataset order."""

    player_ids: list[str]
    values: np.ndarray

    @property
    def n_components(self) -> int:
        return self.values.shape[1]


@dataclass
class MfpcaModel:
    """Fitted decomposition: mean and eigenfunctions on one grid, eigenvalues, and training scores.

    ``functions`` is C-order float64 of shape (1 + K, 2, nx, ny): the mean,
    then the K unit-norm eigenfunctions in descending eigenvalue order.
    Eigenvalues are variances under the n-1 convention, so the k-th score
    column of the training set has sample variance eigenvalues[k].
    variance_ratios divide each eigenvalue by the total spectral mass of
    the data, retained or not.
    """

    grid: GridSpec
    functions: np.ndarray
    eigenvalues: np.ndarray
    n_samples: int
    variance_ratios: np.ndarray
    total_variance: float
    scores: ScoreMatrix

    @property
    def mean(self) -> np.ndarray:
        return self.functions[0]

    @property
    def eigenfunctions(self) -> np.ndarray:
        return self.functions[1:]

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)


def _bivariate(f) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != 2:
        raise ValueError(f"expected a bivariate grid function of shape (2, nx, ny), got {arr.shape}")
    return arr


def inner_product(f, g) -> float:
    """Product-space inner product: the two component integrals, summed, on the operands' grid."""
    F, G = _bivariate(f), _bivariate(g)
    if F.shape != G.shape:
        raise GridMismatchError(f"functions of shapes {F.shape} and {G.shape} lie on different grids")
    return grid_integral((F * G).sum(axis=0))


def h_norm(f) -> float:
    """Norm induced by :func:`inner_product`."""
    return float(np.sqrt(max(inner_product(f, f), 0.0)))


def mean_function(stack: DensityStack) -> np.ndarray:
    """Pointwise arithmetic mean of the samples, per component, shape (2, nx, ny).

    Each node's values are summed in player order, one block of nodes at a time, and the sum
    is divided by N: the bits of numpy's mean over the player axis of the whole stack, which a
    block one node wide would lose to numpy's pairwise summation.
    """
    if len(stack) == 0:
        raise ValueError("cannot average an empty sample list")
    mean = np.empty((2, stack.grid.nx * stack.grid.ny))
    for c, cols, block in stack.blocks(GRAM_BLOCK):
        total = mean[c, cols]
        total[:] = block[0]
        for row in block[1:]:
            total += row
    mean /= len(stack)
    return mean.reshape(2, stack.grid.nx, stack.grid.ny)


def _centered_blocks(stack: DensityStack, mean: np.ndarray) -> Iterator[tuple[int, slice, np.ndarray]]:
    """(component, node slice, centered C-contiguous N x block array) over :meth:`DensityStack.blocks`.

    Each block is centered in the stack's one read buffer, so it is valid only until the next
    one is requested: a consumer may change it in place but must not keep it.
    """
    if mean.shape != (2, stack.grid.nx, stack.grid.ny):
        raise GridMismatchError(f"samples lie on a {stack.grid.nx}x{stack.grid.ny} grid, mean has {mean.shape}")
    centers = mean.reshape(2, -1)
    for c, cols, block in stack.blocks(GRAM_BLOCK):
        block -= centers[c, cols]
        yield c, cols, block


def gram_matrix(stack: DensityStack, mean: np.ndarray) -> np.ndarray:
    """Matrix of centered inner products, exactly symmetric by mirroring.

    Entry (i, j) is the product-space inner product of the centered
    samples i and j, summed over column blocks; the upper triangle is
    kept and reflected.
    """
    if len(stack) < 2:
        raise ValueError(f"need at least 2 samples, got {len(stack)}")
    sqrt_w = np.sqrt(stack.grid.weights).ravel()
    raw = np.zeros((len(stack), len(stack)))
    for _, cols, block in _centered_blocks(stack, mean):
        block *= sqrt_w[cols]
        raw += block @ block.T
    return np.triu(raw) + np.triu(raw, 1).T


def eigendecompose(gram: np.ndarray):
    """Full spectral decomposition of a symmetric PSD matrix.

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvectors as columns. A matrix further than SYMMETRY_TOL from its
    transpose is refused; negative eigenvalues within CLAMP_TOL of zero
    are clamped to 0.
    """
    G = np.asarray(gram, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    asym = float(np.max(np.abs(G - G.T))) if G.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is asymmetric beyond tolerance: max |G - G^T| = {asym:.3e}")
    vals, vecs = np.linalg.eigh(G)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    vals[(vals < 0.0) & (vals >= -CLAMP_TOL)] = 0.0
    return vals, vecs


def numerical_rank(ell: np.ndarray) -> int:
    """Count of descending Gram eigenvalues above RANK_RTOL times the leading one."""
    return int(np.sum(ell > RANK_RTOL * ell[0])) if ell[0] > 0 else 0


def _canonical_sign(phi: np.ndarray) -> float:
    """The sign that makes a grid function's largest-magnitude value positive.

    Ties break at the lowest row-major node index, scanning the missed
    component before the made one; this pins an otherwise arbitrary sign.
    """
    flat = phi.ravel()
    return -1.0 if flat[int(np.argmax(np.abs(flat)))] < 0.0 else 1.0


def gram_functions(
    stack: DensityStack, center: np.ndarray, weights: np.ndarray, ell: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unit, sign-fixed eigenfunctions from Gram eigenvectors, after ``center`` in one array.

    With C the stack centered on ``center`` and ``weights`` a K x N matrix over its samples,
    row 0 of the C-order (1 + K, 2, nx, ny) result is ``center`` and row j is
    C' weights[j - 1] / sqrt(ell[j - 1]) times the sign :func:`_canonical_sign` picks for it,
    one product per column block of C. Returns the functions and the K signs.
    """
    k = len(ell)
    functions = np.empty((1 + k, *center.shape))
    functions[0] = center
    projections = functions[1:].reshape(k, 2, -1)
    for c, cols, block in _centered_blocks(stack, center):
        projections[:, c, cols] = weights @ block
    signs = np.empty(k)
    for j, phi in enumerate(functions[1:]):
        phi /= np.sqrt(ell[j])
        signs[j] = _canonical_sign(phi)
        phi *= signs[j]
    return functions, signs


def fit_mfpca(
    stack: DensityStack,
    n_components: int | None = None,
    variance_threshold: float | None = None,
    gram: np.ndarray | None = None,
    mean: np.ndarray | None = None,
) -> MfpcaModel:
    """Fit the decomposition through the Gram (dual) route.

    Exactly one of n_components and variance_threshold must be given.
    With a threshold, the smallest K whose cumulative variance ratio
    reaches it (within 1e-12) is retained. Gram eigenvalues below
    RANK_RTOL times the leading one are never retained; asking for more
    components than that numerical rank raises
    :class:`RankDeficiencyError` stating the achievable rank.
    A caller that already holds ``mean_function(stack)`` passes it as ``mean``, and
    ``gram_matrix(stack, mean_function(stack))`` as ``gram``; each is built here otherwise.
    """
    if (n_components is None) == (variance_threshold is None):
        raise ValueError("specify exactly one of n_components and variance_threshold")
    n = len(stack)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if mean is None:
        mean = mean_function(stack)
    ell, u = eigendecompose(gram_matrix(stack, mean) if gram is None else gram)

    rank = numerical_rank(ell)
    if rank == 0:
        raise RankDeficiencyError(0, "all samples are identical; no variance to decompose")
    total_variance = float(ell[ell > 0].sum() / (n - 1))
    ratios_all = (ell / (n - 1)) / total_variance

    if n_components is not None:
        if not 1 <= n_components <= n - 1:
            raise ValueError(f"n_components must be in [1, {n - 1}], got {n_components}")
        if n_components > rank:
            raise RankDeficiencyError(
                rank, f"requested {n_components} components but the numerical rank is {rank}"
            )
        k = n_components
    else:
        if not 0.0 < variance_threshold <= 1.0:
            raise ValueError(f"variance_threshold must lie in (0, 1], got {variance_threshold}")
        cumulative = np.cumsum(ratios_all[:rank])
        reached = np.nonzero(cumulative >= variance_threshold - 1e-12)[0]
        if len(reached) == 0:
            raise RankDeficiencyError(
                rank,
                f"threshold {variance_threshold} is unreachable: rank {rank} covers "
                f"{cumulative[-1]:.6f} of the variance",
            )
        k = int(reached[0]) + 1

    functions, signs = gram_functions(stack, mean, u[:, :k].T, ell[:k])
    score_values = u[:, :k] * np.sqrt(ell[:k]) * signs

    return MfpcaModel(
        grid=stack.grid,
        functions=functions,
        eigenvalues=ell[:k] / (n - 1),
        n_samples=n,
        variance_ratios=ratios_all[:k].copy(),
        total_variance=total_variance,
        scores=ScoreMatrix(list(stack.player_ids), score_values),
    )


def project_scores(sample, model: MfpcaModel) -> np.ndarray:
    """Score vector of a sample: centered projections onto each eigenfunction."""
    x = np.asarray(sample, dtype=float)
    if x.shape != model.mean.shape:
        raise GridMismatchError(f"sample shape {x.shape} does not match model grid {model.mean.shape}")
    centered = x - model.mean
    return np.array([inner_product(centered, phi) for phi in model.eigenfunctions])


def project_scores_all(stack: DensityStack, model: MfpcaModel) -> ScoreMatrix:
    """Scores for a whole stack, one row per sample, summed over column blocks."""
    if stack.grid != model.grid:
        raise GridMismatchError(f"samples lie on {stack.grid}, the model on {model.grid}")
    weighted = (model.eigenfunctions * model.grid.weights).reshape(model.n_components, 2, -1)
    values = np.zeros((len(stack), model.n_components))
    for c, cols, block in _centered_blocks(stack, model.mean):
        values += block @ weighted[:, c, cols].T
    return ScoreMatrix(list(stack.player_ids), values)


def reconstruct(scores: Sequence[float], model: MfpcaModel) -> np.ndarray:
    """Truncated expansion: mean plus the score-weighted eigenfunctions."""
    c = np.asarray(scores, dtype=float)
    if c.ndim != 1 or len(c) > model.n_components:
        raise ValueError(f"score vector of shape {c.shape} exceeds the model's {model.n_components} components")
    out = model.mean.copy()
    for ck, phi in zip(c, model.eigenfunctions):
        out += ck * phi
    return out


def covariance_oracle(stack: DensityStack) -> tuple[np.ndarray, np.ndarray]:
    """Direct route: eigendecompose the discretized covariance operator.

    Reads the coarse stack's rows whole and builds the full (2 nx ny)
    square covariance matrix of the stacked component vectors, symmetrizes it in the quadrature metric, and
    solves the dense eigenproblem. Intended as an independent check of
    the Gram route on coarse grids; refuses grids above
    MAX_ORACLE_NODES nodes per axis.

    Returns (eigenvalues, eigenfunctions) down to the numerical-rank
    cutoff, eigenfunctions stacked as (K, 2, nx, ny) and sign-fixed with
    the same convention as :func:`fit_mfpca`.
    """
    n, grid = len(stack), stack.grid
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if grid.nx > MAX_ORACLE_NODES or grid.ny > MAX_ORACLE_NODES:
        raise ValueError(
            f"covariance oracle refuses grids above {MAX_ORACLE_NODES}x{MAX_ORACLE_NODES}; got {grid.nx}x{grid.ny}"
        )
    stacked = stack.rows(stack.player_ids).transpose(1, 0, 2, 3).reshape(n, -1)
    centered = stacked - stacked.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    sqrt_w = np.sqrt(np.tile(grid.weights.ravel(), 2))
    sym = sqrt_w[:, None] * cov * sqrt_w[None, :]
    vals, vecs = eigendecompose(0.5 * (sym + sym.T))
    rank = numerical_rank(vals)
    funcs = []
    for j in range(rank):
        phi = (vecs[:, j] / sqrt_w).reshape((2, grid.nx, grid.ny))
        funcs.append(phi * _canonical_sign(phi))
    return vals[:rank], np.stack(funcs) if funcs else np.empty((0, 2, grid.nx, grid.ny))


class ModelFileError(ValueError):
    """A model document or its function array is unreadable, incomplete, inconsistent, or not finite."""


def save_model(model: MfpcaModel, path: str | Path) -> None:
    """Write a model as the JSON document ``path`` and ``<stem>_functions.npy`` beside it.

    The array is ``model.functions`` as it is. The old document is removed first, the array is
    written under a temporary name and renamed into place, and the document is written last,
    so a write that fails leaves no document beside another fit's array, and the loader
    refuses the directory. The quadrature weights follow from the grid and are not stored.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    with replacing(path.with_name(f"{path.stem}_functions.npy")) as temporary, temporary.open("xb") as fh:
        np.save(fh, model.functions)
    doc = {
        "grid": {"nx": model.grid.nx, "ny": model.grid.ny},
        "eigenvalues": model.eigenvalues.tolist(),
        "variance_ratios": model.variance_ratios.tolist(),
        "total_variance": model.total_variance,
        "n_samples": model.n_samples,
        "player_ids": model.scores.player_ids,
        "scores": model.scores.values.tolist(),
    }
    write_json(doc, path)


def _finite(name: str, values, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a float array, refused unless it holds only finite numbers in ``shape``.

    A JSON ``true`` or ``false`` is not a number, though numpy would read it as 1 or 0.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iuf" or array.shape != shape:
        raise ValueError(f"{name} holds {array.dtype} of shape {array.shape}, expected numbers of shape {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a non-finite value")
    kinds = set() if isinstance(values, np.ndarray) else set(map(type, np.asarray(values, dtype=object).ravel()))
    if not kinds <= {int, float}:
        raise ValueError(f"{name} holds true or false where a number belongs")
    return array.astype(float, copy=False)


def load_model(path: str | Path) -> MfpcaModel:
    """Inverse of :func:`save_model`; the function array is read straight into a C-order model array.

    Raises :class:`ModelFileError` for a missing or unreadable file, a missing key, a field of the
    wrong type or shape, a player id listed twice, a function array that is not C-order float64 of
    the document's shape or is cut short (both checked before it is allocated), or a non-finite value.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        nx, ny, n_samples, player_ids = doc["grid"]["nx"], doc["grid"]["ny"], doc["n_samples"], doc["player_ids"]
        if not all(type(v) is int for v in (nx, ny, n_samples)):
            raise ValueError("the grid sizes and n_samples must be integers")
        if not isinstance(player_ids, list) or not all(isinstance(pid, str) for pid in player_ids):
            raise ValueError("player_ids must be a list of strings")
        if len(set(player_ids)) < len(player_ids):
            raise ValueError(f"player {max(player_ids, key=player_ids.count)!r} is listed twice")
        grid, k = GridSpec(nx, ny), len(doc["eigenvalues"])
        eigenvalues, ratios = (_finite(key, doc[key], (k,)) for key in ("eigenvalues", "variance_ratios"))
        scores = _finite("scores", doc["scores"], (len(player_ids), k))
        total_variance = float(_finite("total_variance", doc["total_variance"], ()))
        name, shape = f"{path.stem}_functions.npy", (1 + k, 2, nx, ny)
        with path.with_name(name).open("rb") as fh:  # an .npy array only, never a pickle or an .npz archive
            start = check_npy(fh, shape)
            functions = np.empty(shape)
            read_npy_rows(fh, start, range(1 + k), functions)
        functions = _finite(name, functions, shape)
    except (KeyError, TypeError) as exc:
        raise ModelFileError(f"model file {path}: a key is missing or a field has the wrong type: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ModelFileError(f"model file {path}: {exc}") from exc
    return MfpcaModel(
        grid=grid,
        functions=functions,
        eigenvalues=eigenvalues,
        n_samples=n_samples,
        variance_ratios=ratios,
        total_variance=total_variance,
        scores=ScoreMatrix(player_ids, scores),
    )

