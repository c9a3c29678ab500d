"""Resampling stability of the fitted components.

Replicates draw players with replacement and compare the decomposition
of each draw against the full-data reference fit. Every draw lies in the
span of the N reference-centered samples, so each replicate reduces to
an N x N eigenproblem on one Gram matrix computed once (Fisher, Caffo,
Schwartz & Zipunnikov 2016, "Fast, exact bootstrap principal component
analysis for p > 1 million"); no replicate is refit on the grid.

Resampling uses SplitMix64 (the Steele-Lea-Vigna mixing generator): the
state is a single 64-bit counter advanced by a fixed odd constant, and
each output is a bijective scramble of that state. The algorithm is
fixed here rather than delegated to a library so that a given seed
reproduces the same draws on every platform and library version.
Replicate r derives its own stream seed as mix64(seed + (r + 1) * GAMMA),
so replicates may run concurrently without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from court_fda.density import DensityStack
from court_fda.export import export_fields
from court_fda.fda import GRAM_BLOCK, MfpcaModel, eigendecompose, gram_functions, gram_matrix, numerical_rank
from court_fda.fda import fit_mfpca  # noqa: F401  bound only for perfbench/spans.py to wrap
from court_fda.grids import GridSpec

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit-state generator with a fixed, portable algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_uint64()
            if v < limit:
                return v % n


def stream_seed(seed: int, index: int) -> int:
    """Seed of the independent stream used by replicate ``index``."""
    return _mix64((seed + (index + 1) * _GAMMA) & _MASK64)


def resample_indices(n: int, seed: int) -> np.ndarray:
    """n indices drawn uniformly with replacement from a seeded SplitMix64."""
    gen = SplitMix64(_mix64(seed))
    return np.array([gen.below(n) for _ in range(n)], dtype=int)


@dataclass
class StabilityReport:
    """Per-replicate, per-component comparison against the reference fit.

    alignments[r, k] is the absolute inner product between replicate r's
    k-th eigenfunction and the reference one (1 means identical up to
    sign); eigenvalue_ratios[r, k] divides the replicate eigenvalue by
    the reference; mean_distances[r] is the norm of the replicate's mean
    shift. Entries beyond a replicate's achieved rank are NaN and the
    replicate index appears in ``flagged``.
    """

    n_replicates: int
    n_components: int
    seed: int
    alignments: np.ndarray
    eigenvalue_ratios: np.ndarray
    mean_distances: np.ndarray
    achieved_ranks: np.ndarray

    @property
    def flagged(self) -> list[int]:
        return [int(r) for r in np.nonzero(self.achieved_ranks < self.n_components)[0]]

    def mean_alignment(self) -> np.ndarray:
        """Per-component alignment averaged over the replicates that reached it."""
        out = np.full(self.n_components, np.nan)
        for k in range(self.n_components):
            column = self.alignments[:, k]
            valid = column[~np.isnan(column)]
            if len(valid):
                out[k] = valid.mean()
        return out


class ReferenceMismatchError(ValueError):
    """The reference model was not fitted on the samples under study."""


def _check_reference(stack: DensityStack, reference: MfpcaModel) -> None:
    if reference.n_samples != len(stack):
        raise ReferenceMismatchError(f"reference was fitted on {reference.n_samples} samples, got {len(stack)}")
    if reference.scores.player_ids != stack.player_ids:
        raise ReferenceMismatchError("reference was fitted on different players")
    if stack.grid != reference.grid:
        raise ReferenceMismatchError(f"samples lie on {stack.grid}, the reference grid is {reference.grid}")


def stability_study(
    stack: DensityStack,
    reference: MfpcaModel,
    n_replicates: int = 5,
    seed: int = 0,
    dump_dir: str | Path | None = None,
    gram: np.ndarray | None = None,
) -> StabilityReport:
    """Measure component stability over bootstrap draws of the players.

    ``reference`` is the model fitted on the full ``stack``; its
    component count is the one each replicate asks for, and a reference
    fitted on other samples raises :class:`ReferenceMismatchError`.

    With G the reference-centered Gram matrix and H = I - 11'/N, the
    draw ``idx`` has centered Gram H G[idx, idx] H, whose eigenpairs
    (lam_j, u_j) give the replicate's eigenvalues lam_j / (N - 1). Its
    j-th eigenfunction meets the reference one, whose training scores
    are s_j and whose Gram eigenvalue is l_j, in the inner product
    u_j' H G[idx, :] s_j / (sqrt(lam_j) l_j). Its mean lies sqrt(w' G w)
    from the reference mean, with w_i = (times i was drawn - 1) / N: the
    -1/N terms add nothing since G 1 = 0, but they keep the sum free of
    cancellation, so a draw of every player once lies at distance 0.
    The report holds the absolute alignments, the eigenvalue ratios and
    the mean distances. A replicate whose numerical rank falls below the
    component count is compared at its achievable rank and flagged
    rather than treated as fatal.

    With ``dump_dir`` set, each replicate's mean and eigenfunctions up to
    its achieved rank are exported as heatmap CSV/PGM pairs. They come from
    the same eigenpairs, with C the stack centered on the reference mean:
    the j-th eigenfunction is C' v_j / sqrt(lam_j), sign-fixed, where v_j[i]
    sums H u_j over the draws of player i, and the mean is the reference mean
    plus C' w, which is X' w for the stack X since w sums to 0, summed block
    by block of grid nodes. H u_j is u_j in exact arithmetic; centering it
    keeps the rounding in u_j's mean from adding a multiple of the draw's mean
    shift. The stack is neither copied nor refit: each replicate reads it in
    two passes over its node blocks.

    A caller that already holds G, ``gram_matrix(stack, reference.mean)``,
    passes it as ``gram``; it is built here otherwise. Either way G must have
    the reference scores as eigenvectors, or :class:`ReferenceMismatchError` is raised.
    """
    if n_replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {n_replicates}")
    _check_reference(stack, reference)
    n, k = len(stack), reference.n_components
    if gram is None:
        gram = gram_matrix(stack, reference.mean)
    ref_ell = (n - 1) * reference.eigenvalues
    ref_scores = reference.scores.values
    # The algebra needs the reference scores to be eigenvectors of this Gram matrix.
    residual = np.max(np.abs(gram @ ref_scores - ref_scores * ref_ell))
    if residual > 1e-8 * ref_ell[0] * np.max(np.abs(ref_scores)):
        raise ReferenceMismatchError("reference was fitted on different sample values")
    alignments = np.full((n_replicates, k), np.nan)
    ratios = np.full((n_replicates, k), np.nan)
    mean_distances = np.full(n_replicates, np.nan)
    achieved = np.zeros(n_replicates, dtype=int)

    for r in range(n_replicates):
        idx = resample_indices(n, stream_seed(seed, r))
        g_rows = gram[idx]  # G[idx, :]
        h_rows = g_rows - g_rows.mean(axis=0)  # H G[idx, :]
        centered = h_rows[:, idx] - h_rows[:, idx].mean(axis=1, keepdims=True)  # H G[idx, idx] H
        lam, u = eigendecompose(np.triu(centered) + np.triu(centered, 1).T)
        a = min(numerical_rank(lam), k)
        achieved[r] = a
        if a == 0:
            continue
        ip = np.sum((u[:, :a].T @ h_rows) * ref_scores[:, :a].T, axis=1)
        alignments[r, :a] = np.minimum(np.abs(ip) / (np.sqrt(lam[:a]) * ref_ell[:a]), 1.0)
        ratios[r, :a] = (lam[:a] / (n - 1)) / reference.eigenvalues[:a]
        shift = (np.bincount(idx, minlength=n) - 1.0) / n
        mean_distances[r] = np.sqrt(max(float(shift @ gram @ shift), 0.0))
        if dump_dir is not None:
            hu = u[:, :a] - u[:, :a].mean(axis=0)  # H u_j
            weights = np.array([np.bincount(idx, hu[:, j], minlength=n) for j in range(a)])
            functions, _ = gram_functions(stack, reference.mean, weights, lam[:a])
            mean = functions[0].reshape(2, -1)
            for c, cols, block in stack.blocks(GRAM_BLOCK):
                mean[c, cols] += shift @ block
            _dump_replicate(functions, stack.grid, Path(dump_dir), r)

    return StabilityReport(
        n_replicates=n_replicates,
        n_components=k,
        seed=seed,
        alignments=alignments,
        eigenvalue_ratios=ratios,
        mean_distances=mean_distances,
        achieved_ranks=achieved,
    )


def _dump_replicate(functions: np.ndarray, grid: GridSpec, out_dir: Path, index: int) -> None:
    """Chart replicate ``index``'s mean, ``functions[0]``, and its eigenfunctions, the rest, on ``grid``."""
    charts = [(functions[0], out_dir / f"replicate{index}_mean", "symmetric")]
    charts += [(phi, out_dir / f"replicate{index}_eigenfunction_{j}", "symmetric")
               for j, phi in enumerate(functions[1:], start=1)]
    export_fields(charts, grid)


def report_to_dict(report: StabilityReport) -> dict:
    """JSON-ready form of a report; NaN entries become null."""

    def clean(arr: np.ndarray):
        return [[None if np.isnan(v) else float(v) for v in row] for row in np.atleast_2d(arr)]

    return {
        "n_replicates": report.n_replicates,
        "n_components": report.n_components,
        "seed": report.seed,
        "alignments": clean(report.alignments),
        "eigenvalue_ratios": clean(report.eigenvalue_ratios),
        "mean_distances": clean(report.mean_distances)[0],
        "achieved_ranks": [int(r) for r in report.achieved_ranks],
        "flagged_replicates": report.flagged,
    }
