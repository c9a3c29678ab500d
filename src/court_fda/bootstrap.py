"""Resampling stability of the fitted components.

Replicates draw players with replacement, the decomposition is refit on
each draw, and the refit components are compared against the full-data
reference fit after sign alignment.

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
from typing import Sequence

import numpy as np

from court_fda.fda import (
    MfpcaModel,
    RankDeficiencyError,
    fit_mfpca,
    flip_component_signs,
    h_norm,
    inner_product,
)

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


def resample(samples: Sequence, seed: int) -> list:
    """Bootstrap draw of the sample list; identical seeds give identical draws."""
    if len(samples) < 1:
        raise ValueError("cannot resample an empty sample list")
    return [samples[i] for i in resample_indices(len(samples), seed)]


def align_signs(reference: MfpcaModel, candidate: MfpcaModel) -> MfpcaModel:
    """Flip candidate components so each aligns non-negatively with the reference.

    Scores flip together with their eigenfunctions, so the candidate's
    reconstructions are unchanged. Alignments can only grow: flipping by
    the sign of the inner product maps it to its absolute value.
    """
    if reference.grid != candidate.grid:
        raise ValueError(f"grid mismatch: {reference.grid} vs {candidate.grid}")
    if reference.n_components != candidate.n_components:
        raise ValueError(
            f"component count mismatch: {reference.n_components} vs {candidate.n_components}"
        )
    signs = []
    for ref_pair, cand_pair in zip(reference.pairs, candidate.pairs):
        ip = inner_product(cand_pair.eigenfunction, ref_pair.eigenfunction, reference.weights)
        signs.append(-1.0 if ip < 0.0 else 1.0)
    return flip_component_signs(candidate, signs)


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


def stability_study(
    samples: Sequence,
    reference: MfpcaModel,
    n_replicates: int = 5,
    seed: int = 0,
    dump_dir: str | Path | None = None,
) -> StabilityReport:
    """Refit on bootstrap draws and measure component stability.

    ``reference`` is the model fitted on the full ``samples``; its
    component count is the one each replicate asks for. The players are
    resampled n_replicates times, each draw is refit and sign-aligned,
    and the report holds alignments, eigenvalue ratios, and mean-function
    distances. A replicate whose numerical rank falls below the component
    count is refit at its achievable rank and flagged rather than treated
    as fatal.

    With ``dump_dir`` set, each replicate's mean and eigenfunctions are
    exported as heatmap CSV/PGM pairs.
    """
    if n_replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {n_replicates}")
    k = reference.n_components
    alignments = np.full((n_replicates, k), np.nan)
    ratios = np.full((n_replicates, k), np.nan)
    mean_distances = np.zeros(n_replicates)
    achieved = np.zeros(n_replicates, dtype=int)

    for r in range(n_replicates):
        draw = resample(samples, stream_seed(seed, r))
        try:
            model = fit_mfpca(draw, n_components=k)
        except RankDeficiencyError as exc:
            if exc.achievable_rank < 1:
                achieved[r] = 0
                mean_distances[r] = np.nan
                continue
            model = fit_mfpca(draw, n_components=exc.achievable_rank)
        achieved[r] = model.n_components
        for j in range(model.n_components):
            ip = inner_product(model.pairs[j].eigenfunction, reference.pairs[j].eigenfunction, reference.weights)
            alignments[r, j] = min(abs(ip), 1.0)
            ref_val = reference.pairs[j].eigenvalue
            ratios[r, j] = model.pairs[j].eigenvalue / ref_val if ref_val > 0 else np.nan
        mean_distances[r] = h_norm(model.mean - reference.mean, reference.weights)
        if dump_dir is not None:
            _dump_replicate(model, Path(dump_dir), r)

    return StabilityReport(
        n_replicates=n_replicates,
        n_components=k,
        seed=seed,
        alignments=alignments,
        eigenvalue_ratios=ratios,
        mean_distances=mean_distances,
        achieved_ranks=achieved,
    )


def _dump_replicate(model: MfpcaModel, out_dir: Path, index: int) -> None:
    from court_fda.export import export_heatmap

    out_dir.mkdir(parents=True, exist_ok=True)
    for comp_idx, comp in enumerate(("missed", "made")):
        export_heatmap(model.mean[comp_idx], model.grid, out_dir / f"replicate{index}_mean_{comp}")
        for j, pair in enumerate(model.pairs, start=1):
            export_heatmap(
                pair.eigenfunction[comp_idx],
                model.grid,
                out_dir / f"replicate{index}_eigenfunction_{j}_{comp}",
            )


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
