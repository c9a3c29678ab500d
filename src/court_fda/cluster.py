"""Score standardization, weighted distances, and k-medoids clustering."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from court_fda.fda import ScoreMatrix
from court_fda.ingest import POSITION_ORDER, PlayerRecord

#: A swap must beat the current cost by more than this to be applied.
SWAP_TOL = 1e-12

#: Hard cap on swap iterations.
MAX_SWAP_ITER = 300

#: Medoid subsets are enumerated exactly up to this many candidates;
#: larger instances fall back to greedy build plus best-swap descent,
#: which is one-swap-optimal but can miss the global optimum.
EXACT_ENUMERATION_LIMIT = 20000


class WeightScheme(enum.Enum):
    """Component weighting inside the score-space distance."""

    EQUAL = "equal"
    VARIANCE_PROPORTION = "variance"


@dataclass
class Clustering:
    """k-medoids result: labels, medoid sample indices, and total cost."""

    labels: np.ndarray
    medoids: list[int]
    total_cost: float


def resolve_weights(
    scheme: WeightScheme, n_components: int, eigenvalues: Sequence[float] | None = None
) -> np.ndarray:
    """Resolved per-component weights, non-negative and summing to 1."""
    if scheme is WeightScheme.EQUAL:
        return np.full(n_components, 1.0 / n_components)
    if eigenvalues is None:
        raise ValueError("variance-proportion weighting needs the component eigenvalues")
    lam = np.asarray(eigenvalues, dtype=float)[:n_components]
    if len(lam) < n_components:
        raise ValueError(f"need {n_components} eigenvalues, got {len(lam)}")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be non-negative")
    total = lam.sum()
    if total <= 0:
        raise ValueError("eigenvalues sum to zero; weights undefined")
    return lam / total


def standardize_scores(scores: ScoreMatrix) -> ScoreMatrix:
    """Center and scale each score column to mean 0, variance 1 (n-1 denominator)."""
    values = np.asarray(scores.values, dtype=float)
    std = values.std(axis=0, ddof=1)
    dead = np.nonzero(std == 0.0)[0]
    if len(dead):
        raise ValueError(f"component {int(dead[0]) + 1} has zero variance; cannot standardize")
    return ScoreMatrix(list(scores.player_ids), (values - values.mean(axis=0)) / std)


def distance_matrix(
    scores: ScoreMatrix,
    scheme: WeightScheme = WeightScheme.EQUAL,
    eigenvalues: Sequence[float] | None = None,
) -> np.ndarray:
    """Weighted Euclidean distances between score rows under a weight scheme.

    See :func:`weighted_distances`.
    """
    values = np.asarray(scores.values, dtype=float)
    return weighted_distances(values, resolve_weights(scheme, values.shape[1], eigenvalues))


def weighted_distances(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Euclidean distances d(i,j) = sqrt(sum_k w_k (c_ik - c_jk)^2) between rows.

    Each unordered pair is computed once and mirrored, so the matrix is
    exactly symmetric with a zero diagonal.
    """
    n = len(values)
    scaled = values * np.sqrt(weights)
    out = np.zeros((n, n))
    iu, ju = np.triu_indices(n, 1)
    d = np.sqrt(((scaled[iu] - scaled[ju]) ** 2).sum(axis=1))
    out[iu, ju] = d
    out[ju, iu] = d
    return out


def _assignment_cost(dist: np.ndarray, medoids: Sequence[int]) -> float:
    return float(dist[list(medoids)].min(axis=0).sum())


def _exact_medoids(d: np.ndarray, k: int) -> list[int]:
    """Globally optimal medoid set by direct enumeration.

    Subsets are scored in lexicographic order with strict improvement, so
    cost ties resolve to the lexicographically smallest set.
    """
    n = d.shape[0]
    best_cost = np.inf
    best: tuple[int, ...] = tuple(range(k))
    chunk: list[tuple[int, ...]] = []
    # bound the (chunk, k, n) scratch array to ~4M elements
    chunk_len = max(1, 4_000_000 // (k * n))

    def flush():
        nonlocal best_cost, best
        if not chunk:
            return
        idx = np.array(chunk)
        costs = d[idx].min(axis=1).sum(axis=1)
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best = chunk[j]
        chunk.clear()

    for subset in combinations(range(n), k):
        chunk.append(subset)
        if len(chunk) >= chunk_len:
            flush()
    flush()
    return list(best)


def _pam_medoids(d: np.ndarray, k: int) -> list[int]:
    """Greedy build followed by best-swap descent; one-swap-optimal.

    The build picks the point minimizing total distance, then repeatedly
    adds the point that most reduces the assignment cost. The descent
    applies the single best (medoid, non-medoid) swap while it improves
    the cost by more than SWAP_TOL, up to MAX_SWAP_ITER rounds; ties
    break toward the lowest index in medoid-major order.
    """
    n = d.shape[0]
    medoids = [int(np.argmin(d.sum(axis=1)))]
    nearest = d[medoids[0]].copy()
    while len(medoids) < k:
        chosen = set(medoids)
        candidates = np.array([i for i in range(n) if i not in chosen])
        trial = np.minimum(nearest[None, :], d[candidates]).sum(axis=1)
        best = int(candidates[np.argmin(trial)])
        medoids.append(best)
        nearest = np.minimum(nearest, d[best])

    meds = sorted(medoids)
    cost = _assignment_cost(d, meds)
    for _ in range(MAX_SWAP_ITER):
        best_cost = cost
        best_swap: tuple[int, int] | None = None
        med_arr = np.array(meds)
        in_meds = np.zeros(n, dtype=bool)
        in_meds[med_arr] = True
        others = np.nonzero(~in_meds)[0]
        if len(others) == 0:
            break
        for pos in range(len(meds)):
            if k == 1:
                base = np.full(n, np.inf)
            else:
                base = d[np.delete(med_arr, pos)].min(axis=0)
            trial = np.minimum(base[None, :], d[others]).sum(axis=1)
            j = int(np.argmin(trial))
            if trial[j] < best_cost:
                best_cost = float(trial[j])
                best_swap = (pos, int(others[j]))
        if best_swap is None or cost - best_cost <= SWAP_TOL:
            break
        meds[best_swap[0]] = best_swap[1]
        meds.sort()
        cost = best_cost
    return meds


def kmedoids(dist: np.ndarray, k: int) -> Clustering:
    """Deterministic k-medoids clustering of a precomputed distance matrix.

    Small instances (at most EXACT_ENUMERATION_LIMIT medoid subsets) are
    solved exactly by enumeration; larger ones use the greedy build plus
    best-swap descent of :func:`_pam_medoids`. Either way the result is
    one-swap-optimal, points equidistant to several medoids join the one
    with the lowest sample index, and each medoid belongs to its own
    cluster. No randomness is used.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    if math.comb(n, k) <= EXACT_ENUMERATION_LIMIT:
        meds = _exact_medoids(d, k)
    else:
        meds = _pam_medoids(d, k)

    med_arr = np.array(meds)
    labels = np.argmin(d[med_arr], axis=0)
    labels[med_arr] = np.arange(k)
    total = float(d[med_arr[labels], np.arange(n)].sum())
    return Clustering(labels=labels, medoids=[int(m) for m in meds], total_cost=total)


def format_roster(clustering: Clustering, records: Sequence[PlayerRecord]) -> str:
    """Plain-text roster: members per cluster, headed ``Cluster <j>``, plus position counts."""
    lines: list[str] = []
    for j in range(len(clustering.medoids)):
        members = [records[i] for i in np.nonzero(clustering.labels == j)[0]]
        medoid = records[clustering.medoids[j]]
        lines.append(f"Cluster {j + 1} (medoid: {medoid.player_name})")
        lines.append("  " + ", ".join(sorted(r.player_name for r in members)))
        counts = {pos: 0 for pos in POSITION_ORDER}
        for r in members:
            counts[r.position] += 1
        lines.append("  " + "; ".join(f"{pos.value}: {counts[pos]}" for pos in POSITION_ORDER))
        lines.append("")
    return "\n".join(lines)
