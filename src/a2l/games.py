"""Polymatrix games with linear utilities.

A polymatrix game puts n players on the vertices of a graph.  Every ordered
edge (i, j) carries a payoff matrix A_ij of shape (d_i, d_j), and player i's
utility under a strategy profile x = (x_1, ..., x_n) is the sum of bimatrix
payoffs against its neighbors:

    u_i(x) = sum_{j : (i,j) in E} x_i^T A_ij x_j

The utility vector u_i(., x_-i) = sum_j A_ij x_j collects the expected payoff
of every pure action of player i; it does not depend on x_i.  Proximity of a
profile to Nash equilibrium is measured by the total gap

    TGap(x) = sum_i ( max_a u_i(., x_-i)[a] - u_i(x) )

which is nonnegative and zero exactly at Nash equilibria.  Bimatrix games are
the n = 2, single-pair case.  A game is zero-sum when sum_i u_i(a) = 0 for
every pure action profile a; the built-in generators guarantee this with the
pairwise form A_ji = -A_ij^T, which is sufficient but not necessary.

Strategies are plain numpy probability vectors ("MixedStrategy"); a profile
is a sequence of such vectors, one per player.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIMPLEX_TOL = 1e-9
ZERO_SUM_TOL = 1e-9

# Profile budget for the exhaustive zero-sum check; above it we sample.
_EXHAUSTIVE_LIMIT = 10**6
_SAMPLED_PROFILES = 10**4
_ZS_CHECK_SEED = 0x5EED


class DimensionMismatchError(ValueError):
    """A strategy or matrix has the wrong dimension for its player."""

    def __init__(self, player, expected, actual, what="strategy"):
        self.player = player
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"player {player}: expected {what} dimension {expected}, got {actual}"
        )


class ZeroSumViolationError(ValueError):
    """A game flagged zero-sum has pure profiles with nonzero utility sum."""


def uniform_strategy(d: int) -> np.ndarray:
    return np.full(d, 1.0 / d)


def check_strategy(x, d=None, tol=SIMPLEX_TOL):
    """Validate a mixed strategy: nonnegative entries summing to one."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"strategy must be a nonempty vector, got shape {x.shape}")
    if d is not None and x.size != d:
        raise DimensionMismatchError(None, d, x.size)
    if not np.all(np.isfinite(x)):
        raise ValueError("strategy has non-finite entries")
    if np.any(x < 0):
        raise ValueError(f"strategy has negative entries: min={x.min()}")
    s = float(x.sum())
    if abs(s - 1.0) > tol:
        raise ValueError(f"strategy entries sum to {s}, not 1 within {tol}")
    return x


class PolymatrixGame:
    """Immutable polymatrix game.

    Parameters
    ----------
    action_counts : per-player action counts d_1..d_n
    edges : mapping (i, j) -> payoff matrix of shape (d_i, d_j); the reverse
        edge (j, i) must also be present
    zero_sum : declare the game zero-sum; verified over pure profiles at
        construction (exhaustively when the profile count is at most 10^6,
        otherwise on 10^4 sampled profiles)
    """

    def __init__(self, action_counts, edges, zero_sum=False, name=None):
        self.action_counts = tuple(int(d) for d in action_counts)
        self.n = len(self.action_counts)
        if self.n < 1 or any(d < 1 for d in self.action_counts):
            raise ValueError("need at least one player and one action per player")
        self.zero_sum = bool(zero_sum)
        self.name = name

        checked = {}
        for (i, j), mat in sorted(edges.items()):
            if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
                raise ValueError(f"invalid edge ({i}, {j}) for {self.n} players")
            mat = np.array(mat, dtype=float)
            want = (self.action_counts[i], self.action_counts[j])
            if mat.shape != want:
                raise DimensionMismatchError(i, want, mat.shape, what="payoff matrix")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"edge ({i}, {j}) has non-finite payoffs")
            mat.setflags(write=False)
            checked[(i, j)] = mat
        for i, j in checked:
            if (j, i) not in checked:
                raise ValueError(f"edge ({i}, {j}) present but reverse ({j}, {i}) missing")
        self.edges = checked
        # Adjacency in fixed sorted order so all iteration is deterministic.
        self._neighbors = tuple(
            tuple(j for (a, j) in sorted(checked) if a == i) for i in range(self.n)
        )
        if self.zero_sum:
            self._verify_zero_sum()

    # -- structure ---------------------------------------------------------

    @property
    def dimensionality(self) -> int:
        """Largest action count over players."""
        return max(self.action_counts)

    @property
    def num_profiles(self) -> int:
        return math.prod(self.action_counts)

    def neighbors(self, i):
        return self._neighbors[i]

    def check_profile(self, profile):
        if len(profile) != self.n:
            raise ValueError(f"profile has {len(profile)} strategies for {self.n} players")
        for i, x in enumerate(profile):
            if len(x) != self.action_counts[i]:
                raise DimensionMismatchError(i, self.action_counts[i], len(x))

    # -- utilities ---------------------------------------------------------

    def utility_vector(self, i: int, profile) -> np.ndarray:
        """Expected payoff of each pure action of player i: sum_j A_ij x_j."""
        self.check_profile(profile)
        v = np.zeros(self.action_counts[i])
        for j in self._neighbors[i]:
            v += self.edges[(i, j)] @ profile[j]
        return v

    def utility(self, profile) -> np.ndarray:
        """Realized utilities (u_1(x), ..., u_n(x))."""
        return np.array(
            [float(profile[i] @ self.utility_vector(i, profile)) for i in range(self.n)]
        )

    def gap_terms(self, profile) -> np.ndarray:
        """Per-player best-response improvement at the profile."""
        out = np.empty(self.n)
        for i in range(self.n):
            v = self.utility_vector(i, profile)
            out[i] = float(v.max()) - float(profile[i] @ v)
        return out

    def total_gap(self, profile) -> float:
        """Sum of per-player best-response improvements; 0 iff Nash."""
        return float(self.gap_terms(profile).sum())

    def best_response(self, i: int, profile) -> int:
        """Index of the best pure action; ties go to the lowest index."""
        return int(np.argmax(self.utility_vector(i, profile)))

    def pure_utility_sums(self, profiles: np.ndarray) -> np.ndarray:
        """sum_i u_i(a) for each pure profile row of `profiles`."""
        total = np.zeros(len(profiles))
        for (i, j), mat in self.edges.items():
            total += mat[profiles[:, i], profiles[:, j]]
        return total

    def _verify_zero_sum(self, tol=ZERO_SUM_TOL):
        if self.num_profiles <= _EXHAUSTIVE_LIMIT:
            grids = np.meshgrid(*[np.arange(d) for d in self.action_counts], indexing="ij")
            profiles = np.stack([g.reshape(-1) for g in grids], axis=1)
        else:
            rng = np.random.default_rng(_ZS_CHECK_SEED)
            profiles = np.stack(
                [rng.integers(0, d, size=_SAMPLED_PROFILES) for d in self.action_counts],
                axis=1,
            )
        worst = float(np.abs(self.pure_utility_sums(profiles)).max()) if len(profiles) else 0.0
        if worst > tol:
            raise ZeroSumViolationError(
                f"utility sums over pure profiles reach {worst:.3e} > {tol}"
            )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "action_counts": list(self.action_counts),
            "zero_sum": self.zero_sum,
            "edges": [
                {"i": i, "j": j, "matrix": self.edges[(i, j)].tolist()}
                for (i, j) in sorted(self.edges)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolymatrixGame":
        counts = data["action_counts"]
        if int(data["n"]) != len(counts):
            raise ValueError("field n disagrees with action_counts length")
        edges = {(int(e["i"]), int(e["j"])): e["matrix"] for e in data["edges"]}
        if len(edges) != len(data["edges"]):
            raise ValueError("duplicate edge in game description")
        return cls(counts, edges, zero_sum=bool(data["zero_sum"]))

    def __repr__(self):
        kind = "zero-sum " if self.zero_sum else ""
        return (
            f"PolymatrixGame({kind}n={self.n}, d={self.action_counts}, "
            f"edges={len(self.edges) // 2} pairs)"
        )


def save_game(game: PolymatrixGame, path):
    with open(path, "w") as f:
        json.dump(game.to_dict(), f, indent=2)


def load_game(path) -> PolymatrixGame:
    with open(path) as f:
        return PolymatrixGame.from_dict(json.load(f))


def random_profile(game: PolymatrixGame, rng) -> list:
    """Draw a profile of Dirichlet(1) strategies, one per player."""
    return [rng.dirichlet(np.ones(d)) for d in game.action_counts]


# -- generators -------------------------------------------------------------

_MP_MATRIX = np.array([[1.0, 0.0], [0.0, 1.0]])
_RPS_MATRIX = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def _graph_pairs(n, graph, rng, p):
    if graph == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if graph == "cycle":
        if n == 2:
            return [(0, 1)]
        return [(i, (i + 1) % n) for i in range(n)]
    if graph == "gnp":
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"gnp edge probability must be in [0, 1], got {p}")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < p
        return [pq for pq, k in zip(pairs, keep) if k]
    raise ValueError(f"unknown graph spec {graph!r} (complete, cycle, gnp)")


def generate_game(kind, n=2, d=2, graph="complete", seed=None, p=0.5) -> PolymatrixGame:
    """Build one of the built-in games.

    kinds: "matching_pennies", "rps", "random_zs" (pairwise zero-sum with
    A_ji = -A_ij^T), "random_general".  Random payoff entries are uniform in
    [-1, 1] and deterministic for a fixed seed.  `d` may be an int or one
    count per player.
    """
    if kind == "matching_pennies":
        a = _MP_MATRIX
        return PolymatrixGame(
            (2, 2), {(0, 1): a, (1, 0): -a.T}, zero_sum=True, name="matching_pennies"
        )
    if kind == "rps":
        a = _RPS_MATRIX
        return PolymatrixGame(
            (3, 3), {(0, 1): a, (1, 0): -a.T}, zero_sum=True, name="rps"
        )
    if kind not in ("random_zs", "random_general"):
        raise ValueError(f"unknown game kind {kind!r}")

    if n < 2:
        raise ValueError("random games need n >= 2")
    counts = tuple(d) if isinstance(d, (tuple, list)) else (int(d),) * n
    if len(counts) != n or any(c < 2 for c in counts):
        raise ValueError("need one action count >= 2 per player")
    rng = np.random.default_rng(seed)
    edges = {}
    for i, j in _graph_pairs(n, graph, rng, p):
        a = rng.uniform(-1.0, 1.0, size=(counts[i], counts[j]))
        if kind == "random_zs":
            edges[(i, j)], edges[(j, i)] = a, -a.T
        else:
            edges[(i, j)] = a
            edges[(j, i)] = rng.uniform(-1.0, 1.0, size=(counts[j], counts[i]))
    return PolymatrixGame(
        counts, edges, zero_sum=(kind == "random_zs"), name=f"{kind}_{graph}_n{n}"
    )
