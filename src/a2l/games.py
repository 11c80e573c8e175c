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
every pure action profile a.  The sum is a sum of pairwise terms
C_ij[a_i, a_j] with C_ij = A_ij + A_ji^T, so ``PolymatrixGame`` checks a
declared zero-sum game exactly from those blocks, without enumerating
profiles.  The built-in generators use the pairwise form A_ji = -A_ij^T,
which makes every block exactly zero.

Strategies are plain numpy probability vectors ("MixedStrategy"); a profile
is a sequence of such vectors, one per player.  Utilities are linear in the
opponents' strategies, so a whole log of profiles is one linear map over
leading axes: ``utility_vector``, ``gap_terms`` and ``total_gap`` accept
strategies of shape (..., d_i), all with the same leading axes, and compute
each row bit for bit as for that row's profile alone (per-row matrix-vector
products; ``X @ A.T`` or ``einsum`` would round differently).
"""

from __future__ import annotations

import json

import numpy as np

ZERO_SUM_TOL = 1e-9


def _integer(v) -> bool:
    """An int or numpy integer, no bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _number(v) -> bool:
    """A real number that converts to a float: no bool, no int past 2^1024."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


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


class PolymatrixGame:
    """Immutable polymatrix game.

    Parameters
    ----------
    action_counts : per-player action counts d_1..d_n
    edges : mapping (i, j) -> payoff matrix of shape (d_i, d_j); the reverse
        edge (j, i) must also be present
    zero_sum : a bool; declare the game zero-sum; construction then needs
        ``zero_sum_bound()`` <= ``ZERO_SUM_TOL`` = 1e-9, which is sufficient
        for max_a |sum_i u_i(a)| <= 1e-9 over pure profiles a

    The counts must be integers (numpy ones too, no bools).
    """

    def __init__(self, action_counts, edges, zero_sum=False, name=None):
        counts = tuple(action_counts)
        if not all(map(_integer, counts)):
            raise ValueError(f"action_counts must be integers, got {list(counts)!r}")
        if not isinstance(zero_sum, (bool, np.bool_)):
            raise ValueError(f"zero_sum must be true or false, got {zero_sum!r}")
        self.action_counts = tuple(map(int, counts))
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
        if self.zero_sum and (bound := self.zero_sum_bound()) > ZERO_SUM_TOL:
            raise ZeroSumViolationError(
                f"declared zero-sum, but the pairwise blocks bound |sum_i u_i| over pure "
                f"profiles by {bound:.3e} > {ZERO_SUM_TOL}")

    # -- structure ---------------------------------------------------------

    @property
    def dimensionality(self) -> int:
        """Largest action count over players."""
        return max(self.action_counts)

    def neighbors(self, i):
        return self._neighbors[i]

    def check_profile(self, profile):
        if len(profile) != self.n:
            raise ValueError(f"profile has {len(profile)} strategies for {self.n} players")
        for i, x in enumerate(profile):
            d = np.shape(x)[-1]
            if d != self.action_counts[i]:
                raise DimensionMismatchError(i, self.action_counts[i], d)

    # -- utilities ---------------------------------------------------------

    def utility_vector(self, i: int, profile) -> np.ndarray:
        """Expected payoff of each pure action of player i: sum_j A_ij x_j."""
        self.check_profile(profile)
        v = np.zeros(np.shape(profile[i])[:-1] + (self.action_counts[i],))
        for j in self._neighbors[i]:
            v += np.matmul(self.edges[(i, j)], np.asarray(profile[j])[..., None])[..., 0]
        return v

    def gap_terms(self, profile) -> np.ndarray:
        """Per-player best-response improvement at the profile, on a last
        axis of length n after the strategies' leading axes."""
        terms = []
        for i in range(self.n):
            v = self.utility_vector(i, profile)
            terms.append(v.max(axis=-1) - np.vecdot(profile[i], v))
        return np.stack(terms, axis=-1)

    def total_gap(self, profile):
        """Sum of per-player best-response improvements; 0 iff Nash.  A float
        for one profile, an array over the leading axes of a log."""
        gap = self.gap_terms(profile).sum(axis=-1)
        return float(gap) if gap.ndim == 0 else gap

    def zero_sum_bound(self) -> float:
        """Upper bound on max_a |sum_i u_i(a)| over pure profiles a; 0
        exactly when every such sum is 0.  Costs O(sum_edges d_i d_j).

        sum_i u_i(a) = sum_{i<j} C_ij[a_i, a_j] with C_ij = A_ij + A_ji^T.
        Each block splits into its mean, row and column effects and
        double-centred residual.  Means and effects add up to a constant plus
        one term per player, bounded exactly; each residual adds its largest
        absolute entry.
        """
        const, interaction = 0.0, 0.0
        effects = [np.zeros(d) for d in self.action_counts]
        for (i, j), mat in self.edges.items():
            if i > j:
                continue
            c = mat + self.edges[(j, i)].T
            mean = c.mean()
            rows, cols = c.mean(axis=1) - mean, c.mean(axis=0) - mean
            const += mean
            effects[i] += rows
            effects[j] += cols
            interaction += float(np.abs(c - mean - rows[:, None] - cols).max())
        low = const + sum(float(e.min()) for e in effects)
        high = const + sum(float(e.max()) for e in effects)
        return max(abs(low), abs(high)) + interaction

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
        for key in ("action_counts", "n", "edges", "zero_sum"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        counts = data["action_counts"]
        indices = [("n", data["n"])] + [(f"edges[{k}].{ij}", e[ij])
                                        for k, e in enumerate(data["edges"]) for ij in "ij"]
        for key, v in indices:
            if not _integer(v):
                raise ValueError(f"{key} must be an integer, got {v!r}")
        if data["n"] != len(counts):
            raise ValueError("field n disagrees with action_counts length")
        edges = {(int(e["i"]), int(e["j"])): e["matrix"] for e in data["edges"]}
        if len(edges) != len(data["edges"]):
            raise ValueError("duplicate edge in game description")
        return cls(counts, edges, zero_sum=data["zero_sum"])

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
        if not (_number(p) and 0.0 <= p <= 1.0):
            raise ValueError(f"p, the gnp edge probability, must be a number in [0, 1], "
                             f"got {p!r}")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < p
        return [pq for pq, k in zip(pairs, keep) if k]
    raise ValueError(f"unknown graph spec {graph!r} (complete, cycle, gnp)")


def generate_game(kind, *, n=2, d=2, graph="complete", seed=None, p=0.5) -> PolymatrixGame:
    """Build one of the built-in games.

    kinds: "matching_pennies", "rps", "random_zs" (pairwise zero-sum with
    A_ji = -A_ij^T), "random_general".  Random payoff entries are uniform in
    [-1, 1] and deterministic for a fixed seed.  `d` may be an int or one
    count per player; n and the counts must be integers, not bools, and p,
    read on a "gnp" graph, a number in [0, 1].
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

    if not _integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("random games need n >= 2")
    counts = tuple(d) if isinstance(d, (tuple, list)) else (d,) * n
    if not all(map(_integer, counts)):
        raise ValueError(f"d must be an integer or one integer per player, got {d!r}")
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
