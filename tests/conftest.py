import numpy as np
import pytest

from disclosure_lab import GameSpec, Prior, plinear_prior, uniform_prior


@pytest.fixture
def gk2016():
    """Three actions, equally spaced cutoffs, convex-ish values."""
    return GameSpec(
        uniform_prior(), (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0), (0.0, 1.0, 3.0)
    )


@pytest.fixture
def exs():
    return GameSpec(uniform_prior(), (0.0, 0.5, 0.9, 1.0), (0.0, 1.0, 1.1))


@pytest.fixture
def exy():
    return GameSpec(uniform_prior(), (0.0, 0.6, 0.7, 1.0), (0.0, 1.0, 1.3))


def random_three_action(rng: np.random.Generator) -> GameSpec:
    """Uniform-prior three action spec with cutoff gaps of at least
    0.05 and a top-to-middle value ratio between 1.1 and 4."""
    while True:
        g1, g2 = np.sort(rng.uniform(0.0, 1.0, size=2)).tolist()
        if g1 >= 0.05 and g2 - g1 >= 0.05 and 1.0 - g2 >= 0.05:
            break
    v1 = float(rng.uniform(0.5, 2.0))
    v2 = v1 * float(rng.uniform(1.1, 4.0))
    return GameSpec(uniform_prior(), (0.0, g1, g2, 1.0), (0.0, v1, v2))


def random_many_action(rng: np.random.Generator) -> GameSpec:
    """Four to six actions on a uniform or a two- to four-knot plinear
    prior, with every cutoff cell at least 0.04 wide and value steps
    between 0.3 and 1.5."""
    n = int(rng.integers(4, 7))
    while True:
        cuts = np.sort(rng.uniform(0.0, 1.0, size=n - 1))
        if np.diff(np.concatenate([[0.0], cuts, [1.0]])).min() >= 0.04:
            break
    if rng.uniform() < 0.5:
        prior = uniform_prior()
    else:
        inner = np.sort(rng.uniform(0.1, 0.9, size=int(rng.integers(0, 3))))
        knots = (0.0, *inner.tolist(), 1.0)
        prior = plinear_prior(knots, rng.uniform(0.3, 2.0, size=len(knots)).tolist())
    values = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n - 1))])
    return GameSpec(prior, (0.0, *cuts.tolist(), 1.0), tuple(values.tolist()))


def random_cni_many_action(rng: np.random.Generator) -> GameSpec:
    """Four to six actions meeting check_cni: a uniform prior or a two-
    to four-knot plinear one with sorted densities, cutoff gaps sorted
    to shrink and value steps sorted to grow."""
    n = int(rng.integers(4, 7))
    if rng.uniform() < 0.5:
        prior = uniform_prior()
    else:
        inner = np.sort(rng.uniform(0.1, 0.9, size=int(rng.integers(0, 3))))
        knots = (0.0, *inner.tolist(), 1.0)
        density = np.sort(rng.uniform(0.3, 2.0, size=len(knots)))
        prior = plinear_prior(knots, density.tolist())
    gaps = -np.sort(-rng.uniform(0.5, 1.5, size=n))
    cuts = np.cumsum(gaps / gaps.sum())[:-1]
    values = np.concatenate([[0.0], np.cumsum(np.sort(rng.uniform(0.3, 1.5, size=n - 1)))])
    return GameSpec(prior, (0.0, *cuts.tolist(), 1.0), tuple(values.tolist()))


def random_gapped_prior(rng: np.random.Generator) -> Prior:
    """A four- to eight-knot plinear prior whose knot densities are each
    0 with probability 2/3, so the prior has zero-density stretches and
    may start or end early."""
    k = int(rng.integers(4, 9))
    knots = (0.0, *np.sort(rng.uniform(0.0, 1.0, size=k - 2)).tolist(), 1.0)
    while True:
        zero = rng.uniform(size=k) < 2.0 / 3.0
        density = np.where(zero, 0.0, rng.uniform(0.1, 2.0, size=k))
        if density.any():
            break
    return plinear_prior(knots, density.tolist())


def random_gapped_game(rng: np.random.Generator) -> GameSpec:
    """Three actions on a random_gapped_prior; cutoffs and values are
    drawn as in random_three_action."""
    prior = random_gapped_prior(rng)
    game = random_three_action(rng)
    return GameSpec(prior, game.cutoffs, game.values)


def random_gapped_many_action(rng: np.random.Generator) -> GameSpec:
    """Cutoffs and values of random_many_action, drawn first, on a
    random_gapped_prior."""
    game = random_many_action(rng)
    return GameSpec(random_gapped_prior(rng), game.cutoffs, game.values)


def random_plinear_game(rng: np.random.Generator) -> GameSpec:
    """Three actions on a plinear prior of 2-6 knots: inner knots from
    U(0.01, 0.99), knot densities from Exp(1), each 0 with probability
    0.15; cutoffs from U(0.01, 0.99) at least 0.005 apart, and values
    (0, 1, U(1.01, 8)). Draws whose densities are all 0 are redrawn."""
    while True:
        k = int(rng.integers(2, 7))
        knots = (0.0, *np.sort(rng.uniform(0.01, 0.99, size=k - 2)).tolist(), 1.0)
        density = rng.exponential(1.0, size=k)
        density = np.where(rng.uniform(size=k) < 0.15, 0.0, density)
        while True:
            g1, g2 = np.sort(rng.uniform(0.01, 0.99, size=2)).tolist()
            if g2 - g1 >= 0.005:
                break
        v2 = float(rng.uniform(1.01, 8.0))
        if density.any():
            prior = plinear_prior(knots, density.tolist())
            return GameSpec(prior, (0.0, g1, g2, 1.0), (0.0, 1.0, v2))


# Two games whose top window is a sliver. In the first, the window
# [g2, 1] is a tail of next to no mass whose mean rounds below g2. In
# the second, the pool at g1, clipped to the prior's support, has its
# mean below g1, and the window that would pin it to g1 starts below
# the pool.
SLIVER_WINDOW_GAMES = [
    {
        "prior": {
            "kind": "plinear",
            "knots": [0.0, 0.4530856972490114, 1.0],
            "density": [1.0, 0.0, 0.0],
        },
        "cutoffs": [0.0, 0.23453247435155913, 0.4530841141134507, 1.0],
        "values": [0.0, 1.2595775021323563, 2.200195567515387],
    },
    {
        "prior": {
            "kind": "plinear",
            "knots": [0.0, 0.32364252691333606, 0.7607321217035773,
                      0.80304138205819, 1.0],
            "density": [1.7074798664442898, 1e-13, 1e-13, 1e-13, 1e-13],
        },
        "cutoffs": [0.0, 0.40384666243898026, 0.5915967736380696, 1.0],
        "values": [0.0, 0.5382906430582406, 0.7029606176615811],
    },
]
