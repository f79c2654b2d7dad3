"""Smith normal form and homology against sympy's invariant factors."""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy import ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from gemkit.complexes import build_complex, homology, smith_invariant_factors  # noqa: E402
from gemkit.generators import (  # noqa: E402
    lens_gem,
    rp2_sum_gem,
    sphere_times_circle_gem,
    torus_sum_gem,
)

from helpers import oracle_homology, random_gem, random_permutation  # noqa: E402


def sympy_factors(rows):
    if not rows or not rows[0]:
        return []
    return [abs(int(x)) for x in invariant_factors(Matrix(rows), domain=ZZ) if x]


def random_sparse_matrix(rng: random.Random):
    """Mostly zero, units and larger entries mixed, some rows and columns empty."""
    r, c = rng.randrange(1, 31), rng.randrange(1, 31)
    density = rng.choice((0.05, 0.15, 0.3))
    values = (1, -1, 1, -1, 2, -2, 3, -4, 6)
    m = [
        [rng.choice(values) if rng.random() < density else 0 for _ in range(c)]
        for _ in range(r)
    ]
    for i in rng.sample(range(r), r // 5):
        m[i] = [0] * c
    for j in rng.sample(range(c), c // 5):
        for row in m:
            row[j] = 0
    return m


@pytest.mark.parametrize("seed", range(4))
def test_snf_matches_sympy_on_random_sparse_matrices(seed):
    rng = random.Random(9000 + seed)
    for _ in range(40):
        m = random_sparse_matrix(rng)
        assert smith_invariant_factors(m) == sympy_factors(m), m


def test_snf_matches_sympy_without_unit_entries():
    # Coprime entries (9, 10, -15) leave remainders in the pivot's column
    # and row, so the gcd row and column steps and the column swap run.
    rng = random.Random(77)
    values = (0, 0, 2, -2, 3, 4, -6, 9, 10, -15, 12)
    for _ in range(60):
        r, c = rng.randrange(1, 25), rng.randrange(1, 25)
        m = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
        assert smith_invariant_factors(m) == sympy_factors(m), m


@pytest.mark.parametrize(
    "gem",
    [
        lens_gem(5, 2, 4),
        lens_gem(7, 3, 4),
        sphere_times_circle_gem(4, twisted=True),
        sphere_times_circle_gem(5, twisted=True),
        rp2_sum_gem(5),
    ],
    ids=["lens(5,2,4)", "lens(7,3,4)", "bundle4-twisted", "bundle5-twisted", "rp2-sum5"],
)
def test_snf_matches_sympy_on_boundary_matrices(gem):
    for rows in build_complex(gem).boundaries:
        assert smith_invariant_factors(rows) == sympy_factors(rows)


# -- homology against the dense oracle ----------------------------------------


@pytest.mark.parametrize("d", range(1, 7))
def test_homology_matches_dense_oracle_on_random_gems(d):
    rng = random.Random(5100 + d)
    for n in range(2, 17, 2):
        for _ in range(2):
            g = random_gem(rng, d, n)
            assert homology(g) == oracle_homology(g), g.matchings


@pytest.mark.parametrize(
    "gem",
    [
        lens_gem(5, 2, 4),
        lens_gem(7, 3, 4),
        sphere_times_circle_gem(4),
        sphere_times_circle_gem(4, twisted=True),
        sphere_times_circle_gem(5),
        sphere_times_circle_gem(5, twisted=True),
        torus_sum_gem(3),
        rp2_sum_gem(5),
    ],
    ids=[
        "lens(5,2,4)",
        "lens(7,3,4)",
        "bundle4",
        "bundle4-twisted",
        "bundle5",
        "bundle5-twisted",
        "torus-sum3",
        "rp2-sum5",
    ],
)
def test_homology_matches_dense_oracle_on_relabeled_families(gem):
    rng = random.Random(len(gem.matchings[0]))
    g = gem.relabel(random_permutation(rng, gem.vertex_count)).recolor(
        random_permutation(rng, gem.dimension + 1)
    )
    assert homology(g) == oracle_homology(g)
