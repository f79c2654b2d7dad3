"""Acceptance criteria, one test per criterion, each timed and reported.

Every expected value below is exact; the time limits are part of the
criteria and asserted.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one pass/fail line per criterion.
"""

import itertools
import random
import time
from contextlib import contextmanager

from gemkit.core import (
    canonical_form,
    is_bipartite,
    residue_count,
)
from gemkit.embedding import (
    CyclicPermutation,
    TypeSignature,
    euler_characteristic,
    regular_genus,
    semi_equivelar_report,
    semi_equivelar_type,
)
from gemkit.complexes import (
    CERTIFIED_3_MANIFOLD,
    HOMOLOGY_CERTIFIED,
    build_complex,
    homology,
    manifold_check,
)
from gemkit.generators import (
    catalog,
    lens_gem,
    lens_nonbipartite_attempt,
    rp2_sum_gem,
    sphere_times_circle_gem,
    standard_sphere,
    torus_sum_gem,
)
from gemkit.search import SearchSpec, classify_4_4, enumerate_embedding_types, search_report

from helpers import complex_chi, matrix_product, random_permutation, random_surface_gem

EPS3 = CyclicPermutation((0, 1, 2))
EPS4 = CyclicPermutation((0, 1, 2, 3))


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_type_tables():
    with criterion(1, "embedding type tables", 1.0):
        chi1 = {s.type_str(): s.order for s in enumerate_embedding_types(1)}
        assert chi1 == {
            "(4^3)": 4,
            "(4^1,6^1,8^1)": 24,
            "(4^1,6^1,10^1)": 60,
            "(4^1,6^2)": 12,
            "(4^2,q^1)": "q",
        }
        chi2 = {s.type_str(): s.order for s in enumerate_embedding_types(2)}
        assert chi2 == {
            "(4^3)": 8,
            "(4^1,6^1,8^1)": 48,
            "(4^1,6^1,10^1)": 120,
            "(4^1,6^2)": 24,
            "(4^2,q^1)": "2q",
        }
        chi0 = {s.type_str(): s.order for s in enumerate_embedding_types(0)}
        assert chi0 == {
            "(4^4)": None,
            "(6^3)": None,
            "(4^1,8^2)": None,
            "(4^1,6^1,12^1)": None,
        }


def test_criterion_2_sphere_genus_zero():
    with criterion(2, "spheres have genus 0", 1.0):
        for d in range(2, 7):
            assert regular_genus(standard_sphere(d)).rho_times_2 == 0


def test_criterion_3_lens_family():
    with criterion(3, "double-cycle lens family", 10.0):
        cases = [(2, 1, 2), (3, 1, 2), (5, 2, 2), (3, 1, 4), (2, 0, 2)]
        square = TypeSignature.from_tuple((4, 4, 4, 4))
        for p, q, k in cases:
            g = lens_gem(p, q, k)
            assert g.vertex_count == 2 * p * k
            assert is_bipartite(g)
            assert residue_count(g, (0, 2)) == k
            assert semi_equivelar_type(g, EPS4) == square
            assert euler_characteristic(g, EPS4) == 0
            # The all-squares witness has genus exactly 1, minimized over
            # all 3 arrangement classes with bigon faces excluded.
            rep = semi_equivelar_report(g, bigons="exclude")
            assert rep.witness_rho_times_2 == 2
            assert EPS4 in rep.witness_permutations
            if q > 0:
                # The genuine lens-space members cannot do better even with
                # bigon embeddings admitted, since only spheres reach 0.
                assert regular_genus(g).rho_times_2 == 2
            assert manifold_check(g).kind == CERTIFIED_3_MANIFOLD
            h1 = homology(g).groups[1]
            if q == 0:
                assert h1 == (0, ())
            else:
                assert h1 == (0, (p,))


def test_criterion_4_nonbipartite_squares_impossible():
    with criterion(4, "non-bipartite all-squares obstruction", 5.0):
        for p, k in itertools.product((1, 2, 3), (2, 4)):
            g, diag = lens_nonbipartite_attempt(p, k, 0)
            assert not is_bipartite(g)
            assert diag.computed["02"] == k
            assert diag.computed["03"] == 1 + p * (k - 2) // 2
            assert diag.computed["23"] == 1 + p * (k - 2) // 2
            assert diag.computed["023"] == k // 2
            if p == 1:
                assert diag.computed["12"] == k // 2
                assert diag.computed["13"] == 1
                assert diag.computed["123"] == 1
            assert diag.matches_prediction
            assert not diag.verdict.ok


def test_criterion_5_classification_order_8():
    with criterion(5, "all-squares classification to order 8", 600.0):
        rep = classify_4_4(8)
        assert rep.exhaustive
        bip = rep.bipartite_manifold_entries
        assert len(bip) >= 2
        torsions = {e.homology.groups[1] for e in bip}
        assert (0, ()) in torsions  # the 3-sphere
        assert (0, (2,)) in torsions  # real projective 3-space
        assert torsions <= {(0, ()), (0, (2,))}
        assert rep.all_bipartite_manifolds_are_lens
        assert rep.all_bipartite_are_lens
        assert rep.nonbipartite_manifold_count == 0
        assert rep.sphere_bundle_candidates == 0


def test_criterion_6_hexagon_square_nonexistence():
    with criterion(6, "(6,6,4) on the projective plane", 600.0):
        spec = SearchSpec(colors=3, order=12, vertex_types=(6, 6, 4), chi=1)
        report = search_report(spec)
        assert report.exhaustive
        assert len(report.gems) == 0


def test_criterion_7_surface_families():
    with criterion(7, "surface sum families", 60.0):
        for n in range(1, 7):
            g = rp2_sum_gem(n)
            size = 2 * n + 2
            assert not is_bipartite(g)
            assert semi_equivelar_type(g, EPS3) == TypeSignature.from_tuple(
                (size,) * 3
            )
            assert euler_characteristic(g, EPS3) == 2 - n
            assert homology(g).groups[1] == (n - 1, (2,))
            assert regular_genus(g).rho_times_2 == n  # rho = n/2
        for n in range(1, 6):
            g = torus_sum_gem(n)
            size = 4 * n + 2
            assert g.vertex_count == size
            assert is_bipartite(g)
            assert semi_equivelar_type(g, EPS3) == TypeSignature.from_tuple(
                (size,) * 3
            )
            assert euler_characteristic(g, EPS3) == 2 - 2 * n
            assert homology(g).groups[1] == (2 * n, ())
            assert regular_genus(g).rho_times_2 == 2 * n  # rho = n


def test_criterion_8_genus_one_bundles():
    with criterion(8, "sphere bundles over the circle", 60.0):
        for d in (3, 4, 5):
            eps = CyclicPermutation(tuple(range(d + 1)))
            want_type = TypeSignature.from_tuple((2,) * (d - 2) + (6, 6, 6))
            for twisted in (False, True):
                g = sphere_times_circle_gem(d, twisted)
                assert g.vertex_count == 2 * (d + 1)
                assert semi_equivelar_type(g, eps, "include") == want_type
                assert euler_characteristic(g, eps) == 0
                assert 2 - euler_characteristic(g, eps) == 2  # rho_eps = 1
                hom = homology(g)
                assert hom.groups[1] == (1, ())
                assert is_bipartite(g) == (not twisted)
                if d == 3:
                    assert hom.groups[3] == ((0, ()) if twisted else (1, ()))
                verdict = manifold_check(g)
                assert verdict.kind == (
                    CERTIFIED_3_MANIFOLD if d == 3 else HOMOLOGY_CERTIFIED
                )


def test_criterion_9_catalog():
    with criterion(9, "figure catalog", 60.0):
        expectations = [
            ("rp2-4.4.4", None, 4, 1, False, (4, 4, 4)),
            ("s2-4.4.4", None, 8, 2, True, (4, 4, 4)),
            ("s2-6.6.4", None, 24, 2, True, (4, 6, 6)),
            ("torus-6.6.6", None, 12, 0, True, (6, 6, 6)),
            ("torus-4.8.8", None, 16, 0, True, (4, 8, 8)),
            ("torus-4.6.12", None, 24, 0, True, (4, 6, 12)),
            ("klein-6.6.6", None, 12, 0, False, (6, 6, 6)),
            ("klein-4.8.8", None, 16, 0, False, (4, 8, 8)),
            ("klein-4.6.12", None, 24, 0, False, (4, 6, 12)),
        ]
        for p in (2, 4, 6, 8, 10):
            expectations.append(
                ("rp2-4.4.2p", p, 2 * p, 1, False, (4, 4, 2 * p))
            )
        for p in (4, 6, 8, 10):
            expectations.append(("s2-4.4.p", p, 2 * p, 2, True, (4, 4, p)))
        for name, p, order, chi, orient, faces in expectations:
            g = catalog(name, p=p) if p is not None else catalog(name)
            assert g.vertex_count == order, name
            assert euler_characteristic(g, EPS3) == chi, name
            assert is_bipartite(g) == orient, name
            assert semi_equivelar_type(g, EPS3) == TypeSignature.from_tuple(
                faces
            ), name


def test_criterion_10_randomized_structure_suites():
    with criterion(10, "randomized structural properties", 300.0):
        rng = random.Random(20260811)

        # Boundary-squares-to-zero, the two Euler characteristic routes, and
        # orientability via the top homology group, on 1000 random
        # connected surface graphs (all of which are certified surfaces).
        surface_h2 = {True: (1, ()), False: (0, ())}
        for _ in range(1000):
            n = rng.choice((4, 6, 8, 10, 12))
            g = random_surface_gem(rng, n)
            k = build_complex(g)
            prod = matrix_product(k.boundaries[1], k.boundaries[2])
            assert all(all(x == 0 for x in row) for row in prod)
            assert complex_chi(k) == euler_characteristic(g, EPS3)
            assert homology(g).groups[2] == surface_h2[is_bipartite(g)]

        # Certified 3-dimensional gems: complex Euler characteristic vanishes
        # and the top group matches bipartiteness.
        three_dim = [
            lens_gem(2, 1, 2),
            lens_gem(3, 1, 2),
            lens_gem(5, 2, 2),
            lens_gem(3, 1, 4),
            lens_gem(2, 0, 2),
            sphere_times_circle_gem(3),
            sphere_times_circle_gem(3, twisted=True),
            standard_sphere(3),
        ]
        for g in three_dim:
            assert manifold_check(g).ok
            assert complex_chi(build_complex(g)) == 0
            top = homology(g).groups[3]
            assert top == ((1, ()) if is_bipartite(g) else (0, ()))

        # Relabeling invariance of the canonical form, homology and genus,
        # 1000 random relabelings each.
        pool = [random_surface_gem(rng, rng.choice((6, 8, 10))) for _ in range(40)]
        pool += [lens_gem(2, 1, 2), rp2_sum_gem(3), torus_sum_gem(2)]
        baselines = [
            (canonical_form(g), homology(g), regular_genus(g).rho_times_2)
            for g in pool
        ]
        for i in range(1000):
            g, (form, hom, rho2) = pool[i % len(pool)], baselines[i % len(pool)]
            h = g.relabel(random_permutation(rng, g.vertex_count))
            assert canonical_form(h) == form
            assert homology(h) == hom
            assert regular_genus(h).rho_times_2 == rho2
