"""Golden canonical bytes: the exact output of ``canonical_form``, pinned.

The values were produced by the exhaustive (unpruned) BFS-labeling engine
and must never change: canonical forms are stored and compared across
versions, so any speed-up of canonical labeling has to reproduce them
byte for byte.  A mismatch here means the encoding or its tie-breaking
changed, not that the pins need refreshing.
"""

import hashlib

import pytest

from gemkit.core import ColoredGraph, canonical_form
from gemkit.generators import (
    lens_gem,
    rp2_sum_gem,
    sphere_times_circle_gem,
    standard_sphere,
    torus_sum_gem,
)
from gemkit.search import SearchSpec

from helpers import stored_hit_list

# name -> (graph builder, color-fixed hex, color-permuting hex)
GOLDEN = {
    "standard_sphere(1)": (
        lambda: standard_sphere(1),
        "010201010000",
        "010201010000",
    ),
    "lens_gem(7, 2, 4)": (
        lambda: lens_gem(7, 2, 4),
        (
            "03380102030400050607050008090a08000b070c0b0002010d0e0f0d01100411"
            "1001120302130e1413020312151616170403110417181906051a091b1a050619"
            "1c1d1d1e07060c071e1f080a1f1e1e1d09081b091d1c201f0a210b22210a220b"
            "0c231f20230c0d0f242525260e0d140e262727240f141013140f131011121815"
            "121115182829292a161517162a2b2b2818172c1c192d1a2e2d192e1a1b2f1c2c"
            "2f1b302320312132312032212233233033222427343535362524262536373734"
            "2726282b3736363529282a29353434372b2a332f2c322d31322c312d2e302f33"
            "302e"
        ),
        (
            "0338010203040005060705000809060a000b0c090b0002010d0e030f0110110e"
            "10010d120213140413020f03151617160403041417180819051a1b071a050a06"
            "1c1d1e1d0706071b1e1f19081f1e1d1e0908090c1d1c1c200a21220b210a0b22"
            "0c23201c230c120d242526250e0d0e11262715180f141310140f101311122427"
            "1211181528292a29161516172a2b282b18171f2c192d2e1a2d191a2e1b2f2c1f"
            "2f1b233020313221312021322233302333222724343536352524252636373437"
            "27262b28353437342928292a373635362b2a2f312c30332d302c2d332e32312f"
            "322e"
        ),
    ),
    "sphere_times_circle_gem(4)": (
        lambda: sphere_times_circle_gem(4),
        (
            "040a010101020300000004050404060004070505050002020801020903030301"
            "0809020808030809090906070406060506070707"
        ),
        (
            "040a010101020300000004050404060004050705050002020801020309030301"
            "0908020808080309090907060406060605070707"
        ),
    ),
    "sphere_times_circle_gem(5, twisted=True)": (
        lambda: sphere_times_circle_gem(5, twisted=True),
        (
            "050c010101010203000000000405040404060004070505050500020202080102"
            "09030303030108080a020808030b0909090906060b040606050a070707070b09"
            "060b0b0b0a07080a0a0a"
        ),
        (
            "050c010101010203000000000405040404060004050507050500020202080102"
            "030309030301080a080208080b0903090909060b060406060a07050707070906"
            "0b0b0b0b07080a0a0a0a"
        ),
    ),
    "torus_sum_gem(3)": (
        lambda: torus_sum_gem(3),
        (
            "020e010203000405060007070500080109090301020a0b030b02040c0d050d04"
            "0d060c0c07060b080a0a0908"
        ),
        (
            "020e010203000405050006040700030108020901090a0208030b070c0406050d"
            "0d060c0c0d070b080a0a0b09"
        ),
    ),
    "rp2_sum_gem(4)": (
        lambda: rp2_sum_gem(4),
        "020a010203000304050006070100080701020608090502030409040905060807",
        "020a010203000304040005060100020701070802030908050409090506080607",
    ),
    "standard_sphere(3)": (
        lambda: standard_sphere(3),
        "03020101010100000000",
        "03020101010100000000",
    ),
}

# SHA-256 over the sorted color-permuting forms of the raw (not yet
# deduplicated) order-12 all-squares hits that classify_4_4(12) reduced
# before color 2 skipped interchangeable cycles; tests/data holds them.
ALL_SQUARES_12_HITS = 384
ALL_SQUARES_12_CLASSES = 4
ALL_SQUARES_12_SHA256 = "77841e0ae91c95f5ef6f6a0286e435caa60f6bdc7c17f310d9483434511efe51"


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("mode", ["color-fixed", "color-permuting"])
def test_canonical_form_golden_bytes(name, mode):
    build, fixed, permuting = GOLDEN[name]
    want = fixed if mode == "color-fixed" else permuting
    assert canonical_form(build(), mode).hex() == want


def test_all_squares_order_12_forms_digest():
    spec = SearchSpec(
        colors=4,
        order=12,
        pair_lengths={(0, 1): (4,), (1, 2): (4,), (2, 3): (4,), (0, 3): (4,)},
        bigons="exclude",
    )
    hits = stored_hit_list(spec)
    assert len(hits) == ALL_SQUARES_12_HITS
    forms = sorted(canonical_form(ColoredGraph(h), "color-permuting") for h in hits)
    assert len(set(forms)) == ALL_SQUARES_12_CLASSES
    digest = hashlib.sha256()
    for form in forms:
        digest.update(form)
    assert digest.hexdigest() == ALL_SQUARES_12_SHA256
