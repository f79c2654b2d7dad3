import hashlib
import io as stdio
import itertools
import json
import random

import pytest

from gemkit import cli, generators, search
from gemkit import io as gio
from gemkit.generators import (
    catalog,
    lens_gem,
    rp2_sum_gem,
    sphere_times_circle_gem,
    standard_sphere,
)

from helpers import random_bipartite_gem, random_gem, reference_analyze_output


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", stdio.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_gem_json(capsys, monkeypatch, tmp_path):
    code, out, err = run(capsys, monkeypatch, ["gen", "lens", "--p", "2", "--q", "1", "--k", "2"])
    assert code == 0
    assert gio.from_json(out) == lens_gem(2, 1, 2)

    target = tmp_path / "gem.json"
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["gen", "sphere", "--d", "3", "-o", str(target)],
    )
    assert code == 0
    assert out == ""
    assert gio.from_json(target.read_text()) == standard_sphere(3)


@pytest.mark.parametrize("twisted", [False, True])
def test_gen_sphere_circle(capsys, monkeypatch, twisted):
    argv = ["gen", "sphere-circle", "--d", "4"] + (["--twisted"] if twisted else [])
    code, out, err = run(capsys, monkeypatch, argv)
    assert code == 0
    assert err == ""
    assert gio.from_json(out) == sphere_times_circle_gem(4, twisted)


def test_gen_unknown_family_and_missing_flag(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["gen", "dodecahedron"])
    assert code == 1
    assert "unknown family" in err
    code, _, err = run(capsys, monkeypatch, ["gen", "lens", "--p", "2"])
    assert code == 1
    assert "needs --q" in err


# Each family's flags as the README lists them, with values it accepts.
GEN_FAMILIES = {
    "sphere": ["--d", "2"],
    "lens": ["--p", "2", "--q", "1", "--k", "2"],
    "rp2-sum": ["--n", "1"],
    "torus-sum": ["--n", "1"],
    "sphere-circle": ["--d", "3", "--twisted"],
}
GEN_FLAGS = {"--d": "3", "--p": "3", "--q": "1", "--k": "2", "--n": "0", "--twisted": None}
UNREAD_GEN_FLAGS = [
    (family, flag)
    for family, argv in GEN_FAMILIES.items()
    for flag in GEN_FLAGS
    if flag not in argv
]


@pytest.mark.parametrize(
    "family, flag", UNREAD_GEN_FLAGS, ids=[f"{f}{x}" for f, x in UNREAD_GEN_FLAGS]
)
def test_gen_refuses_a_flag_the_family_does_not_read(capsys, monkeypatch, family, flag):
    extra = [flag] + ([GEN_FLAGS[flag]] if GEN_FLAGS[flag] else [])
    code, out, err = run(capsys, monkeypatch, ["gen", family] + GEN_FAMILIES[family] + extra)
    assert code == 1
    assert out == ""
    assert f"takes no {flag}" in err


def test_gen_rp2_sum_beyond_the_recursion_limit(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["gen", "rp2-sum", "--n", "700"])
    assert code == 0
    assert "Traceback" not in err
    assert gio.from_json(out) == rp2_sum_gem(700)


def test_family_validation_error_is_exit_1(capsys, monkeypatch):
    def fail(n):
        raise generators.FamilyValidationError(f"torus_sum_gem({n}): chi 1 differs from 0")

    monkeypatch.setattr(generators, "torus_sum_gem", fail)
    code, out, err = run(capsys, monkeypatch, ["gen", "torus-sum", "--n", "1"])
    assert code == 1
    assert out == ""
    assert err == "error: torus_sum_gem(1): chi 1 differs from 0\n"


def test_usage_error_exit_code(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli.main(["types"])  # --chi is required
    assert exc.value.code == 2
    capsys.readouterr()


def test_parser_is_built_once_and_prints_like_a_fresh_one(capsys):
    assert cli._build_parser() is cli._build_parser()
    fresh = cli._build_parser.__wrapped__()
    for argv in (["--help"], ["search", "--help"], ["types"], ["frobnicate"]):
        texts = []
        for parser in (cli._build_parser(), fresh, cli._build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            texts.append((exc.value.code, capsys.readouterr()))
        assert texts[0] == texts[1] == texts[2]
        assert texts[0][0] == (0 if "--help" in argv else 2)


def test_pipeline_gen_analyze(capsys, monkeypatch):
    _, gem_json, _ = run(capsys, monkeypatch, ["gen", "lens", "--p", "2", "--q", "1", "--k", "2"])
    code, out, _ = run(capsys, monkeypatch, ["analyze"], stdin=gem_json)
    assert code == 0
    assert "type (4,4,4,4), chi 0, rho 1" in out
    assert "bipartite yes" in out
    assert "semi-equivelar witness: rho 1" in out


def test_analyze_half_integer_genus(capsys, monkeypatch):
    _, gem_json, _ = run(capsys, monkeypatch, ["gen", "rp2-sum", "--n", "1"])
    code, out, _ = run(capsys, monkeypatch, ["analyze"], stdin=gem_json)
    assert code == 0
    assert "rho 1/2" in out
    assert "bipartite no" in out


def test_analyze_json_schema(capsys, monkeypatch):
    _, gem_json, _ = run(capsys, monkeypatch, ["gen", "sphere", "--d", "3"])
    code, out, _ = run(
        capsys, monkeypatch, ["analyze", "--json", "--bigons", "include"], stdin=gem_json
    )
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 3
    assert data["witness_rho_times_2"] == 0
    assert len(data["reports"]) == 3
    for rep in data["reports"]:
        assert set(rep) == {
            "epsilon",
            "g_values",
            "chi",
            "rho_times_2",
            "orientable",
            "type",
            "condensed",
        }


def test_pipeline_gen_homology(capsys, monkeypatch):
    _, gem_json, _ = run(capsys, monkeypatch, ["gen", "sphere", "--d", "3"])
    code, out, _ = run(capsys, monkeypatch, ["homology"], stdin=gem_json)
    assert code == 0
    assert out.strip() == "H0=Z H1=0 H2=0 H3=Z"


def test_homology_json(capsys, monkeypatch):
    _, gem_json, _ = run(capsys, monkeypatch, ["gen", "lens", "--p", "3", "--q", "1", "--k", "2"])
    code, out, _ = run(capsys, monkeypatch, ["homology", "--json"], stdin=gem_json)
    assert json.loads(out)[1] == {"rank": 0, "torsion": [3]}


def test_iso_command(capsys, monkeypatch, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    g = lens_gem(2, 1, 2)
    a.write_text(gio.to_json(g))
    b.write_text(gio.to_json(g.relabel(list(reversed(range(8))))))
    code, out, _ = run(capsys, monkeypatch, ["iso", str(a), str(b)])
    assert code == 0
    assert "isomorphic" in out.splitlines()[0]
    assert "vertex map" in out

    c = tmp_path / "c.json"
    c.write_text(gio.to_json(lens_gem(2, 0, 2)))
    code, out, _ = run(capsys, monkeypatch, ["iso", str(a), str(c), "--permute-colors"])
    assert code == 0
    assert out.strip() == "non-isomorphic"


def test_iso_json(capsys, monkeypatch, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(gio.to_json(standard_sphere(2)))
    code, out, _ = run(capsys, monkeypatch, ["iso", str(a), str(a), "--json"])
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert data["vertex_map"] == [0, 1]


def test_types_table(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["types", "--chi", "1"])
    assert code == 0
    assert "5 embedding types" in out
    for needle in ("(4^3)", "(4^2,q^1)", "(4^1,6^2)", "(4^1,6^1,8^1)", "(4^1,6^1,10^1)"):
        assert needle in out
    assert "order 60" in out

    code, out, _ = run(capsys, monkeypatch, ["types", "--chi", "0", "--json"])
    data = json.loads(out)
    assert {entry["type"] for entry in data} == {
        "(4^4)",
        "(6^3)",
        "(4^1,8^2)",
        "(4^1,6^1,12^1)",
    }
    assert all(entry["order"] is None for entry in data)


def test_search_command(capsys, monkeypatch, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "colors": 3,
                "order": 12,
                "vertex_types": [6, 6, 4],
                "chi": 1,
            }
        )
    )
    code, out, _ = run(capsys, monkeypatch, ["search", "--spec", str(spec)])
    assert code == 0
    assert "exhaustive: yes" in out
    assert "hits: 0" in out

    code, out, _ = run(capsys, monkeypatch, ["search", "--spec", str(spec), "--json"])
    data = json.loads(out)
    assert data["exhaustive"] is True
    assert data["hit_count"] == 0


def test_search_spec_with_an_empty_length_list(capsys, monkeypatch, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"colors": 3, "order": 8, "pair_lengths": {"02": []}}))
    code, out, err = run(capsys, monkeypatch, ["search", "--spec", str(spec)])
    assert code == 0
    assert out == "exhaustive: yes\nhits: 0\n"
    assert err == ""


def test_search_with_a_face_longer_than_the_order(capsys, monkeypatch, tmp_path):
    # A length above the order leaves each vertex owing fewer than two
    # lengths at the last color: no gem, and no exception.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"colors": 3, "order": 8, "vertex_types": [4, 4, 10]}))
    code, out, err = run(capsys, monkeypatch, ["search", "--spec", str(spec), "--json"])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["exhaustive"], data["hit_count"]) == (True, 0)


def test_search_budget_error(capsys, monkeypatch, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"colors": 3, "order": 40}))
    code, _, err = run(capsys, monkeypatch, ["search", "--spec", str(spec)])
    assert code == 1
    assert "budget" in err


def test_catalog_listing_and_build(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["catalog", "--list"])
    assert code == 0
    assert "torus-6.6.6" in out
    assert "[disabled]" in out

    code, out, _ = run(capsys, monkeypatch, ["catalog", "--name", "rp2-4.4.2p", "--p", "4"])
    assert code == 0
    assert gio.from_json(out).vertex_count == 8

    code, _, err = run(capsys, monkeypatch, ["catalog", "--name", "rp2-4.6.10"])
    assert code == 1
    assert "disabled" in err


@pytest.mark.parametrize("argv", [["catalog", "--p", "4"], ["catalog", "--list", "--p", "4"]])
def test_catalog_p_without_name_is_refused(capsys, monkeypatch, argv):
    code, out, err = run(capsys, monkeypatch, argv)
    assert code == 1
    assert out == ""
    assert "--p needs --name" in err


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_catalog_list_is_written_to_the_output_file(capsys, monkeypatch, tmp_path, fmt):
    _, listing, _ = run(capsys, monkeypatch, ["catalog", "--list", *fmt])
    target = tmp_path / "catalog.txt"
    code, out, err = run(capsys, monkeypatch, ["catalog", "--list", *fmt, "-o", str(target)])
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == listing
    assert "torus-6.6.6" in listing


def test_catalog_json_with_name_is_refused(capsys, monkeypatch):
    # A gem is always written as JSON, so the flag would be ignored.
    code, out, err = run(capsys, monkeypatch, ["catalog", "--name", "s2-4.4.4", "--json"])
    assert code == 1
    assert out == ""
    assert "--json takes no --name" in err


def test_catalog_list_and_name_are_a_usage_error(capsys):
    # --list is never read, so the pair would silently build the gem.
    with pytest.raises(SystemExit) as exc:
        cli.main(["catalog", "--list", "--name", "torus-6.6.6"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_export_dot_and_json(capsys, monkeypatch):
    _, gem_json, _ = run(capsys, monkeypatch, ["gen", "sphere", "--d", "2"])
    code, out, _ = run(capsys, monkeypatch, ["export", "--format", "dot"], stdin=gem_json)
    assert code == 0
    assert "graph gem {" in out
    assert "[color=1]" in out

    code, out, _ = run(capsys, monkeypatch, ["export", "--format", "json"], stdin=gem_json)
    assert json.loads(out) == json.loads(gem_json)


def test_round_trip_gen_export_analyze(capsys, monkeypatch):
    _, gem_json, _ = run(capsys, monkeypatch, ["gen", "torus-sum", "--n", "1"])
    _, direct, _ = run(capsys, monkeypatch, ["analyze"], stdin=gem_json)
    _, exported, _ = run(capsys, monkeypatch, ["export", "--format", "json"], stdin=gem_json)
    _, via_export, _ = run(capsys, monkeypatch, ["analyze"], stdin=exported)
    assert direct == via_export


def test_bad_gem_file(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"dimension\": 2}")
    code, _, err = run(capsys, monkeypatch, ["analyze", str(bad)])
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, monkeypatch, ["homology", str(tmp_path / "missing.json")])
    assert code == 1


@pytest.mark.parametrize(
    "gem, needle",
    [
        ({"dimension": 1, "vertices": 2, "matchings": [[1, 0], [1.0, 0]]}, "integers"),
        ({"dimension": True, "vertices": 2, "matchings": [[1, 0], [1, 0]]}, "integers"),
    ],
)
def test_analyze_rejects_non_integer_gem_fields(capsys, monkeypatch, gem, needle):
    code, out, err = run(capsys, monkeypatch, ["analyze"], stdin=json.dumps(gem))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and needle in err


@pytest.mark.parametrize(
    "spec, needle",
    [
        ({"colors": 3}, "missing key 'order'"),
        ([{"colors": 3, "order": 12}], "JSON object"),
        (
            {"colors": 3, "order": 12, "pair_lengths": {"01": [4], "10": [6]}},
            "color pair 01 is given twice",
        ),
        ({"colors": 3, "order": 8, "vertex_type": [4, 4, 4]}, "unknown key 'vertex_type'"),
        ({"colors": 3, "order": 12, "bigons": "maybe"}, "bigons policy must be include or exclude"),
        ({"colors": 3, "order": 12, "vertex_types": [4, 5, 4]}, "face lengths must be even"),
        ({"colors": 3, "order": 12, "pair_lengths": [[0, 1]]}, "pair_lengths must map color pairs"),
        ({"colors": 3, "order": 12, "pair_lengths": {"0x": [4]}}, "bad color pair '0x'"),
    ],
)
def test_search_rejects_malformed_spec(capsys, monkeypatch, tmp_path, spec, needle):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, monkeypatch, ["search", "--spec", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and needle in err


def test_search_text_output_lists_the_hits(capsys, monkeypatch, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"colors": 3, "order": 12, "vertex_types": [4, 6, 12]}))
    code, out, err = run(capsys, monkeypatch, ["search", "--spec", str(path)])
    assert code == 0
    assert err == ""
    assert out == (
        "exhaustive: yes\n"
        "hits: 3\n"
        "  order 12  bipartite False  chi 0  vertex type [4, 6, 12]\n"
        "  order 12  bipartite False  chi 0  vertex type [4, 6, 12]\n"
        "  order 12  bipartite True  chi 0  vertex type [4, 6, 12]\n"
    )


def test_search_text_output_computes_no_extra_canonical_form(capsys, monkeypatch, tmp_path):
    # Text mode prints no canonical form, so it computes none beyond the
    # ones search_report's dedup needs.  The dedup runs the labeling search
    # itself, so both entries to it are counted.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"colors": 3, "order": 12, "vertex_types": [4, 6, 12]}))
    calls = []
    for name in ("canonical_form", "_best_labelings"):

        def counted(g, mode, real=getattr(search, name)):
            calls.append(mode)
            return real(g, mode)

        monkeypatch.setattr(search, name, counted)
    search.search_report(search.SearchSpec.from_json_dict(json.loads(path.read_text())))
    dedup = len(calls)
    assert dedup > 0
    calls.clear()
    code, out, _ = run(capsys, monkeypatch, ["search", "--spec", str(path)])
    assert code == 0 and "hits: 3" in out
    assert len(calls) == dedup


@pytest.mark.parametrize("vertex_types", [0, False, "", {}, []])
def test_search_rejects_falsy_vertex_types(capsys, monkeypatch, tmp_path, vertex_types):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"colors": 3, "order": 8, "vertex_types": vertex_types}))
    code, out, err = run(capsys, monkeypatch, ["search", "--spec", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "vertex_types" in err
    assert "Traceback" not in err


def test_homology_rejects_deeply_nested_json(capsys, monkeypatch, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"dimension": ' + "[" * 100_000)
    code, out, err = run(capsys, monkeypatch, ["homology", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


def test_analyze_rejects_a_loop_line(capsys, monkeypatch, tmp_path):
    path = tmp_path / "loop.txt"
    path.write_text("1 2\n0 0 0\n0 1 1\n")
    code, out, err = run(capsys, monkeypatch, ["analyze", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "is a loop at vertex 0" in err
    assert "Traceback" not in err


def test_homology_rejects_oversized_text_header(capsys, monkeypatch, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("2 200000000\n0 1 0\n")
    code, out, err = run(capsys, monkeypatch, ["homology", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "edge lines" in err
    assert "Traceback" not in err


def test_search_rejects_deeply_nested_spec(capsys, monkeypatch, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, monkeypatch, ["search", "--spec", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err



# SHA-256 of the stdout of `gemkit analyze`, text and --json.  The first three
# were taken when each arrangement walked its own color pairs, the d = 7 ones
# when every report was checked per vertex and printed by the standard
# library's encoder.
PINNED_ANALYZE = [
    (
        "torus-4.8.8",
        "exclude",
        "dff6354bc456169c9e6b525d73dca7347df22eb997cd31b6a53d8a442e322b30",
        "9e0bca5c1885876ca7e664b40e361bb6ef564b0786df57f5b0a5fac877ffd163",
    ),
    (
        "lens-5-2-2",
        "include",
        "8d187777d716ac05a63b90b111604a402fd4c0c14830cbac827bbee7406af5a4",
        "d2dabd397a48847f6e9ab8412e77bc17ae0e8f3afd112db2fc951413caec4038",
    ),
    (
        "random-d5-n16",
        "exclude",
        "ceaabced412c25e5071438504fa25074376a2efed4ab1e63b67cd5f87d5d2d12",
        "ff96c9dba0a78136a1985d0fc0470b7726455a9c98b2c5da8928565afea9c2f5",
    ),
    (
        "random-d7-n20",
        "exclude",
        "1b349c7a52e983963ae87ebe8e118b51e2b354b5cb5a2f5d067b6d83d7765ebb",
        "8a083b142c289510d9d858b0f99605401292c1be77f6b842a1acf6c691597a37",
    ),
    (
        "sphere-circle-7",
        "include",
        "560e6facd88976aa741140bd71f92bdf008b9a53480881672ba568c3619bdb13",
        "31a51c5a4bc811053456b4e45d18030c5d2e30c06340120af9434cd168be74cf",
    ),
]


def _pinned_gem(name):
    if name == "torus-4.8.8":
        return catalog(name)
    if name == "lens-5-2-2":
        return lens_gem(5, 2, 2)
    if name == "random-d7-n20":
        return random_gem(random.Random(7), 7, 20)
    if name == "sphere-circle-7":
        return sphere_times_circle_gem(7)
    return random_gem(random.Random(5), 5, 16)


@pytest.mark.parametrize("name, bigons, text_digest, json_digest", PINNED_ANALYZE)
def test_analyze_output_pinned(capsys, monkeypatch, name, bigons, text_digest, json_digest):
    gem = gio.to_json(_pinned_gem(name))
    for extra, digest in (([], text_digest), (["--json"], json_digest)):
        code, out, _ = run(
            capsys, monkeypatch, ["analyze", "--bigons", bigons] + extra, stdin=gem
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the stdout of the other commands that print indented JSON, as
# produced by the standard library's encoder.
PINNED_INDENTED = [
    (
        "types",
        ["types", "--chi", "-2", "--json"],
        "b77bf1ba668170ad244cdb0a34e09578a2df349b334499a5c9e9242a5a6d0010",
    ),
    (
        "search",
        ["search", "--spec", "{spec}", "--json"],
        "285716ff6e71568495ef09bfb65b7fa0e0702151d4b97edd0ead0c423ca03887",
    ),
    (
        "catalog",
        ["catalog", "--list", "--json"],
        "bb432eabcf8c05b6618f01ca38163ab892996a4e190dfd1f7f853c491b30032c",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", [p[1:] for p in PINNED_INDENTED], ids=[p[0] for p in PINNED_INDENTED]
)
def test_indented_output_pinned(capsys, monkeypatch, tmp_path, argv, digest):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"colors": 3, "order": 12, "vertex_types": [4, 6, 12]}))
    code, out, _ = run(capsys, monkeypatch, [a.format(spec=spec) for a in argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _render_gems():
    rng = random.Random(32)
    for d in range(1, 8):
        n = 20 if d == 7 else 8 + 2 * d
        yield f"random-d{d}", random_gem(rng, d, n)
        yield f"bipartite-d{d}", random_bipartite_gem(rng, d, n)
        yield f"sphere-{d}", standard_sphere(d)
        if d >= 3:
            for twisted in (False, True):
                yield f"sphere-circle-{d}-{twisted}", sphere_times_circle_gem(d, twisted)
    yield "no-qualifying", random_gem(random.Random(0), 3, 8)


RENDER_GEMS = list(_render_gems())


@pytest.mark.parametrize("gem", [g for _, g in RENDER_GEMS], ids=[name for name, _ in RENDER_GEMS])
def test_analyze_output_equals_the_per_report_writer(capsys, monkeypatch, gem):
    text = gio.to_json(gem)
    for bigons in ("include", "exclude"):
        for as_json in (False, True):
            argv = ["analyze", "--bigons", bigons] + (["--json"] if as_json else [])
            code, out, _ = run(capsys, monkeypatch, argv, stdin=text)
            assert code == 0
            # Compare line by line: a diff of the whole output is slow to print.
            got = out.split("\n")
            want = reference_analyze_output(gem, bigons, as_json).split("\n")
            pairs = enumerate(itertools.zip_longest(got, want))
            first = next((i for i, (a, b) in pairs if a != b), None)
            assert first is None, (argv, first, got[first:][:1], want[first:][:1])


def test_render_gems_cover_every_report_shape():
    # For d = 3..7 the gems above hold reports with and without a signature,
    # on orientable and on non-orientable gems; the last gem has no witness.
    from gemkit.embedding import semi_equivelar_report

    shapes = set()
    for name, g in RENDER_GEMS:
        rep = semi_equivelar_report(g, "include")
        if name == "no-qualifying":
            assert rep.witness_rho_times_2 is None
        shapes |= {(g.dimension, r.signature is not None, r.orientable) for r in rep.reports}
    assert set(itertools.product(range(3, 8), (False, True), (False, True))) <= shapes
