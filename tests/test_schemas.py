"""Schema validation of every machine-readable output format."""

import json

import pytest

from gemkit import cli, io
from gemkit.embedding import semi_equivelar_report
from gemkit.generators import lens_gem, sphere_times_circle_gem
from gemkit.search import SearchSpec, classify_4_4, search_report

jsonschema = pytest.importorskip("jsonschema")

GEM_SCHEMA = {
    "type": "object",
    "required": ["dimension", "vertices", "matchings"],
    "additionalProperties": False,
    "properties": {
        "dimension": {"type": "integer", "minimum": 1},
        "vertices": {"type": "integer", "minimum": 2},
        "matchings": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "epsilon",
        "g_values",
        "chi",
        "rho_times_2",
        "orientable",
        "type",
        "condensed",
    ],
    "additionalProperties": False,
    "properties": {
        "epsilon": {"type": "array", "items": {"type": "integer"}},
        "g_values": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "chi": {"type": "integer"},
        "rho_times_2": {"type": "integer"},
        "orientable": {"type": "boolean"},
        "type": {
            "anyOf": [
                {"type": "null"},
                {"type": "array", "items": {"type": "integer", "minimum": 2}},
            ]
        },
        "condensed": {"anyOf": [{"type": "null"}, {"type": "string"}]},
    },
}

HOMOLOGY_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["rank", "torsion"],
        "additionalProperties": False,
        "properties": {
            "rank": {"type": "integer", "minimum": 0},
            "torsion": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        },
    },
}

SEARCH_REPORT_SCHEMA = {
    "type": "object",
    "required": ["spec", "exhaustive", "hit_count", "gems"],
    "properties": {
        "exhaustive": {"type": "boolean"},
        "hit_count": {"type": "integer", "minimum": 0},
        "gems": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["canonical", "order", "matchings", "bipartite", "chi"],
            },
        },
    },
}


def test_gem_json_schema():
    for g in (lens_gem(3, 1, 2), sphere_times_circle_gem(4)):
        jsonschema.validate(io.to_json_dict(g), GEM_SCHEMA)


def test_embedding_report_schema():
    rep = semi_equivelar_report(lens_gem(2, 1, 2))
    for r in rep.reports:
        jsonschema.validate(r.to_json_dict(), REPORT_SCHEMA)


def test_homology_schema(capsys, monkeypatch):
    import io as stdio

    monkeypatch.setattr("sys.stdin", stdio.StringIO(io.to_json(lens_gem(2, 1, 2))))
    assert cli.main(["homology", "--json"]) == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), HOMOLOGY_SCHEMA)


def test_search_report_schema():
    spec = SearchSpec(colors=3, order=6, vertex_types=(6, 6, 6))
    jsonschema.validate(search_report(spec).to_json_dict(), SEARCH_REPORT_SCHEMA)


def test_classify_report_schema():
    data = classify_4_4(8).to_json_dict()
    schema = {
        "type": "object",
        "required": [
            "order_max",
            "exhaustive",
            "count_color_permuting",
            "count_color_fixed",
            "all_bipartite_manifolds_are_lens",
            "nonbipartite_manifold_count",
            "sphere_bundle_candidates",
            "entries",
        ],
    }
    jsonschema.validate(data, schema)


def test_spec_round_trip_through_json():
    spec = SearchSpec(
        colors=4,
        order=8,
        pair_lengths={(0, 1): (4,), (1, 2): (4,), (2, 3): (4,), (0, 3): (4,)},
    )
    assert SearchSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec


def test_cli_analyze_json_validates(capsys, monkeypatch):
    import io as stdio

    monkeypatch.setattr("sys.stdin", stdio.StringIO(io.to_json(lens_gem(2, 1, 2))))
    assert cli.main(["analyze", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    for rep in data["reports"]:
        jsonschema.validate(rep, REPORT_SCHEMA)


def test_gem_schema_rejects_malformed():
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"dimension": 3}, GEM_SCHEMA)
