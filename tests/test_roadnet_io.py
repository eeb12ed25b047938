"""Unit tests for network (de)serialisation."""

import json

import pytest

from repro.core.errors import DataError
from repro.roadnet.generators import grid_city, ring_radial_city
from repro.roadnet.io import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)


def _with_field(doc, rows, key, value):
    """``doc`` with ``key`` of the first ``rows`` entry set to ``value``."""
    return {**doc, rows: [{**doc[rows][0], key: value}, *doc[rows][1:]]}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "network", [grid_city(4, 4), ring_radial_city(rings=2, spokes=6)],
        ids=["grid", "ring"],
    )
    def test_dict_round_trip(self, network):
        restored = network_from_dict(network_to_dict(network))
        assert restored.name == network.name
        assert restored.road_ids() == network.road_ids()
        assert restored.node_ids() == network.node_ids()
        for road in network.road_ids():
            a, b = network.segment(road), restored.segment(road)
            assert a == b

    def test_file_round_trip(self, tmp_path):
        network = grid_city(3, 3)
        path = tmp_path / "net.json"
        save_network(network, path)
        restored = load_network(path)
        assert restored.road_ids() == network.road_ids()

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(grid_city(3, 3), path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert {"intersections", "segments", "name"} <= set(data)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such network file"):
            load_network(tmp_path / "absent.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="invalid JSON"):
            load_network(path)

    def test_wrong_version(self):
        doc = network_to_dict(grid_city(3, 3))
        doc["format_version"] = 99
        with pytest.raises(DataError, match="unsupported network format"):
            network_from_dict(doc)

    def test_missing_field(self):
        doc = network_to_dict(grid_city(3, 3))
        del doc["segments"][0]["start"]
        with pytest.raises(DataError, match="missing field"):
            network_from_dict(doc)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: [doc],
            lambda doc: {**doc, "intersections": [7, *doc["intersections"][1:]]},
            lambda doc: {
                **doc,
                "intersections": [
                    {**doc["intersections"][0], "x": "x"},
                    *doc["intersections"][1:],
                ],
            },
            lambda doc: {**doc, "segments": ["s", *doc["segments"][1:]]},
            lambda doc: {
                **doc,
                "segments": [
                    {**doc["segments"][0], "length_m": "long"},
                    *doc["segments"][1:],
                ],
            },
            lambda doc: _with_field(doc, "intersections", "id", "0"),
            lambda doc: _with_field(doc, "intersections", "id", 0.0),
            lambda doc: _with_field(doc, "segments", "id", "7"),
            lambda doc: _with_field(doc, "segments", "id", True),
            lambda doc: _with_field(doc, "segments", "start", "0"),
            lambda doc: _with_field(doc, "segments", "end", None),
        ],
        ids=[
            "top-level-array",
            "non-object-intersection",
            "string-coordinate",
            "non-object-segment",
            "string-length",
            "string-intersection-id",
            "float-intersection-id",
            "string-segment-id",
            "bool-segment-id",
            "string-start",
            "null-end",
        ],
    )
    def test_malformed_document_raises_data_error(self, tmp_path, corrupt):
        """Every malformed user file surfaces as DataError, never a raw
        AttributeError/TypeError (or a silently accepted network)."""
        path = tmp_path / "net.json"
        path.write_text(json.dumps(corrupt(network_to_dict(grid_city(3, 3)))))
        with pytest.raises(DataError):
            load_network(path)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        from repro.roadnet.io import load_network_csv, save_network_csv

        network = grid_city(4, 4)
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        save_network_csv(network, nodes, edges)
        restored = load_network_csv(nodes, edges, name=network.name)
        assert restored.road_ids() == network.road_ids()
        assert restored.node_ids() == network.node_ids()
        for road in network.road_ids():
            assert restored.segment(road) == network.segment(road)

    def test_missing_file(self, tmp_path):
        from repro.roadnet.io import load_network_csv

        with pytest.raises(DataError, match="no such CSV"):
            load_network_csv(tmp_path / "a.csv", tmp_path / "b.csv")

    def test_bad_header(self, tmp_path):
        from repro.roadnet.io import load_network_csv, save_network_csv

        save_network_csv(grid_city(3, 3), tmp_path / "n.csv", tmp_path / "e.csv")
        (tmp_path / "n.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            load_network_csv(tmp_path / "n.csv", tmp_path / "e.csv")

    def test_bad_row_reports_line(self, tmp_path):
        from repro.roadnet.io import load_network_csv, save_network_csv

        save_network_csv(grid_city(3, 3), tmp_path / "n.csv", tmp_path / "e.csv")
        content = (tmp_path / "n.csv").read_text().splitlines()
        content[1] = "zero,not-a-number,0"
        (tmp_path / "n.csv").write_text("\n".join(content) + "\n")
        with pytest.raises(DataError, match=":2:"):
            load_network_csv(tmp_path / "n.csv", tmp_path / "e.csv")
