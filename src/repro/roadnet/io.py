"""Road-network (de)serialisation.

Networks round-trip through a small JSON document so datasets can be
saved to disk and reloaded without regeneration, and so users can import
their own (pre-projected) networks. A two-file CSV form (nodes + edges)
is also provided for interop with GIS exports and spreadsheets.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from repro.core.errors import DataError
from repro.roadnet.geometry import Point
from repro.roadnet.network import RoadNetwork

FORMAT_VERSION = 1

NODE_FIELDS = ("id", "x", "y")
EDGE_FIELDS = (
    "id", "start", "end", "class", "length_m", "free_flow_kmh", "lanes", "name",
)


def network_to_dict(network: RoadNetwork) -> dict[str, Any]:
    """A JSON-serialisable representation of ``network``."""
    return {
        "format_version": FORMAT_VERSION,
        "name": network.name,
        "intersections": [
            {"id": n.node_id, "x": n.location.x, "y": n.location.y}
            for n in sorted(network.intersections(), key=lambda n: n.node_id)
        ],
        "segments": [
            {
                "id": s.road_id,
                "start": s.start_node,
                "end": s.end_node,
                "length_m": s.length_m,
                "class": s.road_class,
                "free_flow_kmh": s.free_flow_kmh,
                "lanes": s.lanes,
                "name": s.name,
            }
            for s in sorted(network.segments(), key=lambda s: s.road_id)
        ],
    }


def network_from_dict(data: Any) -> RoadNetwork:
    """Rebuild a :class:`RoadNetwork` from :func:`network_to_dict` output.

    The document may come from outside the program, so any malformed
    shape (not an object, a row that is not an object, a missing field,
    a non-integer id, a non-numeric coordinate or attribute) raises
    :class:`DataError`.
    """
    if not isinstance(data, dict):
        raise DataError(
            f"network document must be a JSON object, not {type(data).__name__}"
        )
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported network format version {version!r}")
    try:
        network = RoadNetwork(name=data.get("name", "network"))
        for node in data["intersections"]:
            network.add_intersection(
                _int_id(node, "id"), Point(float(node["x"]), float(node["y"]))
            )
        for seg in data["segments"]:
            network.add_segment(
                _int_id(seg, "id"),
                _int_id(seg, "start"),
                _int_id(seg, "end"),
                road_class=seg["class"],
                length_m=seg["length_m"],
                free_flow_kmh=seg["free_flow_kmh"],
                lanes=seg.get("lanes", 2),
                name=seg.get("name", ""),
            )
    except KeyError as exc:
        raise DataError(f"network document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed network document: {exc}") from exc
    network.validate()
    return network


def _int_id(row: dict[str, Any], key: str) -> int:
    """``row[key]`` as an id: an ``int`` and not a ``bool``."""
    value = row[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"network {key} must be an integer, not {value!r}")
    return value


def save_network(network: RoadNetwork, path: str | Path) -> None:
    """Write ``network`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(network_to_dict(network)))


def load_network(path: str | Path) -> RoadNetwork:
    """Load a network previously written by :func:`save_network`."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such network file: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from exc
    return network_from_dict(data)


def save_network_csv(
    network: RoadNetwork, nodes_path: str | Path, edges_path: str | Path
) -> None:
    """Write the network as two CSV files (intersections + segments)."""
    with open(nodes_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(NODE_FIELDS)
        for node in sorted(network.intersections(), key=lambda n: n.node_id):
            writer.writerow([node.node_id, node.location.x, node.location.y])
    with open(edges_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EDGE_FIELDS)
        for seg in sorted(network.segments(), key=lambda s: s.road_id):
            writer.writerow(
                [
                    seg.road_id,
                    seg.start_node,
                    seg.end_node,
                    seg.road_class,
                    seg.length_m,
                    seg.free_flow_kmh,
                    seg.lanes,
                    seg.name,
                ]
            )


def load_network_csv(
    nodes_path: str | Path,
    edges_path: str | Path,
    name: str = "network",
) -> RoadNetwork:
    """Load a network from the two-file CSV form.

    Header rows are required and validated; rows with missing or
    non-numeric fields raise :class:`DataError` with the offending row
    number, because silently skipping corrupt GIS exports is how wrong
    maps ship.
    """
    for path in (nodes_path, edges_path):
        if not Path(path).exists():
            raise DataError(f"no such CSV file: {path}")
    network = RoadNetwork(name=name)
    with open(nodes_path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(NODE_FIELDS):
            raise DataError(
                f"node CSV header must be {NODE_FIELDS}, got {reader.fieldnames}"
            )
        for row_num, row in enumerate(reader, start=2):
            try:
                network.add_intersection(
                    int(row["id"]), Point(float(row["x"]), float(row["y"]))
                )
            except (TypeError, ValueError) as exc:
                raise DataError(
                    f"{nodes_path}:{row_num}: bad node row: {exc}"
                ) from exc
    with open(edges_path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(EDGE_FIELDS):
            raise DataError(
                f"edge CSV header must be {EDGE_FIELDS}, got {reader.fieldnames}"
            )
        for row_num, row in enumerate(reader, start=2):
            try:
                network.add_segment(
                    int(row["id"]),
                    int(row["start"]),
                    int(row["end"]),
                    road_class=row["class"],
                    length_m=float(row["length_m"]),
                    free_flow_kmh=float(row["free_flow_kmh"]),
                    lanes=int(row["lanes"]),
                    name=row["name"] or "",
                )
            except (TypeError, ValueError) as exc:
                raise DataError(
                    f"{edges_path}:{row_num}: bad edge row: {exc}"
                ) from exc
    network.validate()
    return network
