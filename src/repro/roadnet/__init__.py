"""Road-network substrate: geometry, graph, spatial index, generators, IO."""

from repro.roadnet.geometry import (
    BoundingBox,
    Point,
    project_onto_segment,
)
from repro.roadnet.generators import (
    grid_city,
    ring_radial_city,
    sized_grid,
)
from repro.roadnet.io import (
    load_network,
    load_network_csv,
    network_from_dict,
    network_to_dict,
    save_network,
    save_network_csv,
)
from repro.roadnet.network import (
    FREE_FLOW_KMH,
    ROAD_CLASSES,
    Intersection,
    RoadNetwork,
    RoadSegment,
)
from repro.roadnet.spatial_index import SegmentMatch, SpatialIndex

__all__ = [
    "BoundingBox",
    "FREE_FLOW_KMH",
    "Intersection",
    "Point",
    "ROAD_CLASSES",
    "RoadNetwork",
    "RoadSegment",
    "SegmentMatch",
    "SpatialIndex",
    "grid_city",
    "load_network",
    "load_network_csv",
    "network_from_dict",
    "network_to_dict",
    "project_onto_segment",
    "ring_radial_city",
    "save_network",
    "save_network_csv",
    "sized_grid",
]
