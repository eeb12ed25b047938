"""Synthetic city generators.

The paper evaluates on proprietary Beijing and Tianjin taxi-GPS road
networks. These generators build structurally comparable stand-ins:

* :func:`grid_city` — a Manhattan-style grid with an arterial hierarchy
  (every ``arterial_every``-th street is an arterial, the rest local),
  resembling Beijing's ring-and-grid core at small scale.
* :func:`ring_radial_city` — concentric ring roads connected by radial
  spokes, the classic monocentric layout.
* :func:`metropolitan_city` — grid districts stitched by inter-district
  links, for the metropolitan-scale experiments.

All streets are two-way: each undirected street contributes two directed
:class:`~repro.roadnet.network.RoadSegment` instances. Generators are
deterministic given their parameters (no randomness), so every test and
benchmark sees identical topology.
"""

from __future__ import annotations

import math

from repro.roadnet.geometry import Point
from repro.roadnet.network import RoadNetwork


def _add_two_way(
    network: RoadNetwork,
    next_road_id: int,
    node_a: int,
    node_b: int,
    road_class: str,
    name: str = "",
) -> int:
    """Add both directions of a street; returns the next free road id."""
    network.add_segment(next_road_id, node_a, node_b, road_class=road_class, name=name)
    network.add_segment(
        next_road_id + 1, node_b, node_a, road_class=road_class, name=name
    )
    return next_road_id + 2


def grid_city(
    rows: int = 10,
    cols: int = 10,
    block_m: float = 400.0,
    arterial_every: int = 4,
    name: str = "grid-city",
) -> RoadNetwork:
    """A rows×cols grid of intersections with an arterial hierarchy.

    Every ``arterial_every``-th row/column street is an arterial; the rest
    are local streets. ``rows`` and ``cols`` count intersections, so the
    network has ``rows*cols`` nodes and ``2*(rows*(cols-1)+cols*(rows-1))``
    directed segments.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid city needs at least a 2x2 grid")
    if arterial_every < 1:
        raise ValueError("arterial_every must be >= 1")

    network = RoadNetwork(name=name)
    for r in range(rows):
        for c in range(cols):
            network.add_intersection(r * cols + c, Point(c * block_m, r * block_m))

    road_id = 0
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:  # horizontal street
                road_class = "arterial" if r % arterial_every == 0 else "local"
                road_id = _add_two_way(
                    network, road_id, node, node + 1, road_class,
                    name=f"EW-{r}",
                )
            if r + 1 < rows:  # vertical street
                road_class = "arterial" if c % arterial_every == 0 else "local"
                road_id = _add_two_way(
                    network, road_id, node, node + cols, road_class,
                    name=f"NS-{c}",
                )
    network.validate()
    return network


def ring_radial_city(
    rings: int = 4,
    spokes: int = 8,
    ring_spacing_m: float = 800.0,
    name: str = "ring-radial-city",
) -> RoadNetwork:
    """Concentric rings joined by radial spokes around a centre node.

    Ring roads are arterials; the innermost ring connects to a central
    node by collector spokes; outer radial links are collectors. Node
    count is ``1 + rings*spokes``.
    """
    if rings < 1:
        raise ValueError("need at least one ring")
    if spokes < 3:
        raise ValueError("need at least three spokes to form rings")

    network = RoadNetwork(name=name)
    centre = 0
    network.add_intersection(centre, Point(0.0, 0.0))

    def node_id(ring: int, spoke: int) -> int:
        return 1 + ring * spokes + spoke

    for ring in range(rings):
        radius = (ring + 1) * ring_spacing_m
        for spoke in range(spokes):
            angle = 2.0 * math.pi * spoke / spokes
            network.add_intersection(
                node_id(ring, spoke),
                Point(radius * math.cos(angle), radius * math.sin(angle)),
            )

    road_id = 0
    # Ring roads (arterials), closing each ring.
    for ring in range(rings):
        for spoke in range(spokes):
            a = node_id(ring, spoke)
            b = node_id(ring, (spoke + 1) % spokes)
            road_id = _add_two_way(network, road_id, a, b, "arterial", name=f"Ring-{ring + 1}")
    # Radial spokes (collectors), centre -> ring1 -> ... -> outermost.
    for spoke in range(spokes):
        road_id = _add_two_way(
            network, road_id, centre, node_id(0, spoke), "collector",
            name=f"Radial-{spoke}",
        )
        for ring in range(rings - 1):
            road_id = _add_two_way(
                network,
                road_id,
                node_id(ring, spoke),
                node_id(ring + 1, spoke),
                "collector",
                name=f"Radial-{spoke}",
            )
    network.validate()
    return network


def metropolitan_city(
    districts_x: int = 10,
    districts_y: int = 10,
    district_rows: int = 12,
    district_cols: int = 12,
    block_m: float = 400.0,
    arterial_every: int = 4,
    stitch_every: int = 4,
    name: str = "metropolitan-city",
) -> RoadNetwork:
    """A metropolitan area: a super-grid of districts stitched by arterials.

    Each of the ``districts_x × districts_y`` districts is a
    ``district_rows × district_cols`` grid neighbourhood (local streets
    with an arterial hierarchy, as in :func:`grid_city`). Adjacent
    districts are joined by two-way arterial links at every
    ``stitch_every``-th boundary intersection, so the network is one
    connected component whose cross-district connectivity is much
    sparser than its intra-district connectivity — the structure the
    district-partitioned selection and inference layers exploit.

    The default parameters produce ~53k directed segments; generators
    stay deterministic, so benchmarks at metropolitan scale (F8) see
    identical topology on every run.
    """
    if districts_x < 1 or districts_y < 1:
        raise ValueError("need at least one district in each direction")
    if district_rows < 2 or district_cols < 2:
        raise ValueError("districts need at least a 2x2 grid")
    if arterial_every < 1 or stitch_every < 1:
        raise ValueError("arterial_every and stitch_every must be >= 1")

    network = RoadNetwork(name=name)
    nodes_per_district = district_rows * district_cols
    # A one-block gap between districts keeps the stitch links visible
    # in the geometry (and strictly longer than local streets).
    span_x = (district_cols + 1) * block_m
    span_y = (district_rows + 1) * block_m

    def node_id(dx: int, dy: int, r: int, c: int) -> int:
        return (dy * districts_x + dx) * nodes_per_district + r * district_cols + c

    for dy in range(districts_y):
        for dx in range(districts_x):
            origin_x = dx * span_x
            origin_y = dy * span_y
            for r in range(district_rows):
                for c in range(district_cols):
                    network.add_intersection(
                        node_id(dx, dy, r, c),
                        Point(origin_x + c * block_m, origin_y + r * block_m),
                    )

    road_id = 0
    for dy in range(districts_y):
        for dx in range(districts_x):
            district = f"D{dx}.{dy}"
            for r in range(district_rows):
                for c in range(district_cols):
                    node = node_id(dx, dy, r, c)
                    if c + 1 < district_cols:
                        road_class = "arterial" if r % arterial_every == 0 else "local"
                        road_id = _add_two_way(
                            network, road_id, node, node_id(dx, dy, r, c + 1),
                            road_class, name=f"{district}-EW-{r}",
                        )
                    if r + 1 < district_rows:
                        road_class = "arterial" if c % arterial_every == 0 else "local"
                        road_id = _add_two_way(
                            network, road_id, node, node_id(dx, dy, r + 1, c),
                            road_class, name=f"{district}-NS-{c}",
                        )

    # Stitch adjacent districts with arterial links.
    for dy in range(districts_y):
        for dx in range(districts_x):
            if dx + 1 < districts_x:  # east neighbour
                for r in range(0, district_rows, stitch_every):
                    road_id = _add_two_way(
                        network,
                        road_id,
                        node_id(dx, dy, r, district_cols - 1),
                        node_id(dx + 1, dy, r, 0),
                        "arterial",
                        name=f"Stitch-E-{dx}.{dy}-{r}",
                    )
            if dy + 1 < districts_y:  # north neighbour
                for c in range(0, district_cols, stitch_every):
                    road_id = _add_two_way(
                        network,
                        road_id,
                        node_id(dx, dy, district_rows - 1, c),
                        node_id(dx, dy + 1, 0, c),
                        "arterial",
                        name=f"Stitch-N-{dx}.{dy}-{c}",
                    )
    network.validate()
    return network


def sized_metropolis(num_roads_target: int, name: str | None = None) -> RoadNetwork:
    """A metropolitan city with roughly ``num_roads_target`` segments.

    Districts are fixed 12×12 grids (528 directed segments each); the
    district super-grid is sized to reach the target, growing x then y.
    Used by the metropolitan scalability benchmark (F8).
    """
    if num_roads_target < 528:
        raise ValueError("target too small for a single 12x12 district")
    per_district = 2 * (12 * 11 * 2)  # 528 directed segments per district
    districts = -(-num_roads_target // per_district)  # ceil; stitches add more
    districts_y = max(1, math.isqrt(districts))
    districts_x = -(-districts // districts_y)
    return metropolitan_city(
        districts_x=districts_x,
        districts_y=districts_y,
        name=name or f"metro-{districts_x}x{districts_y}",
    )


def sized_grid(num_roads_target: int, name: str | None = None) -> RoadNetwork:
    """A grid city sized to have roughly ``num_roads_target`` segments.

    Used by scalability benchmarks that sweep network size. The actual
    segment count is the nearest achievable grid size at or above the
    target.
    """
    if num_roads_target < 8:
        raise ValueError("target too small for a 2x2 grid")
    # An n x n grid has 4*n*(n-1) directed segments.
    n = max(2, math.ceil((1 + math.sqrt(1 + num_roads_target)) / 2))
    while 4 * n * (n - 1) < num_roads_target:
        n += 1
    return grid_city(n, n, name=name or f"grid-{n}x{n}")
