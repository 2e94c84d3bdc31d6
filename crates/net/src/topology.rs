//! Deployment generation.
//!
//! The paper deploys sensors in a water column with sinks on the surface
//! (Figure 1): *"sensors at greater depths transmit packets to sensors
//! closer to the surface"*. Table 2 says "1000 km³" — which, taken as a
//! uniform box with a 1.5 km range and 60 nodes, is severely disconnected.
//! Reproduction decision (DESIGN.md): the default generator is a
//! **layered column** that realises Figure 1 — depth layers one hop apart,
//! sinks on top, guaranteed uphill connectivity — inside a fixed volume, so
//! that raising the node count raises density (degree, hidden-terminal
//! pairs) the way §5's Figure 7 sweep requires. The literal
//! [`Deployment::UniformBox`] remains available.

use rand::Rng;

use uasn_phy::geometry::{Point, Region};
use uasn_phy::grid::SpatialGrid;

use crate::error::BuildNetworkError;
use crate::node::{NodeId, NodeInfo, NodeRole};

/// How nodes are placed in the water.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deployment {
    /// Uniformly random positions in a region (paper Table 2 taken
    /// literally). No connectivity guarantee.
    UniformBox {
        /// The deployment region.
        region: Region,
    },
    /// Figure-1-style column: sinks on the surface, sensors stratified into
    /// depth layers spaced one acoustic hop apart, with a repair pass that
    /// guarantees every sensor an in-range shallower neighbour.
    LayeredColumn {
        /// Horizontal extent (square side), metres.
        extent_m: f64,
        /// Number of sensor layers below the surface.
        layers: u32,
        /// Vertical spacing between layers, metres. Must be below the
        /// communication range for connectivity to be repairable.
        layer_spacing_m: f64,
    },
}

impl Deployment {
    /// The deployment the figure experiments use: a 2.5 km × 2.5 km column,
    /// five layers 1.2 km apart (inside the 1.5 km range).
    pub fn paper_column() -> Self {
        Deployment::LayeredColumn {
            extent_m: 2_500.0,
            layers: 5,
            layer_spacing_m: 1_200.0,
        }
    }

    /// The density-sweep variant (Figures 7, 9b, 10a): the column volume is
    /// fixed (2.5 km × 2.5 km × 6 km) while the layer count grows with the
    /// node count. Denser deployments multiply the audible degree and the
    /// hidden-terminal pairs each exchange must coexist with — the
    /// contention squeeze behind the paper's Figure-7 claim that reuse
    /// protocols lose their advantage as density grows (see
    /// `crate::analysis` for the static measurement).
    pub fn paper_column_for(sensors: u32) -> Self {
        let layers = (sensors / 12).clamp(5, 20);
        Deployment::LayeredColumn {
            extent_m: 2_500.0,
            layers,
            layer_spacing_m: 6_000.0 / layers as f64,
        }
    }

    /// The bounding region of this deployment.
    pub fn region(&self) -> Region {
        match *self {
            Deployment::UniformBox { region } => region,
            Deployment::LayeredColumn {
                extent_m,
                layers,
                layer_spacing_m,
            } => Region::new(extent_m, extent_m, (layers as f64 + 0.5) * layer_spacing_m),
        }
    }

    /// Generates `sensors` sensor nodes and `sinks` surface sinks.
    ///
    /// Node ids: sinks occupy `0..sinks`, sensors follow. All nodes are
    /// generated with static mobility; callers overlay mobility models
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError::PlacementFailed`] for impossible
    /// parameters (zero sensors/sinks, layer spacing ≥ communication range
    /// in the layered generator).
    pub fn generate<R: Rng>(
        &self,
        rng: &mut R,
        sensors: u32,
        sinks: u32,
        comm_range_m: f64,
    ) -> Result<Vec<NodeInfo>, BuildNetworkError> {
        if sensors == 0 {
            return Err(BuildNetworkError::PlacementFailed {
                reason: "at least one sensor is required".into(),
            });
        }
        if sinks == 0 {
            return Err(BuildNetworkError::PlacementFailed {
                reason: "at least one sink is required".into(),
            });
        }
        match *self {
            Deployment::UniformBox { region } => Ok(generate_uniform(rng, sensors, sinks, &region)),
            Deployment::LayeredColumn {
                extent_m,
                layers,
                layer_spacing_m,
            } => generate_layered(
                rng,
                sensors,
                sinks,
                extent_m,
                layers,
                layer_spacing_m,
                comm_range_m,
            ),
        }
    }
}

fn generate_uniform<R: Rng>(
    rng: &mut R,
    sensors: u32,
    sinks: u32,
    region: &Region,
) -> Vec<NodeInfo> {
    let mut nodes = Vec::with_capacity((sensors + sinks) as usize);
    for i in 0..sinks {
        let p = Point::surface(
            rng.gen_range(0.0..=region.width()),
            rng.gen_range(0.0..=region.length()),
        );
        nodes.push(NodeInfo::anchored(NodeId::new(i), p, NodeRole::Sink));
    }
    for i in 0..sensors {
        let p = Point::new(
            rng.gen_range(0.0..=region.width()),
            rng.gen_range(0.0..=region.length()),
            rng.gen_range(0.0..=region.depth()),
        );
        nodes.push(NodeInfo::anchored(
            NodeId::new(sinks + i),
            p,
            NodeRole::Sensor,
        ));
    }
    nodes
}

#[allow(clippy::too_many_arguments)]
fn generate_layered<R: Rng>(
    rng: &mut R,
    sensors: u32,
    sinks: u32,
    extent_m: f64,
    layers: u32,
    layer_spacing_m: f64,
    comm_range_m: f64,
) -> Result<Vec<NodeInfo>, BuildNetworkError> {
    if layers == 0 {
        return Err(BuildNetworkError::PlacementFailed {
            reason: "layered column needs at least one layer".into(),
        });
    }
    if layer_spacing_m >= comm_range_m {
        return Err(BuildNetworkError::PlacementFailed {
            reason: format!(
                "layer spacing {layer_spacing_m} m is not below the communication range {comm_range_m} m; uphill links cannot exist"
            ),
        });
    }

    let mut nodes = place_layered(rng, sensors, sinks, extent_m, layers, layer_spacing_m);
    repair_layered(&mut nodes, sinks as usize, comm_range_m)?;
    Ok(nodes)
}

/// The layered column's nodes before the repair pass.
fn place_layered<R: Rng>(
    rng: &mut R,
    sensors: u32,
    sinks: u32,
    extent_m: f64,
    layers: u32,
    layer_spacing_m: f64,
) -> Vec<NodeInfo> {
    let mut nodes = Vec::with_capacity((sensors + sinks) as usize);
    // Sinks: spread over the surface.
    for i in 0..sinks {
        let p = Point::surface(rng.gen_range(0.0..=extent_m), rng.gen_range(0.0..=extent_m));
        nodes.push(NodeInfo::anchored(NodeId::new(i), p, NodeRole::Sink));
    }
    // Sensors: round-robin layer assignment with ±20% depth jitter.
    for i in 0..sensors {
        let layer = 1 + (i % layers);
        let jitter = rng.gen_range(-0.2..0.2) * layer_spacing_m;
        let depth = (layer as f64 * layer_spacing_m + jitter).max(1.0);
        let p = Point::new(
            rng.gen_range(0.0..=extent_m),
            rng.gen_range(0.0..=extent_m),
            depth,
        );
        nodes.push(NodeInfo::anchored(
            NodeId::new(sinks + i),
            p,
            NodeRole::Sensor,
        ));
    }
    nodes
}

/// Repair pass, shallowest sensors first so repaired nodes can serve as
/// anchors for deeper ones: every sensor (ids from `sinks` on) that has no
/// shallower node within `0.95 × comm_range_m` slides toward its nearest
/// shallower anchor until it does.
fn repair_layered(
    nodes: &mut [NodeInfo],
    sinks: usize,
    comm_range_m: f64,
) -> Result<(), BuildNetworkError> {
    let mut order: Vec<usize> = (sinks..nodes.len()).collect();
    order.sort_by(|&a, &b| {
        nodes[a]
            .position
            .depth()
            .partial_cmp(&nodes[b].position.depth())
            .expect("depths are finite")
    });
    let target_range = 0.95 * comm_range_m;
    let vertical_cap = 0.9 * target_range;
    // Grid-first shortcut: most sensors already have a shallower node
    // within `vertical_cap` below them and within `target_range`. The
    // scan's anchor is the nearest such node, so it is at least as close
    // and the sensor would not move. Such a witness lies within
    // `comm_range_m`, hence in the grid's 27-cell neighbourhood; a sensor
    // without one in the neighbourhood falls through to the full scan.
    let mut grid = neighbour_grid(nodes, comm_range_m);
    let mut cand = Vec::new();
    for idx in order {
        let me = nodes[idx].position;
        if let Some(grid) = &grid {
            grid.neighbourhood_into(me, &mut cand);
            let anchored = cand.iter().any(|&j| {
                let n = nodes[j as usize].position;
                n.depth() < me.depth()
                    && me.depth() - n.depth() <= vertical_cap
                    && me.distance(n) <= target_range
            });
            if anchored {
                continue;
            }
        }
        if let Some(moved) = repair_move(nodes, me, target_range)? {
            nodes[idx].position = moved;
            if let Some(grid) = &mut grid {
                grid.note_move(idx as u32, moved);
            }
        }
    }
    Ok(())
}

/// Where the repair pass moves a sensor at `me`, or `None` if it stays.
///
/// Scans every node for the nearest shallower anchor.
fn repair_move(
    nodes: &[NodeInfo],
    me: Point,
    target_range: f64,
) -> Result<Option<Point>, BuildNetworkError> {
    // Prefer an anchor whose vertical separation alone leaves horizontal
    // slack; with heavy depth jitter in sparse layers none may exist, in
    // which case take the nearest shallower node and move in 3-D.
    let nearest = |vertical_cap: f64| -> Option<Point> {
        nodes
            .iter()
            .filter(|n| {
                n.position.depth() < me.depth() && me.depth() - n.position.depth() <= vertical_cap
            })
            .min_by(|a, b| {
                me.distance(a.position)
                    .partial_cmp(&me.distance(b.position))
                    .expect("distances are finite")
            })
            .map(|n| n.position)
    };
    let (anchor, slide_3d) = match nearest(0.9 * target_range) {
        Some(a) => (a, false),
        None => (
            nearest(f64::INFINITY).ok_or_else(|| BuildNetworkError::PlacementFailed {
                reason: "sensor has no shallower node to anchor to".into(),
            })?,
            true,
        ),
    };
    if me.distance(anchor) <= target_range {
        return Ok(None);
    }
    let moved = if slide_3d {
        // Move along the line toward the anchor to 0.9 × range, staying
        // strictly deeper than it.
        let d = me.distance(anchor);
        let keep = (0.9 * target_range) / d;
        Point::new(
            anchor.x + (me.x - anchor.x) * keep,
            anchor.y + (me.y - anchor.y) * keep,
            (anchor.z + (me.z - anchor.z) * keep).max(anchor.z + 1.0),
        )
    } else {
        // Slide horizontally toward the anchor until in range; the anchor
        // was chosen with enough vertical slack.
        let dx = anchor.x - me.x;
        let dy = anchor.y - me.y;
        let horiz = (dx * dx + dy * dy).sqrt();
        let dz = me.z - anchor.z;
        let allowed_horiz = (target_range * target_range - dz * dz).max(0.0).sqrt();
        let scale = if horiz > 0.0 {
            ((horiz - allowed_horiz) / horiz).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Point::new(me.x + dx * scale, me.y + dy * scale, me.z)
    };
    Ok(Some(moved))
}

/// Below this node count the plain O(N²) scans over a deployment — the
/// repair pass's witness test and [`stranded_sensors`] — beat building a
/// spatial index for them. At or above it both passes first consult a
/// [`SpatialGrid`] with cell edge `comm_range_m`.
const GRID_NODE_THRESHOLD: usize = 256;

/// A grid over `nodes` with cell edge `comm_range_m`, so every node within
/// `comm_range_m` of a point is in that point's 27-cell neighbourhood; `None`
/// below [`GRID_NODE_THRESHOLD`] or for a range no grid can bin.
fn neighbour_grid(nodes: &[NodeInfo], comm_range_m: f64) -> Option<SpatialGrid> {
    (nodes.len() >= GRID_NODE_THRESHOLD && comm_range_m.is_finite() && comm_range_m > 0.0).then(
        || {
            let positions: Vec<Point> = nodes.iter().map(|n| n.position).collect();
            SpatialGrid::build(comm_range_m, positions.as_slice())
        },
    )
}

/// Sensors with **no** shallower node within `comm_range_m` — the stranded
/// set that would make depth routing impossible.
///
/// At or above `GRID_NODE_THRESHOLD` (256) nodes the scan runs over a uniform
/// grid with cell edge `comm_range_m`, so any in-range witness is in the
/// 27-cell neighbourhood and each candidate still takes the exact distance
/// check — the result is identical to the brute-force scan for every input.
pub fn stranded_sensors(nodes: &[NodeInfo], comm_range_m: f64) -> Vec<NodeId> {
    let witnesses = |n: &NodeInfo, m: &NodeInfo| {
        m.position.depth() < n.position.depth() && n.position.distance(m.position) <= comm_range_m
    };
    let sensors = nodes.iter().filter(|n| !n.is_sink());
    match neighbour_grid(nodes, comm_range_m) {
        Some(grid) => {
            let mut cand = Vec::new();
            sensors
                .filter(|n| {
                    grid.neighbourhood_into(n.position, &mut cand);
                    !cand.iter().any(|&j| witnesses(n, &nodes[j as usize]))
                })
                .map(|n| n.id)
                .collect()
        }
        None => sensors
            .filter(|n| !nodes.iter().any(|m| witnesses(n, m)))
            .map(|n| n.id)
            .collect(),
    }
}

/// All ordered audible pairs `(hearer, speaker)` within `comm_range_m`
/// (symmetric range model).
pub fn audible_pairs(nodes: &[NodeInfo], comm_range_m: f64) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for a in nodes {
        for b in nodes {
            if a.id != b.id && a.position.distance(b.position) <= comm_range_m {
                pairs.push((a.id, b.id));
            }
        }
    }
    pairs
}

/// Mean number of audible neighbours per node — the density statistic the
/// Figure 7/9b/10a sweeps vary.
pub fn mean_degree(nodes: &[NodeInfo], comm_range_m: f64) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    audible_pairs(nodes, comm_range_m).len() as f64 / nodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Moves the repair oracle made, by branch.
    #[derive(Debug, Default, Clone, Copy)]
    struct Moves {
        horizontal: usize,
        slide_3d: usize,
    }

    /// The repair pass as a plain O(N²) scan for every sensor: the oracle
    /// the grid-first [`repair_layered`] must reproduce bit for bit.
    fn repair_by_scan(nodes: &mut [NodeInfo], sinks: usize, comm_range_m: f64) -> Moves {
        let mut moves = Moves::default();
        let mut order: Vec<usize> = (sinks..nodes.len()).collect();
        order.sort_by(|&a, &b| {
            nodes[a]
                .position
                .depth()
                .partial_cmp(&nodes[b].position.depth())
                .expect("depths are finite")
        });
        for idx in order {
            let me = nodes[idx].position;
            let target_range = 0.95 * comm_range_m;
            let nearest = |vertical_cap: f64| -> Option<Point> {
                nodes
                    .iter()
                    .filter(|n| {
                        n.position.depth() < me.depth()
                            && me.depth() - n.position.depth() <= vertical_cap
                    })
                    .min_by(|a, b| {
                        me.distance(a.position)
                            .partial_cmp(&me.distance(b.position))
                            .expect("distances are finite")
                    })
                    .map(|n| n.position)
            };
            let (anchor, slide_3d) = match nearest(0.9 * target_range) {
                Some(a) => (a, false),
                None => (nearest(f64::INFINITY).expect("a shallower node"), true),
            };
            if me.distance(anchor) > target_range {
                if slide_3d {
                    let d = me.distance(anchor);
                    let keep = (0.9 * target_range) / d;
                    nodes[idx].position = Point::new(
                        anchor.x + (me.x - anchor.x) * keep,
                        anchor.y + (me.y - anchor.y) * keep,
                        (anchor.z + (me.z - anchor.z) * keep).max(anchor.z + 1.0),
                    );
                    moves.slide_3d += 1;
                } else {
                    let dx = anchor.x - me.x;
                    let dy = anchor.y - me.y;
                    let horiz = (dx * dx + dy * dy).sqrt();
                    let dz = me.z - anchor.z;
                    let allowed_horiz = (target_range * target_range - dz * dz).max(0.0).sqrt();
                    let scale = if horiz > 0.0 {
                        ((horiz - allowed_horiz) / horiz).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    nodes[idx].position = Point::new(me.x + dx * scale, me.y + dy * scale, me.z);
                    moves.horizontal += 1;
                }
            }
        }
        moves
    }

    #[test]
    fn grid_first_repair_matches_the_scan_oracle() {
        const RANGE: f64 = 1_500.0;
        let swarm = |sensors: u32| Deployment::LayeredColumn {
            extent_m: 20_000.0 * (sensors as f64 / 10_000.0).sqrt(),
            layers: 10,
            layer_spacing_m: 450.0,
        };
        // A handful of sensors per layer with layers almost a full range
        // apart: the ±20% jitter often leaves no anchor inside the
        // vertical cap, which forces the 3-D slide.
        let sparse_heavy_jitter = Deployment::LayeredColumn {
            extent_m: 12_000.0,
            layers: 60,
            layer_spacing_m: 1_400.0,
        };
        let mut cases: Vec<(Deployment, u32, u32)> = Vec::new();
        for sensors in [40, 200, 253, 254, 300, 600] {
            cases.push((Deployment::paper_column(), sensors, 3));
            cases.push((Deployment::paper_column_for(140), sensors, 3));
            cases.push((sparse_heavy_jitter, sensors, 2));
        }
        cases.push((swarm(2_000), 2_000, 8));
        let (mut below, mut above) = (Moves::default(), Moves::default());
        for seed in 0..4 {
            for &(deployment, sensors, sinks) in &cases {
                let Deployment::LayeredColumn {
                    extent_m,
                    layers,
                    layer_spacing_m,
                } = deployment
                else {
                    unreachable!("layered cases only")
                };
                let got = deployment
                    .generate(&mut rng(seed), sensors, sinks, RANGE)
                    .expect("generation succeeds");
                let mut expected = place_layered(
                    &mut rng(seed),
                    sensors,
                    sinks,
                    extent_m,
                    layers,
                    layer_spacing_m,
                );
                let moves = repair_by_scan(&mut expected, sinks as usize, RANGE);
                assert_eq!(
                    got, expected,
                    "seed {seed}: {sensors} sensors in {deployment:?}"
                );
                let side = if expected.len() < GRID_NODE_THRESHOLD {
                    &mut below
                } else {
                    &mut above
                };
                side.horizontal += moves.horizontal;
                side.slide_3d += moves.slide_3d;
            }
        }
        // Both slide branches run on both sides of the cutoff, so the
        // comparison covers moved nodes and the grid's `note_move`.
        for (side, moves) in [("below", below), ("above", above)] {
            assert!(
                moves.horizontal > 0 && moves.slide_3d > 0,
                "{side} the cutoff: {moves:?}"
            );
        }
    }

    #[test]
    fn layered_column_is_always_uphill_connected() {
        for seed in 0..10 {
            let nodes = Deployment::paper_column()
                .generate(&mut rng(seed), 60, 3, 1_500.0)
                .expect("generation succeeds");
            assert_eq!(nodes.len(), 63);
            let stranded = stranded_sensors(&nodes, 1_500.0);
            assert!(stranded.is_empty(), "seed {seed}: stranded {stranded:?}");
        }
    }

    #[test]
    fn layered_column_scales_to_dense_networks() {
        for n in [60, 100, 140, 200] {
            let nodes = Deployment::paper_column()
                .generate(&mut rng(42), n, 3, 1_500.0)
                .expect("generation succeeds");
            assert!(stranded_sensors(&nodes, 1_500.0).is_empty(), "n={n}");
        }
    }

    #[test]
    fn density_grows_with_node_count() {
        let sparse = Deployment::paper_column()
            .generate(&mut rng(1), 60, 3, 1_500.0)
            .unwrap();
        let dense = Deployment::paper_column()
            .generate(&mut rng(1), 140, 3, 1_500.0)
            .unwrap();
        assert!(mean_degree(&dense, 1_500.0) > mean_degree(&sparse, 1_500.0));
    }

    #[test]
    fn sinks_are_first_and_on_surface() {
        let nodes = Deployment::paper_column()
            .generate(&mut rng(5), 20, 4, 1_500.0)
            .unwrap();
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id, NodeId::new(i as u32));
            if i < 4 {
                assert!(n.is_sink());
                assert_eq!(n.position.depth(), 0.0);
            } else {
                assert!(!n.is_sink());
                assert!(n.position.depth() > 0.0);
            }
        }
    }

    #[test]
    fn uniform_box_fills_region() {
        let region = Region::cube(10_000.0);
        let nodes = Deployment::UniformBox { region }
            .generate(&mut rng(9), 200, 2, 1_500.0)
            .unwrap();
        for n in &nodes {
            assert!(region.contains(n.position), "{} outside region", n.position);
        }
        // Table-2-literal box at 60 nodes is expected to be disconnected —
        // documenting the reproduction decision as a test.
        let sparse = Deployment::UniformBox { region }
            .generate(&mut rng(10), 60, 2, 1_500.0)
            .unwrap();
        assert!(!stranded_sensors(&sparse, 1_500.0).is_empty());
    }

    #[test]
    fn zero_sensor_or_sink_rejected() {
        let d = Deployment::paper_column();
        assert!(d.generate(&mut rng(0), 0, 1, 1_500.0).is_err());
        assert!(d.generate(&mut rng(0), 10, 0, 1_500.0).is_err());
    }

    #[test]
    fn layer_spacing_must_be_below_range() {
        let d = Deployment::LayeredColumn {
            extent_m: 2_000.0,
            layers: 3,
            layer_spacing_m: 1_600.0,
        };
        let err = d.generate(&mut rng(0), 10, 1, 1_500.0).unwrap_err();
        assert!(matches!(err, BuildNetworkError::PlacementFailed { .. }));
    }

    #[test]
    fn audible_pairs_are_symmetric() {
        let nodes = Deployment::paper_column()
            .generate(&mut rng(2), 30, 2, 1_500.0)
            .unwrap();
        let pairs = audible_pairs(&nodes, 1_500.0);
        for &(a, b) in &pairs {
            assert!(pairs.contains(&(b, a)), "({a},{b}) missing reverse");
        }
    }

    #[test]
    fn region_covers_layers() {
        let d = Deployment::paper_column();
        let r = d.region();
        assert!(r.depth() >= 5.0 * 1_200.0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Deployment::paper_column()
            .generate(&mut rng(77), 40, 2, 1_500.0)
            .unwrap();
        let b = Deployment::paper_column()
            .generate(&mut rng(77), 40, 2, 1_500.0)
            .unwrap();
        assert_eq!(a, b);
    }
}
