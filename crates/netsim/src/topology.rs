//! 2D mesh topology and dimension-ordered routing helpers.

use crate::error::ConfigError;
use crate::geom::{Coord, Direction, NodeId};

/// Classification of a mesh router by its number of network neighbors.
///
/// The AFC contention thresholds are scaled by class because edge and corner
/// routers have fewer ports (paper Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterClass {
    /// Two network neighbors.
    Corner,
    /// Three network neighbors.
    Edge,
    /// Four network neighbors.
    Center,
}

/// A `width x height` 2D mesh.
///
/// Nodes are identified by dense [`NodeId`]s in row-major order:
/// `id = y * width + x`.
///
/// # Examples
///
/// ```
/// use afc_netsim::topology::Mesh;
/// use afc_netsim::geom::{Coord, Direction};
///
/// let mesh = Mesh::new(4, 4)?;
/// let origin = mesh.node_at(Coord::new(0, 0)).unwrap();
/// assert_eq!(mesh.neighbor(origin, Direction::North), None);
/// assert!(mesh.neighbor(origin, Direction::East).is_some());
/// # Ok::<(), afc_netsim::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    width: u16,
    height: u16,
    /// `ceil(2^64 / width)`, or 0 when `width` is a power of two. The high
    /// word of `recip * i` is `i / width` for every 32-bit `i` (Lemire,
    /// Kaser & Kurz 2019); a power of two shifts instead. [`Mesh::coord`]
    /// is on every per-flit routing path, so it never divides.
    recip: u64,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyMesh`] if either dimension is zero, and
    /// [`ConfigError::OutOfRange`] for a mesh of more than
    /// [`NodeId::LIMIT`] nodes (node ids are 16 bits).
    pub fn new(width: u16, height: u16) -> Result<Mesh, ConfigError> {
        if width == 0 || height == 0 {
            return Err(ConfigError::EmptyMesh { width, height });
        }
        if width as usize * height as usize > NodeId::LIMIT {
            return Err(ConfigError::OutOfRange {
                what: "mesh size",
                range: "at most 65536 nodes",
            });
        }
        let recip = match width.is_power_of_two() {
            true => 0,
            false => u64::MAX / width as u64 + 1,
        };
        Ok(Mesh {
            width,
            height,
            recip,
        })
    }

    /// Mesh width (number of columns).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height (number of rows).
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Iterates over all node ids in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this mesh.
    #[inline]
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!(node.index() < self.node_count(), "node {node} out of range");
        let i = node.index() as u64;
        let y = match self.recip {
            0 => i >> self.width.trailing_zeros(),
            m => ((m as u128 * i as u128) >> 64) as u64,
        };
        Coord::new((i - y * self.width as u64) as u16, y as u16)
    }

    /// Node at a coordinate, if in bounds.
    pub fn node_at(&self, c: Coord) -> Option<NodeId> {
        if c.x < self.width && c.y < self.height {
            Some(NodeId::new(
                c.y as usize * self.width as usize + c.x as usize,
            ))
        } else {
            None
        }
    }

    /// The neighbor of `node` in direction `dir`, if one exists.
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.coord(node).step(dir).and_then(|c| self.node_at(c))
    }

    /// Directions in which `node` has a neighbor.
    pub fn neighbor_dirs(&self, node: NodeId) -> impl Iterator<Item = Direction> + '_ {
        let c = self.coord(node);
        Direction::ALL
            .into_iter()
            .filter(move |d| c.step(*d).and_then(|n| self.node_at(n)).is_some())
    }

    /// Number of network neighbors of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbor_dirs(node).count()
    }

    /// Router class of `node` (corner / edge / center).
    ///
    /// Degenerate meshes (1xN) classify nodes with fewer than two neighbors
    /// as corners.
    pub fn router_class(&self, node: NodeId) -> RouterClass {
        match self.degree(node) {
            0..=2 => RouterClass::Corner,
            3 => RouterClass::Edge,
            _ => RouterClass::Center,
        }
    }

    /// Manhattan distance between two nodes.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.coord(a).manhattan(self.coord(b))
    }

    /// Dimension-ordered (XY) routing: the single productive direction toward
    /// `dest`, or `None` if `at == dest`.
    ///
    /// X is fully corrected before Y, so the route is deadlock-free on a
    /// mesh.
    ///
    /// ```
    /// use afc_netsim::topology::Mesh;
    /// use afc_netsim::geom::{Coord, Direction};
    /// let mesh = Mesh::new(3, 3)?;
    /// let a = mesh.node_at(Coord::new(0, 0)).unwrap();
    /// let b = mesh.node_at(Coord::new(2, 2)).unwrap();
    /// assert_eq!(mesh.dor_route(a, b), Some(Direction::East));
    /// # Ok::<(), afc_netsim::error::ConfigError>(())
    /// ```
    pub fn dor_route(&self, at: NodeId, dest: NodeId) -> Option<Direction> {
        self.dor_route_from(self.coord(at), dest)
    }

    /// [`Mesh::dor_route`] from a coordinate the caller already holds — a
    /// router caches its own, halving the per-flit coordinate work.
    #[inline]
    pub fn dor_route_from(&self, a: Coord, dest: NodeId) -> Option<Direction> {
        let d = self.coord(dest);
        if a.x < d.x {
            Some(Direction::East)
        } else if a.x > d.x {
            Some(Direction::West)
        } else if a.y < d.y {
            Some(Direction::South)
        } else if a.y > d.y {
            Some(Direction::North)
        } else {
            None
        }
    }

    /// Dimension-ordered (YX) routing: Y fully corrected before X. Also
    /// deadlock-free on a mesh; provided for routing-algorithm ablations.
    pub fn dor_route_yx(&self, at: NodeId, dest: NodeId) -> Option<Direction> {
        let a = self.coord(at);
        let d = self.coord(dest);
        if a.y < d.y {
            Some(Direction::South)
        } else if a.y > d.y {
            Some(Direction::North)
        } else if a.x < d.x {
            Some(Direction::East)
        } else if a.x > d.x {
            Some(Direction::West)
        } else {
            None
        }
    }

    /// All productive directions toward `dest` (the directions that reduce
    /// Manhattan distance). Empty if `at == dest`.
    ///
    /// Deflection routing prefers any productive port; this returns them in
    /// X-first order so the first entry equals [`Mesh::dor_route`]. The
    /// result is a stack-allocated [`ProductiveDirs`]. (The bufferless
    /// routers' per-flit path computes the same set as port masks from a
    /// cached own coordinate.)
    pub fn productive_dirs(&self, at: NodeId, dest: NodeId) -> ProductiveDirs {
        let a = self.coord(at);
        let d = self.coord(dest);
        let x = if a.x < d.x {
            Some(Direction::East)
        } else if a.x > d.x {
            Some(Direction::West)
        } else {
            None
        };
        let y = if a.y < d.y {
            Some(Direction::South)
        } else if a.y > d.y {
            Some(Direction::North)
        } else {
            None
        };
        ProductiveDirs {
            dirs: match (x, y) {
                (Some(x), y) => [Some(x), y],
                (None, y) => [y, None],
            },
        }
    }
}

/// The productive directions toward a destination — at most two on a 2D
/// mesh — packed into a `Copy` value so the hot routing path never
/// allocates. Entries are compact (no interior `None`) and X-first, so
/// `first()` equals [`Mesh::dor_route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProductiveDirs {
    dirs: [Option<Direction>; 2],
}

impl ProductiveDirs {
    /// Number of productive directions (0, 1, or 2).
    pub fn len(&self) -> usize {
        self.dirs[0].is_some() as usize + self.dirs[1].is_some() as usize
    }

    /// True when `at == dest` (no productive direction exists).
    pub fn is_empty(&self) -> bool {
        self.dirs[0].is_none()
    }

    /// The preferred (X-first) productive direction, if any.
    pub fn first(&self) -> Option<Direction> {
        self.dirs[0]
    }

    /// Whether `dir` is productive.
    pub fn contains(&self, dir: Direction) -> bool {
        self.dirs[0] == Some(dir) || self.dirs[1] == Some(dir)
    }

    /// Iterates over the productive directions in X-first order.
    pub fn iter(&self) -> impl Iterator<Item = Direction> + '_ {
        self.dirs.iter().flatten().copied()
    }
}

impl IntoIterator for ProductiveDirs {
    type Item = Direction;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Direction>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.dirs.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh3() -> Mesh {
        Mesh::new(3, 3).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert!(Mesh::new(0, 3).is_err());
        assert!(Mesh::new(3, 0).is_err());
    }

    #[test]
    fn coord_roundtrip() {
        let m = mesh3();
        for n in m.nodes() {
            assert_eq!(m.node_at(m.coord(n)), Some(n));
        }
    }

    #[test]
    fn coord_is_index_mod_and_div_width_for_every_width_and_node() {
        // Every width 1..=130 (power-of-two shift and reciprocal paths) at
        // a height that carries indices past 2^14, plus the extremes the
        // 16-bit node cap allows: the widest meshes and the last index.
        let shapes = (1..=130u16).map(|w| (w, 130)).chain([
            (255, 257),
            (u16::MAX, 1),
            (u16::MAX - 1, 1),
            (32_768, 2),
            (3, 21_845),
            (256, 256),
        ]);
        for (w, h) in shapes {
            let m = Mesh::new(w, h).unwrap();
            for n in m.nodes() {
                let (x, y) = (n.index() % w as usize, n.index() / w as usize);
                assert_eq!(m.coord(n), Coord::new(x as u16, y as u16), "{w}x{h} {n}");
            }
        }
    }

    #[test]
    fn meshes_beyond_sixteen_bit_node_ids_are_refused() {
        for (w, h) in [(256, 256), (32_768, 2), (u16::MAX, 1), (1, u16::MAX)] {
            let m = Mesh::new(w, h).unwrap();
            assert!(m.node_count() <= NodeId::LIMIT);
            let last = m.nodes().last().unwrap();
            assert_eq!(last.index(), m.node_count() - 1, "{w}x{h}: no truncation");
        }
        for (w, h) in [(256, 257), (257, 256), (32_769, 2), (u16::MAX, u16::MAX)] {
            match Mesh::new(w, h) {
                Err(ConfigError::OutOfRange { what, .. }) => assert_eq!(what, "mesh size"),
                other => panic!("{w}x{h}: expected a mesh-size error, got {other:?}"),
            }
        }
    }

    #[test]
    fn node_at_out_of_bounds() {
        let m = mesh3();
        assert_eq!(m.node_at(Coord::new(3, 0)), None);
        assert_eq!(m.node_at(Coord::new(0, 3)), None);
    }

    #[test]
    fn neighbor_symmetry() {
        let m = mesh3();
        for n in m.nodes() {
            for d in m.neighbor_dirs(n).collect::<Vec<_>>() {
                let nb = m.neighbor(n, d).unwrap();
                assert_eq!(m.neighbor(nb, d.opposite()), Some(n));
            }
        }
    }

    #[test]
    fn classes_in_3x3() {
        let m = mesh3();
        let classes: Vec<RouterClass> = m.nodes().map(|n| m.router_class(n)).collect();
        assert_eq!(
            classes
                .iter()
                .filter(|c| **c == RouterClass::Corner)
                .count(),
            4
        );
        assert_eq!(
            classes.iter().filter(|c| **c == RouterClass::Edge).count(),
            4
        );
        assert_eq!(
            classes
                .iter()
                .filter(|c| **c == RouterClass::Center)
                .count(),
            1
        );
    }

    #[test]
    fn dor_is_x_first() {
        let m = mesh3();
        let a = m.node_at(Coord::new(0, 2)).unwrap();
        let b = m.node_at(Coord::new(2, 0)).unwrap();
        assert_eq!(m.dor_route(a, b), Some(Direction::East));
        // Once x matches, route goes north.
        let c = m.node_at(Coord::new(2, 2)).unwrap();
        assert_eq!(m.dor_route(c, b), Some(Direction::North));
        assert_eq!(m.dor_route(b, b), None);
    }

    #[test]
    fn dor_reaches_destination() {
        let m = Mesh::new(5, 4).unwrap();
        for a in m.nodes() {
            for b in m.nodes() {
                let mut at = a;
                let mut steps = 0;
                while let Some(d) = m.dor_route(at, b) {
                    at = m.neighbor(at, d).expect("dor route must stay in mesh");
                    steps += 1;
                    assert!(steps <= 16, "dor must terminate");
                }
                assert_eq!(at, b);
                assert_eq!(steps, m.distance(a, b));
            }
        }
    }

    #[test]
    fn dor_yx_is_y_first_and_reaches_destination() {
        let m = Mesh::new(4, 4).unwrap();
        let a = m.node_at(Coord::new(0, 3)).unwrap();
        let b = m.node_at(Coord::new(3, 0)).unwrap();
        assert_eq!(m.dor_route_yx(a, b), Some(Direction::North));
        for src in m.nodes() {
            for dst in m.nodes() {
                let mut at = src;
                let mut steps = 0;
                while let Some(d) = m.dor_route_yx(at, dst) {
                    at = m.neighbor(at, d).unwrap();
                    steps += 1;
                    assert!(steps <= 8);
                }
                assert_eq!(at, dst);
                assert_eq!(steps, m.distance(src, dst));
            }
        }
    }

    #[test]
    fn productive_dirs_reduce_distance() {
        let m = Mesh::new(4, 4).unwrap();
        for a in m.nodes() {
            for b in m.nodes() {
                for d in m.productive_dirs(a, b) {
                    let nb = m.neighbor(a, d).unwrap();
                    assert_eq!(m.distance(nb, b) + 1, m.distance(a, b));
                }
                if a != b {
                    assert!(!m.productive_dirs(a, b).is_empty());
                    assert_eq!(m.productive_dirs(a, b).first(), m.dor_route(a, b));
                }
            }
        }
    }

    #[test]
    fn degenerate_mesh_classes() {
        let m = Mesh::new(1, 3).unwrap();
        // Middle of a 1x3 line has 2 neighbors -> corner by our convention.
        let mid = m.node_at(Coord::new(0, 1)).unwrap();
        assert_eq!(m.router_class(mid), RouterClass::Corner);
    }
}
