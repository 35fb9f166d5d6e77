//! Spatial primitives: node identifiers, coordinates, directions, and ports.

use std::fmt;

/// Identifies a node (router + network interface) in the network.
///
/// Node ids are dense indices assigned in row-major order by
/// [`Mesh`](crate::topology::Mesh), 16 bits wide: a mesh has at most
/// [`NodeId::LIMIT`] nodes.
///
/// # Examples
///
/// ```
/// use afc_netsim::geom::NodeId;
/// let n = NodeId::new(4);
/// assert_eq!(n.index(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Number of distinct node ids: the largest mesh has this many nodes.
    pub const LIMIT: usize = 1 << 16;

    /// Creates a node id from a dense index below [`NodeId::LIMIT`].
    pub const fn new(index: usize) -> Self {
        debug_assert!(index < Self::LIMIT, "node index beyond 16 bits");
        NodeId(index as u16)
    }

    /// Returns the dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

/// A position in the 2D mesh; `x` grows eastward, `y` grows southward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    /// Column (0 = westmost).
    pub x: u16,
    /// Row (0 = northmost).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance between two coordinates.
    ///
    /// ```
    /// use afc_netsim::geom::Coord;
    /// assert_eq!(Coord::new(0, 0).manhattan(Coord::new(2, 3)), 5);
    /// ```
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }

    /// Returns the neighboring coordinate in `dir`, without bounds checking
    /// against any particular mesh (saturating at zero).
    pub fn step(self, dir: Direction) -> Option<Coord> {
        match dir {
            Direction::North => self.y.checked_sub(1).map(|y| Coord::new(self.x, y)),
            Direction::South => self.y.checked_add(1).map(|y| Coord::new(self.x, y)),
            Direction::East => self.x.checked_add(1).map(|x| Coord::new(x, self.y)),
            Direction::West => self.x.checked_sub(1).map(|x| Coord::new(x, self.y)),
        }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// One of the four mesh directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Direction {
    /// Toward decreasing `y`.
    #[default]
    North,
    /// Toward increasing `y`.
    South,
    /// Toward increasing `x`.
    East,
    /// Toward decreasing `x`.
    West,
}

impl Direction {
    /// All four directions, in a fixed canonical order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// The direction a flit sent this way arrives *from* at the neighbor.
    ///
    /// ```
    /// use afc_netsim::geom::Direction;
    /// assert_eq!(Direction::North.opposite(), Direction::South);
    /// ```
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// Dense index in `0..4`, consistent with [`Direction::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
        }
    }

    /// Inverse of [`Direction::index`]. Returns `None` for `i >= 4`.
    pub const fn from_index(i: usize) -> Option<Direction> {
        match i {
            0 => Some(Direction::North),
            1 => Some(Direction::South),
            2 => Some(Direction::East),
            3 => Some(Direction::West),
            _ => None,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// A router port: one of the four network directions or the local
/// injection/ejection port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortId {
    /// The local port connecting the router to its network interface.
    Local,
    /// A network port facing the given direction.
    Net(Direction),
}

impl PortId {
    /// All five ports in canonical order (`Local` last).
    pub const ALL: [PortId; 5] = [
        PortId::Net(Direction::North),
        PortId::Net(Direction::South),
        PortId::Net(Direction::East),
        PortId::Net(Direction::West),
        PortId::Local,
    ];

    /// Dense index in `0..5`; directions first (matching
    /// [`Direction::index`]), `Local` is `4`.
    pub const fn index(self) -> usize {
        match self {
            PortId::Net(d) => d.index(),
            PortId::Local => 4,
        }
    }

    /// Inverse of [`PortId::index`]. Returns `None` for `i >= 5`.
    pub const fn from_index(i: usize) -> Option<PortId> {
        if i == 4 {
            Some(PortId::Local)
        } else {
            match Direction::from_index(i) {
                Some(d) => Some(PortId::Net(d)),
                None => None,
            }
        }
    }

    /// Returns the direction of a network port, or `None` for `Local`.
    pub const fn direction(self) -> Option<Direction> {
        match self {
            PortId::Net(d) => Some(d),
            PortId::Local => None,
        }
    }

    /// Whether this is a network (non-local) port.
    pub const fn is_network(self) -> bool {
        matches!(self, PortId::Net(_))
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortId::Local => f.write_str("L"),
            PortId::Net(d) => write!(f, "{d}"),
        }
    }
}

/// A small fixed-size map from [`PortId`] to `T`.
///
/// Used throughout the router implementations for per-port state such as
/// input latches, output registers and credit counters.
///
/// # Examples
///
/// ```
/// use afc_netsim::geom::{PortId, PortMap, Direction};
/// let mut m: PortMap<u32> = PortMap::default();
/// m[PortId::Local] = 7;
/// m[PortId::Net(Direction::East)] = 3;
/// assert_eq!(m.iter().map(|(_, v)| *v).sum::<u32>(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortMap<T> {
    slots: [T; 5],
}

impl<T: Default> Default for PortMap<T> {
    fn default() -> Self {
        PortMap {
            slots: Default::default(),
        }
    }
}

impl<T> PortMap<T> {
    /// Builds a map by evaluating `f` for every port.
    pub fn from_fn(mut f: impl FnMut(PortId) -> T) -> Self {
        PortMap {
            slots: [
                f(PortId::from_index(0).unwrap()),
                f(PortId::from_index(1).unwrap()),
                f(PortId::from_index(2).unwrap()),
                f(PortId::from_index(3).unwrap()),
                f(PortId::from_index(4).unwrap()),
            ],
        }
    }

    /// Iterates over `(port, &value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (PortId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, v)| (PortId::from_index(i).unwrap(), v))
    }

    /// Iterates over `(port, &mut value)` pairs in canonical order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PortId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .map(|(i, v)| (PortId::from_index(i).unwrap(), v))
    }
}

impl<T> std::ops::Index<PortId> for PortMap<T> {
    type Output = T;
    fn index(&self, port: PortId) -> &T {
        &self.slots[port.index()]
    }
}

impl<T> std::ops::IndexMut<PortId> for PortMap<T> {
    fn index_mut(&mut self, port: PortId) -> &mut T {
        &mut self.slots[port.index()]
    }
}

/// A map from [`Direction`] to `T` (network ports only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirMap<T> {
    slots: [T; 4],
}

impl<T: Default> Default for DirMap<T> {
    fn default() -> Self {
        DirMap {
            slots: Default::default(),
        }
    }
}

impl<T> DirMap<T> {
    /// Builds a map by evaluating `f` for every direction.
    pub fn from_fn(mut f: impl FnMut(Direction) -> T) -> Self {
        DirMap {
            slots: [
                f(Direction::North),
                f(Direction::South),
                f(Direction::East),
                f(Direction::West),
            ],
        }
    }

    /// Iterates over `(direction, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Direction, &T)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, v)| (Direction::from_index(i).unwrap(), v))
    }
}

impl DirMap<bool> {
    /// The set directions as a bit mask over [`Direction::index`].
    pub fn mask(&self) -> u8 {
        (self.slots.iter().enumerate()).fold(0, |m, (i, set)| m | (*set as u8) << i)
    }
}

impl<T> std::ops::Index<Direction> for DirMap<T> {
    type Output = T;
    fn index(&self, d: Direction) -> &T {
        &self.slots[d.index()]
    }
}

impl<T> std::ops::IndexMut<Direction> for DirMap<T> {
    fn index_mut(&mut self, d: Direction) -> &mut T {
        &mut self.slots[d.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_opposites_are_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn direction_index_roundtrips() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), Some(d));
        }
        assert_eq!(Direction::from_index(4), None);
    }

    #[test]
    fn port_index_roundtrips() {
        for p in PortId::ALL {
            assert_eq!(PortId::from_index(p.index()), Some(p));
        }
        assert_eq!(PortId::from_index(5), None);
    }

    #[test]
    fn coord_step_respects_edges() {
        let origin = Coord::new(0, 0);
        assert_eq!(origin.step(Direction::North), None);
        assert_eq!(origin.step(Direction::West), None);
        assert_eq!(origin.step(Direction::South), Some(Coord::new(0, 1)));
        assert_eq!(origin.step(Direction::East), Some(Coord::new(1, 0)));
    }

    #[test]
    fn manhattan_is_symmetric() {
        let a = Coord::new(1, 5);
        let b = Coord::new(4, 2);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn portmap_from_fn_and_indexing() {
        let m = PortMap::from_fn(|p| p.index() * 10);
        assert_eq!(m[PortId::Local], 40);
        assert_eq!(m[PortId::Net(Direction::North)], 0);
        assert_eq!(m.iter().count(), 5);
    }

    #[test]
    fn dirmap_indexing() {
        let mut m: DirMap<u8> = DirMap::default();
        m[Direction::West] = 9;
        assert_eq!(m[Direction::West], 9);
        assert_eq!(m.iter().filter(|(_, v)| **v == 0).count(), 3);
        let flags = DirMap::from_fn(|d| d == Direction::South || d == Direction::West);
        assert_eq!(flags.mask(), 0b1010);
    }

    #[test]
    fn node_id_display_and_conversion() {
        let n: NodeId = 3usize.into();
        assert_eq!(format!("{n}"), "n3");
        assert_eq!(n.index(), 3);
    }
}
