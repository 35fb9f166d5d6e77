//! Round-robin arbitration primitives used by the switch allocators.

use afc_netsim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};

#[cfg(test)]
use afc_netsim::geom::Direction;

/// A rotating-priority (round-robin) arbiter over `n` requesters.
///
/// Grants are strongly fair: after requester `i` wins, priority rotates to
/// `i + 1`, so no continuously requesting input can be starved.
///
/// # Examples
///
/// ```
/// use afc_routers::arbiter::RoundRobin;
/// let mut arb = RoundRobin::new(3);
/// assert_eq!(arb.grant(|i| i != 1), Some(0));
/// assert_eq!(arb.grant(|i| i != 1), Some(2));
/// assert_eq!(arb.grant(|i| i != 1), Some(0));
/// assert_eq!(arb.grant(|_| false), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobin {
    n: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> RoundRobin {
        assert!(n > 0, "arbiter needs at least one requester");
        RoundRobin { n, next: 0 }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — an arbiter has at least one requester.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grants the highest-priority requester for which `requesting` returns
    /// true, rotating priority past the winner. Returns `None` if nobody
    /// requests (priority unchanged).
    pub fn grant(&mut self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        for offset in 0..self.n {
            let i = (self.next + offset) % self.n;
            if requesting(i) {
                self.next = (i + 1) % self.n;
                return Some(i);
            }
        }
        None
    }

    /// Current priority cursor: the requester checked first at the next
    /// [`RoundRobin::grant`]. Exposed for snapshot capture.
    pub fn cursor(&self) -> usize {
        self.next
    }

    /// Restores the priority cursor (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics if `next >= len()`; snapshot loaders must validate first.
    pub fn set_cursor(&mut self, next: usize) {
        assert!(next < self.n, "cursor out of range");
        self.next = next;
    }

    /// Mask form of [`RoundRobin::grant`]: bit `i` of `mask` set means
    /// requester `i` requests. Semantically identical to
    /// `grant(|i| mask >> i & 1 != 0)` — same winner, same cursor update,
    /// cursor untouched when nothing requests — but resolved with two
    /// count-trailing-zeros instead of a scan, so the hot arbitration
    /// kernels stay branch-light.
    ///
    /// Bits at or above `len()` are ignored. Only meaningful for arbiters
    /// of at most 64 requesters (every router arbiter: ≤ 64 VCs, 5 ports).
    pub fn grant_masked(&mut self, mask: u64) -> Option<usize> {
        debug_assert!(self.n <= 64, "grant_masked requires <= 64 requesters");
        let m = if self.n >= 64 {
            mask
        } else {
            mask & ((1u64 << self.n) - 1)
        };
        if m == 0 {
            return None;
        }
        // First requester at or after the cursor, else wrap to the lowest.
        let hi = m >> self.next;
        let i = if hi != 0 {
            self.next + hi.trailing_zeros() as usize
        } else {
            m.trailing_zeros() as usize
        };
        self.next = (i + 1) % self.n;
        Some(i)
    }

    /// Like [`RoundRobin::grant`] but does not rotate priority — useful for
    /// "peek" style eligibility checks.
    pub fn peek(&self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        for offset in 0..self.n {
            let i = (self.next + offset) % self.n;
            if requesting(i) {
                return Some(i);
            }
        }
        None
    }
}

/// An arbiter's state is its cursor, which a load keeps below `len()`.
impl Codec for RoundRobin {
    fn put(&self, w: &mut SnapshotWriter) {
        self.next.put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.next = r.get_index(self.n, "arbiter cursor")?;
        Ok(())
    }
}

/// Test reference for the latch kernel's free-port mask (`latch_tests`): the
/// order-preserving free-direction list the bufferless routers used before
/// it. Insertion order is iteration order and removal preserves it, which
/// is what fixes the RNG draw a random deflection pick consumes.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct FreeDirs {
    dirs: [Direction; 4],
    len: usize,
}

#[cfg(test)]
impl FreeDirs {
    /// Collects the directions of `dirs` for which `usable` holds,
    /// preserving order.
    pub fn fill(
        dirs: impl IntoIterator<Item = Direction>,
        mut usable: impl FnMut(Direction) -> bool,
    ) -> FreeDirs {
        let mut free = FreeDirs {
            dirs: [Direction::North; 4],
            len: 0,
        };
        for d in dirs.into_iter().filter(|d| usable(*d)) {
            free.dirs[free.len] = d;
            free.len += 1;
        }
        free
    }

    /// Number of free directions left.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether `d` is still free.
    pub fn contains(&self, d: Direction) -> bool {
        self.dirs[..self.len].contains(&d)
    }

    /// The `i`-th free direction in order (for the random deflection pick).
    pub fn get(&self, i: usize) -> Direction {
        self.dirs[..self.len][i]
    }

    /// The first of `candidates` that is still free.
    pub fn first_free(&self, candidates: impl IntoIterator<Item = Direction>) -> Option<Direction> {
        candidates.into_iter().find(|d| self.contains(*d))
    }

    /// Removes `d`, preserving the order of the remaining entries.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not free — the caller allocated a port it never
    /// held.
    pub fn take(&mut self, d: Direction) {
        let pos = self.dirs[..self.len]
            .iter()
            .position(|x| *x == d)
            .expect("assigned direction must be free");
        self.dirs.copy_within(pos + 1..self.len, pos);
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_fairly_under_full_load() {
        let mut arb = RoundRobin::new(4);
        let grants: Vec<usize> = (0..8).map(|_| arb.grant(|_| true).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_non_requesters() {
        let mut arb = RoundRobin::new(4);
        assert_eq!(arb.grant(|i| i == 2), Some(2));
        assert_eq!(arb.grant(|i| i == 2), Some(2));
    }

    #[test]
    fn none_when_idle_and_priority_preserved() {
        let mut arb = RoundRobin::new(3);
        assert_eq!(arb.grant(|_| true), Some(0));
        assert_eq!(arb.grant(|_| false), None);
        assert_eq!(arb.grant(|_| true), Some(1));
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut arb = RoundRobin::new(3);
        assert_eq!(arb.peek(|_| true), Some(0));
        assert_eq!(arb.peek(|_| true), Some(0));
        assert_eq!(arb.grant(|_| true), Some(0));
        assert_eq!(arb.peek(|_| true), Some(1));
    }

    #[test]
    fn no_starvation_with_competing_requesters() {
        let mut arb = RoundRobin::new(5);
        let mut wins = [0u32; 5];
        for _ in 0..500 {
            let g = arb.grant(|_| true).unwrap();
            wins[g] += 1;
        }
        assert!(wins.iter().all(|w| *w == 100));
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_requesters_rejected() {
        let _ = RoundRobin::new(0);
    }

    #[test]
    fn grant_masked_matches_closure_grant_exhaustively() {
        // Every (n, cursor, mask) for small n: same winner, same cursor
        // afterwards — grant_masked is a drop-in for the closure form.
        for n in 1..=8usize {
            for cursor in 0..n {
                for mask in 0u64..(1 << n) {
                    let mut a = RoundRobin::new(n);
                    a.set_cursor(cursor);
                    let mut b = a.clone();
                    let ga = a.grant(|i| mask >> i & 1 != 0);
                    let gb = b.grant_masked(mask);
                    assert_eq!(
                        ga, gb,
                        "winner mismatch n={n} cursor={cursor} mask={mask:b}"
                    );
                    assert_eq!(
                        a.cursor(),
                        b.cursor(),
                        "cursor mismatch n={n} mask={mask:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn grant_masked_ignores_out_of_range_bits() {
        let mut arb = RoundRobin::new(3);
        assert_eq!(arb.grant_masked(0b1111_1000), None);
        assert_eq!(arb.cursor(), 0, "no request leaves the cursor alone");
        assert_eq!(arb.grant_masked(u64::MAX), Some(0));
        assert_eq!(arb.grant_masked(u64::MAX), Some(1));
    }

    #[test]
    fn grant_masked_wraps_past_cursor() {
        let mut arb = RoundRobin::new(8);
        arb.set_cursor(6);
        // Only bit 1 set: the scan wraps past the end back to requester 1.
        assert_eq!(arb.grant_masked(0b10), Some(1));
        assert_eq!(arb.cursor(), 2);
    }

    #[test]
    fn grant_masked_supports_full_width() {
        let mut arb = RoundRobin::new(64);
        arb.set_cursor(63);
        assert_eq!(arb.grant_masked(1 << 63), Some(63));
        assert_eq!(arb.cursor(), 0);
        assert_eq!(arb.grant_masked(1), Some(0));
    }

    #[test]
    fn free_dirs_fill_filters_and_preserves_order() {
        let free = FreeDirs::fill(Direction::ALL, |d| d != Direction::East);
        assert_eq!(free.len(), 3);
        assert!(!free.contains(Direction::East));
        assert_eq!(free.get(0), Direction::North);
        assert_eq!(free.get(1), Direction::South);
        assert_eq!(free.get(2), Direction::West);
    }

    #[test]
    fn free_dirs_take_is_order_preserving() {
        let mut free = FreeDirs::fill(Direction::ALL, |_| true);
        free.take(Direction::South);
        assert_eq!(free.len(), 3);
        // Survivors keep their relative order (the RNG-sequence contract).
        assert_eq!(free.get(0), Direction::North);
        assert_eq!(free.get(1), Direction::East);
        assert_eq!(free.get(2), Direction::West);
    }

    #[test]
    fn free_dirs_first_free_respects_candidate_order() {
        let mut free = FreeDirs::fill(Direction::ALL, |_| true);
        free.take(Direction::North);
        assert_eq!(
            free.first_free([Direction::North, Direction::West]),
            Some(Direction::West)
        );
        assert_eq!(free.first_free([Direction::North]), None);
    }

    #[test]
    #[should_panic(expected = "assigned direction must be free")]
    fn free_dirs_take_of_absent_direction_panics() {
        let mut free = FreeDirs::fill(Direction::ALL, |d| d == Direction::West);
        free.take(Direction::North);
    }
}
