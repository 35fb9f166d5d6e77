//! Round-robin arbitration primitives used by the switch allocators, and
//! the separable allocator's stage 2 ([`Nominations::grant`]) that both
//! buffered routers share.

use afc_netsim::geom::{PortId, PortMap};
use afc_netsim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use std::num::NonZeroU16;

#[cfg(test)]
use afc_netsim::geom::Direction;

/// A rotating-priority (round-robin) arbiter over `n` requesters.
///
/// Grants are strongly fair: after requester `i` wins, priority rotates to
/// `i + 1`, so no continuously requesting input can be starved. Four bytes
/// (two `u16`, the nonzero count leaving `Option<RoundRobin>` four bytes
/// too), so a router's arbiters fit its hot header (DESIGN.md §16.1).
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
    n: NonZeroU16,
    next: u16,
}

impl RoundRobin {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u16::MAX`.
    pub fn new(n: usize) -> RoundRobin {
        assert!(n > 0, "arbiter needs at least one requester");
        let n = u16::try_from(n).ok().and_then(NonZeroU16::new);
        RoundRobin {
            n: n.expect("arbiter has at most 65 535 requesters"),
            next: 0,
        }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n.get() as usize
    }

    /// Always false — an arbiter has at least one requester.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grants the highest-priority requester for which `requesting` returns
    /// true, rotating priority past the winner. Returns `None` if nobody
    /// requests (priority unchanged).
    pub fn grant(&mut self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        let n = self.len();
        for offset in 0..n {
            let i = (self.cursor() + offset) % n;
            if requesting(i) {
                self.next = ((i + 1) % n) as u16;
                return Some(i);
            }
        }
        None
    }

    /// Current priority cursor: the requester checked first at the next
    /// [`RoundRobin::grant`]. Exposed for snapshot capture.
    pub fn cursor(&self) -> usize {
        self.next as usize
    }

    /// Restores the priority cursor (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics if `next >= len()`; snapshot loaders must validate first.
    pub fn set_cursor(&mut self, next: usize) {
        assert!(next < self.len(), "cursor out of range");
        self.next = next as u16;
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
        let (n, next) = (self.len(), self.cursor());
        debug_assert!(n <= 64, "grant_masked requires <= 64 requesters");
        let m = if n >= 64 {
            mask
        } else {
            mask & ((1u64 << n) - 1)
        };
        if m == 0 {
            return None;
        }
        // First requester at or after the cursor, else wrap to the lowest.
        let hi = m >> next;
        let i = if hi != 0 {
            next + hi.trailing_zeros() as usize
        } else {
            m.trailing_zeros() as usize
        };
        self.next = ((i + 1) % n) as u16;
        Some(i)
    }
}

/// An arbiter's state is its cursor, a `usize` on the wire, which a load
/// keeps below `len()`.
impl Codec for RoundRobin {
    fn put(&self, w: &mut SnapshotWriter) {
        self.cursor().put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.next = r.get_index(self.len(), "arbiter cursor")? as u16;
        Ok(())
    }
}

const PORTS: usize = PortId::ALL.len();
const LOCAL: usize = PortId::Local.index();

/// One switch grant: `(input port, that input's buffer slot, output port)`,
/// ports as [`PortId::index`], the slot a VC or lazy-VC index below 64.
pub type Grant = (u8, u8, u8);

/// Stage 1 of a separable switch allocator, as stage 2 reads it: the
/// buffer slot each input port nominated and, per output port, a request
/// word over the nominating inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nominations {
    slot: [u8; PORTS],
    requests: [u8; PORTS],
    /// Outputs with at least one request.
    outputs: u8,
}

impl Nominations {
    /// Input port `input` nominates its buffer slot `slot`, which requests
    /// output port `output`. An input nominates at most once per cycle.
    #[inline]
    pub fn nominate(&mut self, input: usize, slot: usize, output: usize) {
        debug_assert!(slot < 64 && output < PORTS, "slot or output out of range");
        debug_assert!(
            self.requests.iter().all(|r| r >> input & 1 == 0),
            "input {input} nominated twice"
        );
        self.slot[input] = slot as u8;
        self.requests[output] |= 1 << input;
        self.outputs |= 1 << output;
    }

    /// True when no input nominated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.outputs == 0
    }

    /// Stage 2: each requested output port in `present` (a mask over
    /// [`PortId::index`]) grants one of its requesting inputs through its
    /// round-robin arbiter, in ascending port order; the Local (ejection)
    /// port grants up to `eject_bandwidth` inputs. Each grant is one
    /// output arbitration. An output with no request is never visited, so
    /// its arbiter keeps its cursor — as a grant over an empty mask would.
    #[inline]
    pub fn grant(
        mut self,
        output_arb: &mut PortMap<RoundRobin>,
        present: u8,
        eject_bandwidth: usize,
    ) -> Grants {
        let mut grants = Grants::default();
        let mut outputs = self.outputs & present;
        while outputs != 0 {
            let o = outputs.trailing_zeros() as usize;
            outputs &= outputs - 1;
            let arb = &mut output_arb[PortId::ALL[o]];
            let rounds = if o == LOCAL { eject_bandwidth } else { 1 };
            for _ in 0..rounds {
                let Some(i) = arb.grant_masked(u64::from(self.requests[o])) else {
                    break;
                };
                self.requests[o] &= !(1 << i);
                grants.list[grants.len as usize] = (i as u8, self.slot[i], o as u8);
                grants.len += 1;
            }
        }
        grants
    }
}

/// Stage 2's winners in grant order (ascending output port; the Local
/// port's in arbitration order). Each input wins at most once, so five
/// entries always suffice.
#[derive(Debug, Clone, Copy, Default)]
pub struct Grants {
    list: [Grant; PORTS],
    len: u8,
}

impl Grants {
    /// The grants made, in order.
    #[inline]
    pub fn as_slice(&self) -> &[Grant] {
        &self.list[..self.len as usize]
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
    fn an_arbiter_is_four_bytes_present_or_absent() {
        use std::mem::size_of;
        assert_eq!(size_of::<RoundRobin>(), 4);
        assert_eq!(size_of::<Option<RoundRobin>>(), 4);
        let mut arb = RoundRobin::new(u16::MAX as usize);
        arb.set_cursor(u16::MAX as usize - 1);
        assert_eq!(arb.grant(|i| i == 0), Some(0));
        assert_eq!(arb.cursor(), 1);
    }

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
        let mut arb = RoundRobin::new(64);
        arb.set_cursor(63);
        assert_eq!(arb.grant(|i| i == 63), Some(63));
        assert_eq!(arb.grant(|i| i == 0), Some(0));
    }

    /// The per-router stage-2 loop both buffered routers ran before
    /// [`Nominations::grant`]: every present output in `PortId::ALL` order,
    /// Local up to the ejection bandwidth, winners pushed to a `Vec`.
    fn reference_stage2(
        candidates: &mut PortMap<Option<(usize, PortId)>>,
        output_arb: &mut PortMap<RoundRobin>,
        present: u8,
        eject_bandwidth: usize,
    ) -> Vec<(PortId, usize, PortId)> {
        let mut requests = [0u64; PORTS];
        for port in PortId::ALL {
            if let Some((_, route)) = candidates[port] {
                requests[route.index()] |= 1 << port.index();
            }
        }
        let mut winners = Vec::new();
        for out_port in PortId::ALL {
            let oi = out_port.index();
            if present >> oi & 1 == 0 {
                continue;
            }
            let grants = if out_port == PortId::Local {
                eject_bandwidth
            } else {
                1
            };
            for _ in 0..grants {
                let Some(i) = output_arb[out_port].grant_masked(requests[oi]) else {
                    break;
                };
                requests[oi] &= !(1u64 << i);
                let in_port = PortId::ALL[i];
                let (slot, _) = candidates[in_port].take().expect("granted candidate");
                winners.push((in_port, slot, out_port));
            }
        }
        winners
    }

    #[test]
    fn stage2_kernel_matches_the_per_router_loop() {
        use afc_netsim::rng::SimRng;
        let mut rng = SimRng::seed_from(0x5747);
        let mut arbs_a = PortMap::from_fn(|_| RoundRobin::new(PORTS));
        let mut arbs_b = arbs_a.clone();
        let mut local_multi = 0;
        for case in 0..20_000 {
            // A random cursor state every few cases, kept otherwise so the
            // rotation history carries across grants.
            if case % 7 == 0 {
                for p in PortId::ALL {
                    let c = rng.gen_index(PORTS);
                    arbs_a[p].set_cursor(c);
                    arbs_b[p].set_cursor(c);
                }
            }
            let present = (rng.gen_index(16) as u8) | 1 << LOCAL;
            let eject_bandwidth = 1 + rng.gen_index(3);
            let mut noms = Nominations::default();
            let mut candidates: PortMap<Option<(usize, PortId)>> = PortMap::default();
            for input in 0..PORTS {
                if rng.gen_bool(0.6) {
                    let (slot, output) = (rng.gen_index(64), rng.gen_index(PORTS));
                    noms.nominate(input, slot, output);
                    candidates[PortId::ALL[input]] = Some((slot, PortId::ALL[output]));
                }
            }
            let nominated = candidates.iter().any(|(_, c)| c.is_some());
            assert_eq!(noms.is_empty(), !nominated, "case {case}");
            let want = reference_stage2(&mut candidates, &mut arbs_b, present, eject_bandwidth);
            let got: Vec<_> = noms
                .grant(&mut arbs_a, present, eject_bandwidth)
                .as_slice()
                .iter()
                .map(|&(i, s, o)| (PortId::ALL[i as usize], s as usize, PortId::ALL[o as usize]))
                .collect();
            assert_eq!(got, want, "case {case}: winners");
            for p in PortId::ALL {
                assert_eq!(
                    arbs_a[p].cursor(),
                    arbs_b[p].cursor(),
                    "case {case}: {p} cursor"
                );
            }
            local_multi += (want.iter().filter(|w| w.2 == PortId::Local).count() > 1) as u32;
        }
        assert!(
            local_multi > 100,
            "Local multi-grant exercised {local_multi} times"
        );
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
