//! The frozen reference kernel every timed region is divided by.
//!
//! A self-contained mini-mesh stepper: per-node input rings, XY routing,
//! rotating-priority arbitration, one flit per output per cycle. It shares
//! no code with the simulator but stresses the host the same way (rings
//! walked with data-dependent branches), so whatever the shared VM does to
//! a simulation segment it does to the call right before and right after
//! it in nearly the same proportion.
//!
//! It comes in two sizes of the one algorithm, and a workload is divided by
//! the size whose working set lies on the same side of the host's L2 as its
//! own ([`RefKernel::for_nodes`]). The defining host has two kinds of
//! turbulence and a calibrator cancels only what it shares with the case:
//!
//! - clock episodes (tens of seconds at a ~27% higher core clock): cache-
//!   resident code (the 8x8, 3x3 and 16x16 cases, the small kernel, a pure
//!   ALU loop) gets ~21% faster, the 5 MB kernel ~10%, the 32x32 cases ~0%;
//! - cache and memory contention from neighbours: an ALU loop sees none of
//!   it, both kernels +16-30%, the cases +10-40%.
//!
//! Measured in the same runs (ten seeds, 24 s): dividing `mesh8_sat` by the
//! small instead of the large kernel took the spread of `wall_s` from 2.8%
//! to 1.8% and its range from 18% to 4% (one run fell into a clock
//! episode); `paper_sweep` 3.2% to 2.2%, range 10% to 5%. For the 32x32
//! cases the large kernel is the best of six calibrators tried (residual
//! 3% against 4-5% for the small one, a 21 MB one and a pointer chase).
//!
//! FROZEN: the kernels define the unit every reported second is expressed
//! in. Editing anything here (sizes, nominal times, the rule) is a new
//! benchmark version and must be its own `benchmark` PR;
//! `checksums_are_pinned` fails on any behavioural change.

use std::time::Instant;

/// Meshes from this many nodes on (the 32x32 cases, ~11 MB a network) are
/// divided by the large kernel, smaller ones by the small kernel.
const LARGE_FROM_NODES: usize = 1024;

const PORTS: usize = 5; // N, E, S, W, local
const LOCAL: usize = 4;
const DEPTH: usize = 32; // flits per input ring

/// Reusable kernel state; allocate once, outside any measured region.
pub struct RefKernel {
    /// log2 of the mesh side.
    shift: u32,
    cycles: u64,
    /// Checksum of one call; pinned by `checksums_are_pinned`.
    checksum: u64,
    /// Calm-host time of one call on the host the benchmark was defined on.
    /// A sample is `t_region / t_ref * nominal_s`, so reported values read
    /// as seconds of that calm host.
    pub nominal_s: f64,
    ring: Vec<u64>,
    head: Vec<u8>,
    len: Vec<u8>,
}

impl RefKernel {
    fn new(shift: u32, cycles: u64, checksum: u64, nominal_s: f64) -> RefKernel {
        let queues = (1usize << (2 * shift)) * PORTS;
        RefKernel {
            shift,
            cycles,
            checksum,
            nominal_s,
            ring: vec![0; queues * DEPTH],
            head: vec![0; queues],
            len: vec![0; queues],
        }
    }

    /// 16x16 nodes for 1024 cycles: 0.3 MB, cache-resident.
    pub fn small() -> RefKernel {
        RefKernel::new(4, 1024, SMALL_CHECKSUM, 0.037)
    }

    /// 64x64 nodes for 64 cycles: 5 MB, beyond L2.
    pub fn large() -> RefKernel {
        RefKernel::new(6, 64, LARGE_CHECKSUM, 0.035)
    }

    /// The kernel for a workload whose largest mesh has `nodes` nodes.
    pub fn for_nodes(nodes: usize) -> RefKernel {
        if nodes >= LARGE_FROM_NODES {
            RefKernel::large()
        } else {
            RefKernel::small()
        }
    }

    /// Runs the fixed workload from a reset state and returns its checksum.
    pub fn run(&mut self) -> u64 {
        let w = 1usize << self.shift;
        let (nodes, mask) = (w * w, w - 1);
        self.head.fill(0);
        self.len.fill(0);
        let (mut rng, mut sum) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for cycle in 0..self.cycles {
            for n in 0..nodes {
                // Bernoulli(3/8) injection of a flit to a random destination.
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (rng >> 61) < 3 {
                    self.push(
                        n * PORTS + LOCAL,
                        ((rng >> 20) & (nodes as u64 - 1)) | (cycle << 12),
                    );
                }
                for out in 0..PORTS {
                    let dest_q = match out {
                        0 if n >= w => (n - w) * PORTS + 2,
                        1 if n & mask < mask => (n + 1) * PORTS + 3,
                        2 if n < nodes - w => (n + w) * PORTS,
                        3 if n & mask > 0 => (n - 1) * PORTS + 1,
                        LOCAL => usize::MAX,
                        _ => continue,
                    };
                    if dest_q != usize::MAX && self.len[dest_q] as usize == DEPTH {
                        continue;
                    }
                    for k in 0..PORTS {
                        let q = n * PORTS + (k + cycle as usize + n) % PORTS;
                        if self.len[q] == 0 {
                            continue;
                        }
                        let flit = self.ring[q * DEPTH + self.head[q] as usize];
                        if self.route(n, (flit & 0xFFF) as usize) != out {
                            continue;
                        }
                        self.head[q] = (self.head[q] + 1) % DEPTH as u8;
                        self.len[q] -= 1;
                        if out == LOCAL {
                            sum = sum.rotate_left(5) ^ flit ^ cycle;
                        } else {
                            self.push(dest_q, flit);
                        }
                        break;
                    }
                }
            }
        }
        sum
    }

    /// XY dimension-order route from `n` towards `dest`.
    fn route(&self, n: usize, dest: usize) -> usize {
        let mask = (1usize << self.shift) - 1;
        let (x, y, dx, dy) = (n & mask, n >> self.shift, dest & mask, dest >> self.shift);
        if dx > x {
            1
        } else if dx < x {
            3
        } else if dy > y {
            2
        } else if dy < y {
            0
        } else {
            LOCAL
        }
    }

    fn push(&mut self, q: usize, flit: u64) {
        if (self.len[q] as usize) < DEPTH {
            let slot = (self.head[q] as usize + self.len[q] as usize) % DEPTH;
            self.ring[q * DEPTH + slot] = flit;
            self.len[q] += 1;
        }
    }

    /// One timed call, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the checksum is not the pinned one: the unit of
    /// measurement would silently have changed.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let sum = std::hint::black_box(self.run());
        let s = t.elapsed().as_secs_f64();
        assert_eq!(sum, self.checksum, "reference kernel checksum drifted");
        s
    }
}

const SMALL_CHECKSUM: u64 = 0xFC42_4641_2501_0DA9;
const LARGE_CHECKSUM: u64 = 0xC380_5547_A493_992F;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksums_are_pinned() {
        for mut k in [RefKernel::small(), RefKernel::large()] {
            assert_eq!(k.run(), k.checksum);
            // Reset-per-call: a second call does the identical work.
            assert_eq!(k.run(), k.checksum);
        }
    }

    #[test]
    fn kernel_follows_the_mesh_size() {
        assert_eq!(RefKernel::for_nodes(9).shift, 4);
        assert_eq!(RefKernel::for_nodes(16 * 16).shift, 4);
        assert_eq!(RefKernel::for_nodes(32 * 32).shift, 6);
    }
}
