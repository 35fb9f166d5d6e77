//! Local contention measurement: the first of AFC's three mechanisms.
//!
//! Each router measures its own traffic intensity — the number of flits
//! traversing it per cycle, averaged over the previous `W` cycles (paper:
//! 4) and smoothed with an EWMA (paper weight: 0.99). The smoothed value is
//! compared against the class-scaled forward/reverse thresholds; the two
//! thresholds form a hysteresis band that prevents mode thrashing when load
//! hovers near a single threshold (Section III-C).

use afc_netsim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use afc_netsim::stats::{Ewma, SlidingWindow};

/// The verdict of a threshold comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadLevel {
    /// Above the forward threshold: backpressured mode is warranted.
    High,
    /// Below the reverse threshold: backpressureless mode is warranted.
    Low,
    /// Inside the hysteresis band: keep the current mode.
    Between,
}

/// Sliding-window + EWMA traffic-intensity monitor with hysteresis
/// thresholds.
///
/// # Examples
///
/// ```
/// use afc_core::contention::{ContentionMonitor, LoadLevel};
///
/// let mut m = ContentionMonitor::new(2.2, 1.7, 0.9, 4);
/// for _ in 0..200 { m.record_cycle(4); } // sustained heavy traffic
/// assert_eq!(m.level(), LoadLevel::High);
/// for _ in 0..200 { m.record_cycle(0); } // network goes quiet
/// assert_eq!(m.level(), LoadLevel::Low);
/// ```
#[derive(Debug, Clone)]
pub struct ContentionMonitor {
    forward_threshold: f64,
    reverse_threshold: f64,
    window: SlidingWindow,
    ewma: Ewma,
}

impl ContentionMonitor {
    /// Creates a monitor.
    ///
    /// # Panics
    ///
    /// Panics if `forward <= reverse`, the EWMA weight is outside `[0, 1)`,
    /// or the window is empty.
    pub fn new(forward: f64, reverse: f64, ewma_weight: f64, window: usize) -> ContentionMonitor {
        assert!(
            forward > reverse,
            "hysteresis requires forward > reverse threshold"
        );
        ContentionMonitor {
            forward_threshold: forward,
            reverse_threshold: reverse,
            window: SlidingWindow::new(window),
            ewma: Ewma::new(ewma_weight),
        }
    }

    /// Records the flit count observed this cycle and updates the smoothed
    /// load estimate.
    pub fn record_cycle(&mut self, flits: u32) {
        self.window.push(flits);
        self.ewma.update(self.window.mean());
    }

    /// Current smoothed traffic intensity (flits per cycle).
    pub fn load(&self) -> f64 {
        self.ewma.value()
    }

    /// Position of the current load relative to the hysteresis band.
    pub fn level(&self) -> LoadLevel {
        let l = self.load();
        if l > self.forward_threshold {
            LoadLevel::High
        } else if l < self.reverse_threshold {
            LoadLevel::Low
        } else {
            LoadLevel::Between
        }
    }

    /// The (forward, reverse) thresholds.
    pub fn thresholds(&self) -> (f64, f64) {
        (self.forward_threshold, self.reverse_threshold)
    }

    /// Whether the monitor can replay idle cycles in bulk: every window
    /// slot is zero, so `count` idle cycles only rotate the window cursor
    /// and decay the EWMA ([`ContentionMonitor::skip_idle`]). A window
    /// still holding nonzero samples must be stepped cycle by cycle (its
    /// mean — and thus the EWMA trajectory — changes as they evict).
    pub fn is_idle_replayable(&self) -> bool {
        self.window.is_all_zero()
    }

    /// Folds `count` idle cycles into the monitor, bit-identical to
    /// `count` calls of `record_cycle(0)`.
    ///
    /// Requires [`ContentionMonitor::is_idle_replayable`] (debug-checked
    /// inside the window/EWMA helpers).
    pub fn skip_idle(&mut self, count: u64) {
        self.window.skip_zero(count);
        self.ewma.decay_zero(count);
    }
}

/// The mutable measurement state (window + EWMA); thresholds are
/// configuration and stay with the constructor.
impl Codec for ContentionMonitor {
    fn put(&self, w: &mut SnapshotWriter) {
        self.window.put(w);
        self.ewma.put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.window.load(r)?;
        self.ewma.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_monitor() -> ContentionMonitor {
        ContentionMonitor::new(2.2, 1.7, 0.99, 4)
    }

    #[test]
    fn starts_low() {
        let m = paper_monitor();
        assert_eq!(m.level(), LoadLevel::Low);
        assert_eq!(m.load(), 0.0);
    }

    #[test]
    fn sustained_high_load_crosses_forward_threshold() {
        let mut m = paper_monitor();
        for _ in 0..1500 {
            m.record_cycle(4);
        }
        assert_eq!(m.level(), LoadLevel::High);
        assert!(m.load() > 2.2);
    }

    #[test]
    fn transient_burst_is_smoothed_away() {
        let mut m = paper_monitor();
        // Moderate background, brief burst: EWMA(0.99) should not cross the
        // forward threshold from a 10-cycle spike.
        for _ in 0..500 {
            m.record_cycle(1);
        }
        for _ in 0..10 {
            m.record_cycle(5);
        }
        assert_ne!(m.level(), LoadLevel::High, "burst must not trigger switch");
    }

    #[test]
    fn hysteresis_band_reports_between() {
        let mut m = paper_monitor();
        for _ in 0..3000 {
            m.record_cycle(2); // 2.0 lies between 1.7 and 2.2
        }
        assert_eq!(m.level(), LoadLevel::Between);
    }

    #[test]
    fn load_decays_when_traffic_stops() {
        let mut m = paper_monitor();
        for _ in 0..1500 {
            m.record_cycle(4);
        }
        assert_eq!(m.level(), LoadLevel::High);
        let peak = m.load();
        for _ in 0..1500 {
            m.record_cycle(0);
        }
        assert!(m.load() < peak * 0.01);
        assert_eq!(m.level(), LoadLevel::Low);
    }

    #[test]
    fn window_averages_recent_cycles() {
        // With weight 0 the EWMA equals the window mean directly.
        let mut m = ContentionMonitor::new(2.0, 1.0, 0.0, 4);
        m.record_cycle(4);
        m.record_cycle(0);
        m.record_cycle(0);
        m.record_cycle(4);
        assert!((m.load() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "forward > reverse")]
    fn rejects_inverted_thresholds() {
        let _ = ContentionMonitor::new(1.0, 2.0, 0.99, 4);
    }

    #[test]
    fn skip_idle_is_bit_identical_to_zero_records() {
        // Load the monitor, flush the window with 4 idle cycles, then
        // compare bulk skip vs. cycle-by-cycle replay at several horizons
        // (including past the underflow-to-zero fixed point).
        for skip in [1u64, 3, 17, 1000, 200_000] {
            let mut a = paper_monitor();
            for _ in 0..50 {
                a.record_cycle(3);
            }
            for _ in 0..4 {
                a.record_cycle(0);
            }
            let mut b = a.clone();
            assert!(a.is_idle_replayable());
            a.skip_idle(skip);
            for _ in 0..skip {
                b.record_cycle(0);
            }
            assert_eq!(a.load().to_bits(), b.load().to_bits(), "skip={skip}");
            // Subsequent traffic must evolve identically too.
            for s in [2u32, 5, 0, 1] {
                a.record_cycle(s);
                b.record_cycle(s);
            }
            assert_eq!(a.load().to_bits(), b.load().to_bits(), "skip={skip}");
        }
    }
}
