//! Host-speed calibration.
//!
//! The shared two-vCPU host this benchmark was built on drifts in speed by
//! up to ±25% over tens of seconds as other tenants load its physical
//! cores: the same sweep at the same seed read 0.47M and 0.75M records/s a
//! few minutes apart. That swamps any speed-up a code change could show, so
//! every host time the benchmark reports is divided by the host's slowness at
//! the moment it was measured. Slowness comes from a fixed kernel run just before
//! and just after the timed work: a self-contained 8-way set-associative
//! cache model fed a mixed stride/random line stream. It is the same kind of
//! work as the simulator's hot path, but no change to the repository can
//! touch it. At the reference speed the slowness is 1 and calibrated times
//! equal raw ones; the report prints the raw figures beside the calibrated
//! ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Line accesses per kernel run; a reading takes three runs, about 8 ms in
/// all at the reference speed.
const KERNEL_ACCESSES: u64 = 166_667;

/// Kernel seconds at the reference speed: the fast phase of the two-vCPU
/// shared host the benchmark was tuned on.
const REFERENCE_SECS: f64 = 0.0080;

const WAYS: usize = 8;
const SETS: usize = 4096;

/// A kernel reading taken within this long of the next timed work brackets
/// it too, so back-to-back timings share one reading.
const REUSE: Duration = Duration::from_millis(20);

/// Measures host slowness around timed work.
pub struct Calibrator {
    tags: Vec<u64>,
    ages: Vec<u32>,
    clock: u32,
    state: u64,
    stride: u64,
    last: Option<(Instant, f64)>,
    /// Every slowness reading taken, for the report.
    pub readings: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with its cache model warmed by one untimed run.
    #[must_use]
    pub fn new() -> Self {
        let mut calibrator = Self {
            tags: vec![u64::MAX; WAYS * SETS],
            ages: vec![0; WAYS * SETS],
            clock: 0,
            state: 0x9e37_79b9_7f4a_7c15,
            stride: 0,
            last: None,
            readings: Vec::new(),
        };
        calibrator.kernel();
        calibrator
    }

    /// One kernel run; returns its host seconds.
    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mut hits = 0u64;
        for i in 0..KERNEL_ACCESSES {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let line = if self.state & 3 == 0 {
                self.state >> 40
            } else {
                self.stride += 1 + (i & 1);
                self.stride & 0xf_ffff
            };
            hits += u64::from(self.access(line));
        }
        black_box(hits);
        start.elapsed().as_secs_f64()
    }

    /// One LRU lookup-or-fill; returns whether it hit.
    fn access(&mut self, line: u64) -> bool {
        self.clock = self.clock.wrapping_add(1);
        let base = (line as usize & (SETS - 1)) * WAYS;
        let mut victim = base;
        let mut oldest = u32::MAX;
        for way in base..base + WAYS {
            if self.tags[way] == line {
                self.ages[way] = self.clock;
                return true;
            }
            if self.ages[way] < oldest {
                oldest = self.ages[way];
                victim = way;
            }
        }
        self.tags[victim] = line;
        self.ages[victim] = self.clock;
        false
    }

    /// Host slowness now (1 = reference speed), reusing a reading taken
    /// within [`REUSE`].
    fn slowness(&mut self) -> f64 {
        if let Some((at, slowness)) = self.last {
            if at.elapsed() < REUSE {
                return slowness;
            }
        }
        // The median of three thirds shrugs off one preempted slice.
        let mut thirds = [self.kernel(), self.kernel(), self.kernel()];
        thirds.sort_by(f64::total_cmp);
        let slowness = 3.0 * thirds[1] / REFERENCE_SECS;
        self.readings.push(slowness);
        self.last = Some((Instant::now(), slowness));
        slowness
    }

    /// Runs `f` between two slowness readings; returns its result and the
    /// mean slowness over it. Divide `f`'s host times by the slowness.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.slowness();
        let result = f();
        self.last = None;
        let after = self.slowness();
        (result, (before + after) / 2.0)
    }

    /// Host seconds of `f`, raw and calibrated.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let ((result, raw), slowness) = self.bracket(|| {
            let start = Instant::now();
            let result = f();
            (result, start.elapsed().as_secs_f64())
        });
        (result, Timing { raw, calibrated: raw / slowness })
    }
}

/// One timing, raw and divided by the host's slowness.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw: f64,
    pub calibrated: f64,
}
