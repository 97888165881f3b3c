//! Host-speed calibration interleaved with the timed work.
//!
//! On a shared machine the speed of the same code drifts by 15–30% in
//! phases lasting from seconds to minutes, as other tenants come and go
//! on the cores and the last-level cache the benchmark runs on. A
//! compute-only loop barely notices those phases; allocation- and
//! pointer-heavy code such as the service's event loop slows through
//! them. So the benchmark interleaves a fixed, std-only kernel of the
//! same kind (insert/remove churn on a `BTreeMap`) with the timed work,
//! a chunk at a time, and states the work's host time in *reference
//! seconds*: host seconds scaled by how much slower than
//! [`REFERENCE_CHUNK_S`] the kernel ran at the same moments. The kernel
//! uses none of the repository's code, so a change to the program moves
//! the reference time exactly as it moves the host time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time spent on calibration, as a share of the timed work.
pub const CALIBRATION_SHARE: f64 = 0.25;

/// What one calibration chunk took on the 2-core Xeon the benchmark was
/// tuned on, in seconds: the unit of a reference second.
pub const REFERENCE_CHUNK_S: f64 = 850e-6;

/// Map operations in one calibration chunk.
const CHUNK_OPS: u64 = 4_000;

/// Key range of the calibration map.
const CHUNK_KEYS: u64 = 20_000;

/// Timed work and the calibration interleaved with it.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostSpeed {
    work: Duration,
    calibration: Duration,
    chunks: u64,
}

impl HostSpeed {
    /// Nothing timed yet.
    pub fn new() -> HostSpeed {
        HostSpeed::default()
    }

    /// Adds `work` to the timed total, then runs calibration chunks
    /// until they have taken [`CALIBRATION_SHARE`] of it.
    pub fn add_work(&mut self, work: Duration) {
        self.work += work;
        while self.calibration.as_secs_f64() < CALIBRATION_SHARE * self.work.as_secs_f64() {
            let start = Instant::now();
            black_box(chunk(self.chunks));
            self.calibration += start.elapsed();
            self.chunks += 1;
        }
    }

    /// Host seconds of timed work.
    pub fn work_s(&self) -> f64 {
        self.work.as_secs_f64()
    }

    /// How fast the host ran the calibration kernel, relative to the
    /// reference (above 1 is faster). 1 when no chunk has run.
    pub fn speed(&self) -> f64 {
        if self.chunks == 0 {
            return 1.0;
        }
        REFERENCE_CHUNK_S * self.chunks as f64 / self.calibration.as_secs_f64()
    }

    /// The timed work in reference seconds: host seconds times
    /// [`HostSpeed::speed`].
    pub fn reference_s(&self) -> f64 {
        self.work_s() * self.speed()
    }
}

/// One calibration chunk: a deterministic mix of inserts and removes on
/// a fresh map, varied by `index` so no two chunks are the same.
fn chunk(index: u64) -> usize {
    let mut map = BTreeMap::new();
    let mut x = 0x2545_F491_4F6C_DD1D ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for op in 0..CHUNK_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % CHUNK_KEYS, op);
        if op % 2 == 0 {
            map.remove(&(x.wrapping_mul(31) % CHUNK_KEYS));
        }
    }
    map.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_takes_its_share_and_scales_the_work() {
        let mut host = HostSpeed::new();
        assert_eq!(host.speed(), 1.0);
        host.add_work(Duration::from_millis(8));
        assert!(host.chunks > 0);
        assert!(host.calibration.as_secs_f64() >= CALIBRATION_SHARE * 0.008);
        assert!(host.speed() > 0.0 && host.speed().is_finite());
        assert_eq!(host.reference_s(), host.work_s() * host.speed());
    }
}
