// analysis-as: crates/core/src/fixture_clock.rs
// Fixture: wall-clock sources leaking into a simulator path. Both the
// import and the use sites must fire `virtual-time`.

use std::time::{Instant, SystemTime};

fn leak() -> u128 {
    let t0 = Instant::now();
    let _epoch = SystemTime::now();
    t0.elapsed().as_nanos()
}
