// Fixture: host wall time. `Instant` and `SystemTime` are flagged however
// they are named; `Duration` and the simulator's own clock types are not.

use std::time::Duration;
use std::time::Instant; //~ disallowed_types
use std::time::SystemTime as Wall; //~ disallowed_types

pub fn measure() -> u128 {
    let t0 = Instant::now(); //~ disallowed_types
    t0.elapsed().as_nanos()
}

pub fn renamed() -> bool {
    let now = Wall::now(); //~ disallowed_types
    now.elapsed().is_ok()
}

pub fn qualified() -> bool {
    let t = std::time::Instant::now(); //~ disallowed_types
    let e = std::time::SystemTime::UNIX_EPOCH; //~ disallowed_types
    t.elapsed() > Duration::ZERO || e.elapsed().is_ok()
}

pub fn durations_are_fine(d: Duration) -> u128 {
    d.as_micros()
}

/// The simulator's own clock is not the host clock.
pub struct Instant2 {
    cycles: u64,
}

pub fn sim_clock(c: &Instant2) -> u64 {
    c.cycles
}

// Test code is not exempt: a timing test must say why with `expect`.
#[cfg(test)]
mod tests {
    #[test]
    fn timing_inside_tests_is_still_flagged() {
        let t0 = std::time::Instant::now(); //~ disallowed_types
        assert!(t0.elapsed().as_secs() < 60);
    }
}
