//! Open-loop request arrival generation.
//!
//! The paper uses an open-loop load generator — the client issues requests
//! at trace-derived rates regardless of server progress — with an average
//! load of 65–250 requests per second per Primary-VM core, and reports
//! latency over 100 K invocations across all Primary VMs (Section 5). The
//! generator here reproduces that traffic's millisecond-scale burstiness
//! with a two-state Markov-modulated Poisson process (MMPP).

use hh_sim::{Cycles, Exponential, Rng64};

/// An open-loop arrival-time generator for one VM's request stream.
///
/// Arrivals are Poisson at a rate that alternates between a normal state
/// and short high-rate bursts, like production microservice traffic.
///
/// # Example
///
/// ```
/// use hh_workload::LoadGen;
///
/// let mut lg = LoadGen::bursty(1000.0, 5.0, 30.0, 0.06, 77);
/// let t1 = lg.next_arrival();
/// let t2 = lg.next_arrival();
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone)]
pub struct LoadGen {
    /// Arrival rate in requests/second in the normal state.
    base_rps: f64,
    burst: BurstModel,
    rng: Rng64,
    now: Cycles,
}

/// Two-state MMPP burst model: arrivals alternate between a normal state
/// and short high-rate bursts.
#[derive(Debug, Clone, Copy)]
struct BurstModel {
    /// Rate multiplier during a burst.
    factor: f64,
    /// Mean burst duration.
    burst_len: Cycles,
    /// Mean normal-state duration.
    normal_len: Cycles,
    /// Current state ends at this instant.
    state_until: Cycles,
    /// Currently bursting?
    bursting: bool,
}

impl LoadGen {
    /// Bursty arrivals (two-state MMPP): short bursts at `factor ×` the
    /// normal rate, with mean burst length `burst_ms` covering
    /// `burst_frac` of the time. The long-run average rate is `avg_rps` —
    /// this models the millisecond-scale burstiness of real microservice
    /// traffic that makes core reclamation latency so visible in the tail.
    ///
    /// # Panics
    /// Panics unless `avg_rps > 0`, `factor > 1`, `burst_ms > 0` and
    /// `burst_frac` in `(0, 0.5]`.
    pub fn bursty(avg_rps: f64, factor: f64, burst_ms: f64, burst_frac: f64, seed: u64) -> Self {
        assert!(avg_rps > 0.0, "rate must be positive");
        assert!(factor > 1.0, "burst factor must exceed 1");
        assert!(burst_ms > 0.0 && burst_frac > 0.0 && burst_frac <= 0.5);
        // Solve the base rate so the time-average equals avg_rps.
        let base = avg_rps / (1.0 - burst_frac + burst_frac * factor);
        let burst_len = Cycles::from_ms(burst_ms);
        let normal_len = Cycles::from_ms(burst_ms * (1.0 - burst_frac) / burst_frac);
        LoadGen {
            base_rps: base,
            burst: BurstModel {
                factor,
                burst_len,
                normal_len,
                state_until: Cycles::ZERO,
                bursting: true, // flips to normal at t=0
            },
            rng: Rng64::new(seed),
            now: Cycles::ZERO,
        }
    }

    /// Absolute time of the next arrival (strictly increasing).
    pub fn next_arrival(&mut self) -> Cycles {
        // Advance the burst state machine past `now`.
        let b = &mut self.burst;
        while self.now >= b.state_until {
            b.bursting = !b.bursting;
            let mean = if b.bursting {
                b.burst_len
            } else {
                b.normal_len
            };
            let sojourn = Exponential::with_mean(mean.as_u64() as f64).sample(&mut self.rng);
            b.state_until += Cycles::new((sojourn as u64).max(1));
        }
        // Thinning-free approach: sample the gap at the rate in effect at
        // the current instant. A burst that starts mid-gap waits for that
        // gap to end, so the long-run rate runs below `avg_rps` when gaps
        // are not short next to a burst (~4 % low at 120 RPS).
        let rate = if b.bursting {
            self.base_rps * b.factor
        } else {
            self.base_rps
        };
        let gap_s = Exponential::new(rate).sample(&mut self.rng);
        let gap = Cycles::from_secs(gap_s).max(Cycles::new(1));
        self.now += gap;
        self.now
    }

    /// Generates exactly `n` arrivals, in order.
    pub fn take_arrivals(&mut self, n: usize) -> Vec<Cycles> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The MMPP parameters `ServerSim` drives every Primary VM with.
    fn server_like(avg_rps: f64, seed: u64) -> LoadGen {
        LoadGen::bursty(avg_rps, 5.0, 30.0, 0.06, seed)
    }

    #[test]
    fn poisson_rate_converges() {
        // The MMPP is Poisson within each state, and its long-run rate
        // converges to `avg_rps`. ~500 s of arrivals spans ~1000 burst
        // cycles. Each gap is drawn at the rate in effect when it starts,
        // so a burst begins only after the normal-state gap in flight
        // ends; at 200 RPS that costs a few percent of the long-run rate.
        let mut lg = server_like(200.0, 1);
        let arrivals = lg.take_arrivals(100_000);
        let rate = 100_000.0 / arrivals.last().unwrap().as_secs();
        assert!((rate / 200.0 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut lg = server_like(10_000.0, 2);
        let arrivals = lg.take_arrivals(1_000);
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn bursts_overdisperse_arrival_counts() {
        // Count arrivals per 30 ms window (one mean burst). A plain Poisson
        // stream has variance/mean ≈ 1; 5x bursts push it far above.
        let mut lg = server_like(800.0, 5);
        let arrivals = lg.take_arrivals(40_000);
        let window = Cycles::from_ms(30.0).as_u64();
        let mut counts = vec![0u32; (arrivals.last().unwrap().as_u64() / window) as usize];
        for a in &arrivals {
            if let Some(c) = counts.get_mut((a.as_u64() / window) as usize) {
                *c += 1;
            }
        }
        let n = counts.len() as f64;
        let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / n;
        let var = counts
            .iter()
            .map(|&c| (f64::from(c) - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(var / mean > 3.0, "dispersion {:.2}", var / mean);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        server_like(0.0, 1);
    }
}
