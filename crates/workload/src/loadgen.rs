//! Open-loop request arrival generation.
//!
//! The paper uses an open-loop load generator — the client issues requests
//! at trace-derived rates regardless of server progress — with an average
//! load of 65–250 requests per second per Primary-VM core, and reports
//! latency over 100 K invocations across all Primary VMs (Section 5).

use hh_sim::{Cycles, Exponential, Rng64};

use crate::trace::UtilizationTrace;

/// An open-loop arrival-time generator for one VM's request stream.
///
/// Arrivals are Poisson with a rate modulated by an Alibaba-style
/// utilization trace, so low-utilization periods alternate with bursts just
/// like production load.
///
/// # Example
///
/// ```
/// use hh_sim::{Cycles, Rng64};
/// use hh_workload::LoadGen;
///
/// let mut lg = LoadGen::poisson(1000.0, 77);
/// let t1 = lg.next_arrival();
/// let t2 = lg.next_arrival();
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone)]
pub struct LoadGen {
    /// Mean arrival rate in requests/second at trace utilization 1.0
    /// (scaled down by the instantaneous trace value).
    peak_rps: f64,
    trace: Option<UtilizationTrace>,
    /// Millisecond-scale burstiness (Markov-modulated Poisson), if any.
    burst: Option<BurstModel>,
    rng: Rng64,
    now: Cycles,
}

/// Two-state MMPP burst model: arrivals alternate between a normal state
/// and short high-rate bursts, like real microservice traffic.
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
    /// Constant-rate Poisson arrivals at `rps` requests per second.
    ///
    /// # Panics
    /// Panics if `rps` is not strictly positive.
    pub fn poisson(rps: f64, seed: u64) -> Self {
        assert!(rps > 0.0, "rate must be positive");
        LoadGen {
            peak_rps: rps,
            trace: None,
            burst: None,
            rng: Rng64::new(seed),
            now: Cycles::ZERO,
        }
    }

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
            peak_rps: base,
            trace: None,
            burst: Some(BurstModel {
                factor,
                burst_len,
                normal_len,
                state_until: Cycles::ZERO,
                bursting: true, // flips to normal at t=0
            }),
            rng: Rng64::new(seed),
            now: Cycles::ZERO,
        }
    }

    /// Trace-modulated arrivals: the instantaneous rate is
    /// `peak_rps × trace.at(t) / trace.average()`, preserving `peak_rps`
    /// as the long-run average while keeping the trace's bursts.
    ///
    /// # Panics
    /// Panics if `avg_rps` is not strictly positive or the trace is idle.
    pub fn from_trace(avg_rps: f64, trace: UtilizationTrace, seed: u64) -> Self {
        assert!(avg_rps > 0.0, "rate must be positive");
        assert!(trace.average() > 0.0, "trace never active");
        LoadGen {
            peak_rps: avg_rps / trace.average(),
            trace: Some(trace),
            burst: None,
            rng: Rng64::new(seed),
            now: Cycles::ZERO,
        }
    }

    /// Absolute time of the next arrival (strictly increasing).
    pub fn next_arrival(&mut self) -> Cycles {
        // Advance the burst state machine past `now`.
        if let Some(b) = &mut self.burst {
            while self.now >= b.state_until {
                b.bursting = !b.bursting;
                let mean = if b.bursting { b.burst_len } else { b.normal_len };
                let sojourn =
                    Exponential::with_mean(mean.as_u64() as f64).sample(&mut self.rng);
                b.state_until += Cycles::new((sojourn as u64).max(1));
            }
        }
        // Thinning-free approach: sample the gap at the rate in effect at
        // the current instant; state changes are slow relative to
        // inter-arrival gaps, so the approximation is tight.
        let mut rate = match &self.trace {
            Some(t) => (self.peak_rps * t.at(self.now)).max(self.peak_rps * 0.02),
            None => self.peak_rps,
        };
        if let Some(b) = &self.burst {
            if b.bursting {
                rate *= b.factor;
            }
        }
        let gap_s = Exponential::new(rate).sample(&mut self.rng);
        let gap = Cycles::from_secs(gap_s).max(Cycles::new(1));
        self.now += gap;
        self.now
    }

    /// Generates all arrivals up to `horizon`, in order.
    pub fn arrivals_until(&mut self, horizon: Cycles) -> Vec<Cycles> {
        let mut out = Vec::new();
        loop {
            let t = self.next_arrival();
            if t > horizon {
                break;
            }
            out.push(t);
        }
        out
    }

    /// Generates exactly `n` arrivals, in order.
    pub fn take_arrivals(&mut self, n: usize) -> Vec<Cycles> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::UtilizationTrace;

    #[test]
    fn poisson_rate_converges() {
        let mut lg = LoadGen::poisson(200.0, 1);
        let arrivals = lg.take_arrivals(5_000);
        let span_s = arrivals.last().unwrap().as_secs();
        let rate = 5_000.0 / span_s;
        assert!((rate / 200.0 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut lg = LoadGen::poisson(10_000.0, 2);
        let arrivals = lg.take_arrivals(1_000);
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn arrivals_until_respects_horizon() {
        let mut lg = LoadGen::poisson(1_000.0, 3);
        let horizon = Cycles::from_secs(0.5);
        let arrivals = lg.arrivals_until(horizon);
        assert!(!arrivals.is_empty());
        assert!(arrivals.iter().all(|&t| t <= horizon));
        let expected = 500.0;
        let got = arrivals.len() as f64;
        assert!((got / expected - 1.0).abs() < 0.2, "got {got}");
    }

    #[test]
    fn trace_modulation_preserves_average_rate() {
        let mut rng = Rng64::new(9);
        let trace = UtilizationTrace::synthesize(50, &mut rng);
        let mut lg = LoadGen::from_trace(150.0, trace, 4);
        // Run long enough to cover many 30 s trace periods.
        let arrivals = lg.take_arrivals(60_000);
        let span_s = arrivals.last().unwrap().as_secs();
        let rate = 60_000.0 / span_s;
        assert!(
            (rate / 150.0 - 1.0).abs() < 0.35,
            "long-run rate {rate} should approximate 150"
        );
    }

    #[test]
    fn trace_modulation_creates_bursts() {
        let mut rng = Rng64::new(11);
        let trace = UtilizationTrace::synthesize(50, &mut rng);
        let mut lg = LoadGen::from_trace(100.0, trace, 5);
        let horizon = Cycles::from_secs(600.0);
        let arrivals = lg.arrivals_until(horizon);
        // Count arrivals per 30 s bucket; bursts make the max bucket far
        // exceed the min bucket.
        let mut buckets = vec![0u32; 20];
        for a in &arrivals {
            let b = (a.as_secs() / 30.0) as usize;
            if b < buckets.len() {
                buckets[b] += 1;
            }
        }
        let max = *buckets.iter().max().unwrap() as f64;
        let min = *buckets.iter().min().unwrap() as f64;
        assert!(max > 1.5 * (min + 1.0), "buckets {buckets:?}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        LoadGen::poisson(0.0, 1);
    }
}
