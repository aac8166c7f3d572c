//! Concrete request invocations.

use hh_sim::{Cycles, Rng64, VmId};
use serde::{Deserialize, Serialize};

use crate::{ServiceId, ServiceProfile, StreamSpec};

/// One compute phase of an invocation, followed (except after the last
/// phase) by a blocking RPC whose latency was sampled at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Pure compute cycles on warm microarchitectural state; memory stalls
    /// simulated from `stream` are added on top.
    pub compute: Cycles,
    /// The phase's memory reference stream.
    pub stream: StreamSpec,
    /// Blocking I/O time after this phase (network + backend), `None` for
    /// the final phase.
    pub io_after: Option<Cycles>,
}

/// A fully-specified microservice invocation, ready to execute.
///
/// # Example
///
/// ```
/// use hh_sim::{Rng64, VmId};
/// use hh_workload::{RequestPlan, ServiceCatalog, ServiceId};
///
/// let catalog = ServiceCatalog::socialnet();
/// let mut rng = Rng64::new(1);
/// let plan = RequestPlan::generate(
///     ServiceId(0),
///     catalog.get(ServiceId(0)),
///     VmId(0),
///     /* invocation */ 17,
///     &mut rng,
/// );
/// assert_eq!(plan.phases.len(), catalog.get(ServiceId(0)).io_calls + 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestPlan {
    /// Which service this invokes.
    pub service: ServiceId,
    /// Globally unique invocation number (drives private-page placement).
    pub invocation: u64,
    /// Executing VM.
    pub vm: VmId,
    /// The compute/I/O phase chain.
    pub phases: Vec<Phase>,
    /// Payload size in cache lines (DDIO deposit).
    pub payload_lines: u32,
}

impl RequestPlan {
    /// Samples one invocation of `profile`.
    pub fn generate(
        service: ServiceId,
        profile: &ServiceProfile,
        vm: VmId,
        invocation: u64,
        rng: &mut Rng64,
    ) -> Self {
        let phases = profile.phases();
        // Lognormal jitter around the profile compute time.
        let jitter = (profile.compute_sigma * rng.normal()).exp();
        let total_compute = Cycles::from_us(profile.compute_us * jitter);
        let per_phase = total_compute / phases as u64;

        // Reference count: cover the footprint roughly once per request,
        // spread across phases (the shared region is re-walked each phase,
        // private data belongs to the whole invocation).
        let footprint = profile.shared_lines() + profile.private_lines();
        let per_phase_accesses = ((footprint as f64 * 1.25) / phases as f64).ceil() as u32;

        let backend = profile.backend_dist();
        let mut out = Vec::with_capacity(phases);
        for p in 0..phases {
            let io_after = if p + 1 < phases {
                // Network RTT (1 µs) + profiled backend time.
                Some(Cycles::from_us(1.0 + backend.sample(rng)))
            } else {
                None
            };
            out.push(Phase {
                compute: per_phase,
                stream: StreamSpec {
                    vm,
                    shared_base: StreamSpec::shared_base_for(service.index()),
                    shared_lines: profile.shared_lines(),
                    private_base: StreamSpec::private_base_for(invocation),
                    private_lines: profile.private_lines(),
                    accesses: per_phase_accesses,
                    ifetch_frac: profile.ifetch_frac,
                    shared_data_frac: profile.shared_data_frac,
                    seed: invocation
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(p as u64),
                    uniform_private: false,
                },
                io_after,
            });
        }
        RequestPlan {
            service,
            invocation,
            vm,
            phases: out,
            payload_lines: profile.payload_bytes.div_ceil(64),
        }
    }

    /// Total warm compute across phases.
    pub fn total_compute(&self) -> Cycles {
        self.phases.iter().map(|p| p.compute).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceCatalog;

    fn plan_for(name: &str, invocation: u64) -> RequestPlan {
        let c = ServiceCatalog::socialnet();
        let (id, p) = c.by_name(name).unwrap();
        let mut rng = Rng64::new(invocation ^ 0xABCD);
        RequestPlan::generate(id, p, VmId(3), invocation, &mut rng)
    }

    #[test]
    fn phase_count_and_io_placement() {
        let plan = plan_for("User", 1); // 3 io calls → 4 phases
        assert_eq!(plan.phases.len(), 4);
        for (i, ph) in plan.phases.iter().enumerate() {
            if i + 1 < plan.phases.len() {
                assert!(ph.io_after.is_some());
            } else {
                assert!(ph.io_after.is_none());
            }
        }
    }

    #[test]
    fn compute_near_profile_time() {
        let mut total = 0.0;
        let n = 200;
        for i in 0..n {
            total += plan_for("Text", i).total_compute().as_us();
        }
        let mean = total / n as f64;
        assert!((mean / 360.0 - 1.0).abs() < 0.15, "mean compute {mean}us");
    }

    #[test]
    fn io_time_reflects_backend_profile() {
        let plan = plan_for("HomeT", 5);
        // 3 RPCs of median ~150 µs + 1 µs wire each.
        let io: Cycles = plan.phases.iter().filter_map(|p| p.io_after).sum();
        let io = io.as_us();
        assert!((150.0..1800.0).contains(&io), "io {io}us");
    }

    #[test]
    fn invocations_differ_but_are_reproducible() {
        let a = plan_for("CPost", 9);
        let b = plan_for("CPost", 9);
        let c = plan_for("CPost", 10);
        assert_eq!(a, b);
        assert_ne!(
            a.phases[0].stream.private_base,
            c.phases[0].stream.private_base
        );
    }

    #[test]
    fn payload_lines_rounded_up() {
        let plan = plan_for("Text", 2);
        assert_eq!(plan.payload_lines, 16); // 1024 B / 64
    }

    #[test]
    fn accesses_cover_footprint() {
        let c = ServiceCatalog::socialnet();
        let (_, p) = c.by_name("Text").unwrap();
        let plan = plan_for("Text", 3);
        let total_accesses: u32 = plan.phases.iter().map(|ph| ph.stream.accesses).sum();
        let footprint = (p.shared_lines() + p.private_lines()) as u32;
        assert!(
            total_accesses >= footprint,
            "{total_accesses} < {footprint}"
        );
    }
}
