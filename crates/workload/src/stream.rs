//! Deterministic synthetic address streams for compute phases.
//!
//! A phase's stream is a *sampled* representative of the memory references
//! the real service would issue: instruction fetches over the shared code
//! region, data references split between shared pages (reused across
//! invocations of the service) and private pages (unique per invocation,
//! never reused afterwards). Popularity is skewed — a hot subset absorbs
//! most references — matching the small effective working sets measured in
//! Section 3.

use hh_mem::{Access, AccessKind, PageClass};
use hh_sim::{Rng64, VmId};
use serde::{Deserialize, Serialize};

/// Compact description of one phase's address stream; the accesses are
/// produced lazily and deterministically by [`StreamSpec::iter`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Issuing VM (namespaces all addresses).
    pub vm: VmId,
    /// Base byte address of the service's shared region inside the VM.
    pub shared_base: u64,
    /// Shared-region size in cache lines; the first third is code.
    pub shared_lines: u64,
    /// Base byte address of this invocation's private region.
    pub private_base: u64,
    /// Private-region size in cache lines.
    pub private_lines: u64,
    /// Number of references in this phase.
    pub accesses: u32,
    /// Fraction of references that are instruction fetches.
    pub ifetch_frac: f64,
    /// Fraction of *data* references that touch shared pages.
    pub shared_data_frac: f64,
    /// RNG seed (derived from invocation id, so the stream is reproducible
    /// and distinct per invocation).
    pub seed: u64,
    /// Draw private-region references uniformly instead of hot/cold
    /// skewed. Graph analytics and ML training walk their working sets
    /// with little locality; microservice heaps are skewed.
    pub uniform_private: bool,
}

impl StreamSpec {
    /// Lazily generates the accesses of this phase.
    pub fn iter(&self) -> PhaseStream {
        PhaseStream {
            spec: *self,
            rng: Rng64::new(self.seed),
            remaining: self.accesses,
        }
    }

    /// Derives the conventional shared-region base for a service.
    pub fn shared_base_for(service_index: usize) -> u64 {
        ((service_index as u64) + 1) << 30
    }

    /// Derives the private-region base for an invocation. Each invocation
    /// gets a fresh 1 MiB window, so private pages are never re-touched by
    /// later invocations — the property Section 4.2.2's Shared bit
    /// exploits. Windows wrap after 2²⁴ invocations to stay inside the
    /// 48-bit modeled address space (far beyond any single run's count).
    pub fn private_base_for(invocation: u64) -> u64 {
        (1u64 << 44) + ((invocation & 0x00FF_FFFF) << 20)
    }
}

/// Lazy iterator over a phase's [`Access`]es.
#[derive(Debug, Clone)]
pub struct PhaseStream {
    spec: StreamSpec,
    rng: Rng64,
    remaining: u32,
}

/// Skewed line selector: 80 % of references go to a hot fifth of the
/// region. Cheap stand-in for a Zipf draw at simulation rates.
#[inline]
fn skewed(rng: &mut Rng64, lines: u64) -> u64 {
    if lines <= 1 {
        return 0;
    }
    if rng.chance(0.8) {
        rng.below((lines / 5).max(1))
    } else {
        rng.below(lines)
    }
}

impl Iterator for PhaseStream {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let s = &self.spec;
        let code_lines = (s.shared_lines / 3).max(1);
        let r = self.rng.f64();
        let (addr, kind, class) = if r < s.ifetch_frac {
            // Instruction fetch in the code third of the shared region.
            let line = skewed(&mut self.rng, code_lines);
            (
                s.shared_base + line * 64,
                AccessKind::InstrFetch,
                PageClass::Shared,
            )
        } else {
            let write = self.rng.chance(0.3);
            let kind = if write {
                AccessKind::DataWrite
            } else {
                AccessKind::DataRead
            };
            if self.rng.chance(s.shared_data_frac) {
                let data_lines = s.shared_lines.saturating_sub(code_lines).max(1);
                let line = skewed(&mut self.rng, data_lines);
                (
                    s.shared_base + (code_lines + line) * 64,
                    kind,
                    PageClass::Shared,
                )
            } else {
                let lines = s.private_lines.max(1);
                let line = if s.uniform_private {
                    self.rng.below(lines)
                } else {
                    skewed(&mut self.rng, lines)
                };
                (s.private_base + line * 64, kind, PageClass::Private)
            }
        };
        Some(Access::new(s.vm, addr, kind, class))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PhaseStream {}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StreamSpec {
        StreamSpec {
            vm: VmId(1),
            shared_base: StreamSpec::shared_base_for(0),
            shared_lines: 1536,
            private_base: StreamSpec::private_base_for(42),
            private_lines: 384,
            accesses: 4000,
            ifetch_frac: 0.35,
            shared_data_frac: 0.55,
            seed: 7,
            uniform_private: false,
        }
    }

    #[test]
    fn deterministic_and_exact_length() {
        let a: Vec<Access> = spec().iter().collect();
        let b: Vec<Access> = spec().iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4000);
        assert_eq!(spec().iter().len(), 4000);
    }

    #[test]
    fn composition_matches_fractions() {
        let accesses: Vec<Access> = spec().iter().collect();
        let n = accesses.len() as f64;
        let ifetch = accesses.iter().filter(|a| a.kind.is_ifetch()).count() as f64 / n;
        assert!((ifetch - 0.35).abs() < 0.03, "ifetch {ifetch}");
        let shared = accesses.iter().filter(|a| a.class.is_shared()).count() as f64 / n;
        // ifetch (all shared) + 55% of the rest ≈ 0.71
        assert!((shared - 0.71).abs() < 0.04, "shared {shared}");
    }

    #[test]
    fn ifetches_hit_the_code_region_only() {
        let s = spec();
        let code_top = s.shared_base + (s.shared_lines / 3) * 64;
        for a in s.iter().filter(|a| a.kind.is_ifetch()) {
            let raw = a.addr & ((1 << 48) - 1);
            assert!((s.shared_base..code_top).contains(&raw));
        }
    }

    #[test]
    fn private_accesses_stay_in_invocation_window() {
        let s = spec();
        for a in s.iter().filter(|a| !a.class.is_shared()) {
            let raw = a.addr & ((1 << 48) - 1);
            assert!(raw >= s.private_base);
            assert!(raw < s.private_base + (1 << 20));
        }
    }

    #[test]
    fn different_invocations_use_disjoint_private_windows() {
        assert_ne!(
            StreamSpec::private_base_for(1),
            StreamSpec::private_base_for(2)
        );
        assert!(StreamSpec::private_base_for(2) - StreamSpec::private_base_for(1) >= 1 << 20);
    }

    #[test]
    fn hot_subset_absorbs_most_references() {
        let s = spec();
        let hot_top = s.shared_base + (s.shared_lines / 3 / 5).max(1) * 64;
        let ifetches: Vec<Access> = s.iter().filter(|a| a.kind.is_ifetch()).collect();
        let hot = ifetches
            .iter()
            .filter(|a| (a.addr & ((1 << 48) - 1)) < hot_top)
            .count() as f64;
        let frac = hot / ifetches.len() as f64;
        assert!(frac > 0.7, "hot fraction {frac}");
    }

    #[test]
    fn writes_appear_but_are_minority() {
        let writes = spec().iter().filter(|a| a.kind.is_write()).count() as f64 / 4000.0;
        assert!(writes > 0.1 && writes < 0.3, "write fraction {writes}");
    }
}
