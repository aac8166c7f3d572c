//! Reusable invariant checks with named, pinpointed violation reports.
//!
//! A bare `assert!` inside a simulator tells you *that* something broke,
//! not *what rule* broke or *which piece of state* broke it. The types
//! here package structural invariants — "chunk counts are conserved",
//! "ready entries drain in FIFO order", "percentiles are monotone" — as
//! first-class values that three different consumers share:
//!
//! * property-test suites run them against generated states;
//! * the differential oracle (`hh-check`) runs them alongside its
//!   optimized-vs-reference comparisons;
//! * `ServerSim`'s debug-mode hook runs them periodically mid-simulation.
//!
//! The trait is generic over the state it inspects, so implementations
//! live next to the types they check (in `hh-mem`, `hh-hwqueue`,
//! `hh-check`, …) without this crate depending on any of them.

use std::error::Error;
use std::fmt;
use std::marker::PhantomData;

/// A named invariant violation: which rule failed and how.
///
/// Carries enough context to act on the report without re-running under a
/// debugger — the failing rule's name plus a human-readable description of
/// the offending state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Name of the violated invariant (stable, grep-able).
    pub invariant: &'static str,
    /// What exactly was wrong, with the offending values interpolated.
    pub detail: String,
}

impl InvariantViolation {
    /// Builds a violation of `invariant` with the given detail.
    pub fn new(invariant: &'static str, detail: impl Into<String>) -> Self {
        InvariantViolation {
            invariant,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated: {}",
            self.invariant, self.detail
        )
    }
}

impl Error for InvariantViolation {}

/// A structural rule over a state type `S`.
///
/// `check` returns `Err(detail)` describing the violation; the harness
/// wraps it with the invariant's name into an [`InvariantViolation`].
pub trait Invariant<S: ?Sized> {
    /// Stable name of the rule (used in reports).
    fn name(&self) -> &'static str;

    /// Checks the rule against `state`; `Err` carries the failure detail.
    fn check(&self, state: &S) -> Result<(), String>;
}

/// An [`Invariant`] built from a name and a closure (see [`invariant`]).
pub struct FnInvariant<S: ?Sized, F> {
    name: &'static str,
    f: F,
    _state: PhantomData<fn(&S)>,
}

impl<S: ?Sized, F> fmt::Debug for FnInvariant<S, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnInvariant({})", self.name)
    }
}

impl<S: ?Sized, F> Invariant<S> for FnInvariant<S, F>
where
    F: Fn(&S) -> Result<(), String>,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn check(&self, state: &S) -> Result<(), String> {
        (self.f)(state)
    }
}

/// Wraps a closure as a named [`Invariant`].
///
/// # Example
///
/// ```
/// use hh_sim::invariant::{invariant, InvariantSet};
///
/// let set = InvariantSet::new()
///     .with(invariant("non-negative", |v: &i64| {
///         if *v >= 0 { Ok(()) } else { Err(format!("{v} < 0")) }
///     }));
/// assert!(set.check_all(&3).is_ok());
/// let violation = set.check_all(&-1).unwrap_err();
/// assert_eq!(violation.invariant, "non-negative");
/// ```
pub fn invariant<S: ?Sized, F>(name: &'static str, f: F) -> FnInvariant<S, F>
where
    F: Fn(&S) -> Result<(), String>,
{
    FnInvariant {
        name,
        f,
        _state: PhantomData,
    }
}

/// An ordered collection of invariants over one state type.
pub struct InvariantSet<S: ?Sized> {
    invariants: Vec<Box<dyn Invariant<S>>>,
}

impl<S: ?Sized> fmt::Debug for InvariantSet<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.invariants.iter().map(|i| i.name()).collect();
        f.debug_struct("InvariantSet")
            .field("invariants", &names)
            .finish()
    }
}

impl<S: ?Sized> Default for InvariantSet<S> {
    fn default() -> Self {
        InvariantSet::new()
    }
}

impl<S: ?Sized> InvariantSet<S> {
    /// Creates an empty set.
    pub fn new() -> Self {
        InvariantSet {
            invariants: Vec::new(),
        }
    }

    /// Adds an invariant (builder style).
    pub fn with(mut self, inv: impl Invariant<S> + 'static) -> Self {
        self.invariants.push(Box::new(inv));
        self
    }

    /// Adds an invariant in place.
    pub fn push(&mut self, inv: impl Invariant<S> + 'static) {
        self.invariants.push(Box::new(inv));
    }

    /// Number of invariants in the set.
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Checks every invariant in insertion order, returning the first
    /// violation (name + detail) or `Ok` when all hold.
    pub fn check_all(&self, state: &S) -> Result<(), InvariantViolation> {
        for inv in &self.invariants {
            if let Err(detail) = inv.check(state) {
                return Err(InvariantViolation::new(inv.name(), detail));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_first_violation_with_name_and_detail() {
        let set: InvariantSet<i64> = InvariantSet::new()
            .with(invariant("lower-bound", |v: &i64| {
                if *v >= 0 {
                    Ok(())
                } else {
                    Err(format!("{v} below 0"))
                }
            }))
            .with(invariant("upper-bound", |v: &i64| {
                if *v <= 10 {
                    Ok(())
                } else {
                    Err(format!("{v} above 10"))
                }
            }));
        assert_eq!(set.len(), 2);
        assert!(set.check_all(&5).is_ok());
        let v = set.check_all(&99).unwrap_err();
        assert_eq!(v.invariant, "upper-bound");
        assert!(v.detail.contains("99"));
        assert!(v.to_string().contains("upper-bound"));
    }

    #[test]
    fn empty_set_always_passes() {
        let set: InvariantSet<()> = InvariantSet::new();
        assert!(set.is_empty());
        assert!(set.check_all(&()).is_ok());
    }
}
