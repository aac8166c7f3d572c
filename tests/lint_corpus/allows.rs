// Fixture: exemptions. `#[expect(lint, reason = "...")]` suppresses only
// the named lints, only inside the item or statement it is attached to,
// and is itself a finding when nothing under it fires.

#[expect(clippy::float_cmp, reason = "sentinel encodes \"no sample yet\"")]
pub fn on_the_function(a: f64) -> bool {
    a == 0.5
}

pub fn on_the_statement(b: f64) -> bool {
    #[expect(clippy::float_cmp, reason = "exact dyadic comparison")]
    let exact = b == 0.5;
    exact
}

#[expect(
    clippy::disallowed_types,
    clippy::float_cmp,
    reason = "calibration helper"
)]
pub fn multi_lint(c: f64) -> bool {
    let t = std::time::Instant::now();
    c == t.elapsed().as_secs_f64()
}

#[expect(clippy::disallowed_types, reason = "misdirected")] //~ unfulfilled_lint_expectations
pub fn wrong_lint_does_not_cover(c: f64) -> bool {
    c == 0.25 //~ float_cmp
}

pub fn only_its_own_statement(d: f64) -> bool {
    #[expect(clippy::float_cmp, reason = "only covers this statement")] //~ unfulfilled_lint_expectations
    let unrelated = d + 1.0;
    unrelated == 2.0 //~ float_cmp
}
