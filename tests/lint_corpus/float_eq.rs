// Fixture: exact float equality. `float_cmp` flags `==`/`!=` between
// floats, literals or not; ranges, orderings, integer comparisons and
// total-order idioms are fine.

pub fn exact(a: f64, b: f64) -> bool {
    let half = a == 0.5; //~ float_cmp
    let one = 1.0 != b; //~ float_cmp
    half || one
}

pub fn two_variables(a: f64, b: f64) -> bool {
    a == b //~ float_cmp
}

pub fn scientific(x: f64) -> bool {
    x != 2.5e-3 //~ float_cmp
}

pub fn ranges_are_fine(x: f64) -> bool {
    (0.0..=1.0).contains(&x)
}

pub fn orderings_are_fine(x: f64, y: f64) -> bool {
    x < 0.5 || y >= 0.125
}

pub fn integers_are_fine(n: u64) -> bool {
    n == 0
}

pub fn total_order(a: f64) -> bool {
    a.total_cmp(&0.5).is_lt()
}

pub fn epsilon(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[expect(clippy::float_cmp, reason = "span is a sum of exact dyadic steps")]
pub fn justified(span: f64) -> bool {
    span == 0.25
}

// Test modules that assert exact floats opt out once, as in the workspace.
#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    #[test]
    fn bit_exact_assertions() {
        let x = 0.5 + 0.25;
        assert!(x == 0.75);
    }
}
