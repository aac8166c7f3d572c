// Fixture: the hot-path rule's scope. Only modules that carry the
// hot-module attribute are hot: `#[inline]` alone does not make a function
// hot, while an inline `mod` may open with the attribute.

/// Calling `.unwrap()` in a doc comment is prose, not code.
#[inline]
pub fn inline_outside_hot_modules(xs: &[u64], i: usize) -> u64 {
    *xs.get(i).unwrap()
}

pub fn cold_setup(path: &str) -> String {
    std::fs::read_to_string(path).unwrap()
}

pub mod hot {
    #![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    #[inline]
    pub fn hot_lookup(xs: &[u64], i: usize) -> u64 {
        *xs.get(i).unwrap() //~ unwrap_used
    }

    #[inline(always)]
    pub fn hot_expect(x: Option<u64>) -> u64 {
        x.expect("present") //~ expect_used
    }

    #[inline]
    pub fn hot_panic(x: u64) -> u64 {
        if x == 0 {
            panic!("zero"); //~ panic
        }
        x
    }

    #[inline]
    pub fn hot_but_guarded(xs: &[u64]) -> u64 {
        debug_assert!(*xs.first().unwrap() < 10); //~ unwrap_used
        xs.len() as u64
    }

    #[inline]
    pub fn hot_justified(x: Option<u64>) -> u64 {
        #[expect(clippy::unwrap_used, reason = "index validated by caller")]
        let v = x.unwrap();
        v
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_unwrap_freely() {
        let x = super::hot::hot_justified(Some(3));
        assert_eq!(x.checked_add(1).unwrap(), 4);
    }
}
