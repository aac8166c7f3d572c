// A hot module: the per-access/per-event path must not hide panic branches.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

// Fixture: the hot-module attribute. Every non-test function in a module
// that opens with the attribute above is hot; `?` is the way out, and a
// documented contract carries an `expect` with its reason.

pub struct Ring {
    slots: Vec<u64>,
    head: usize,
}

impl Ring {
    pub fn pop(&mut self) -> u64 {
        let v = self.slots.get(self.head).copied().unwrap(); //~ unwrap_used
        self.head += 1;
        v
    }

    pub fn peek(&self) -> u64 {
        *self.slots.first().expect("ring is non-empty") //~ expect_used
    }

    pub fn must_pop(&mut self) -> u64 {
        match self.checked_pop() {
            Some(v) => v,
            None => panic!("ring is empty"), //~ panic
        }
    }

    pub fn checked_pop(&mut self) -> Option<u64> {
        let v = self.slots.get(self.head).copied()?;
        self.head += 1;
        Some(v)
    }

    #[expect(clippy::unwrap_used, reason = "len checked at construction")]
    pub fn audited(&self) -> u64 {
        self.slots.last().copied().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::Ring;

    #[test]
    fn pop_order() {
        let mut r = Ring {
            slots: vec![1, 2],
            head: 0,
        };
        assert_eq!(r.checked_pop().unwrap(), 1);
        assert_eq!(r.slots.first().expect("two slots"), &1);
        if r.head != 1 {
            panic!("head did not advance");
        }
    }
}
