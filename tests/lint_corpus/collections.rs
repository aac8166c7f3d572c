// Fixture: nondeterministic collections. `disallowed_types` resolves every
// path to its definition, so renames, fully-qualified paths and turbofish
// arguments are all caught; the `use` item itself is a finding too.

use std::collections::BTreeMap;
use std::collections::HashMap; //~ disallowed_types
use std::collections::HashSet as FastSet; //~ disallowed_types

pub struct State {
    by_id: HashMap<u64, u64>, //~ disallowed_types
    tags: FastSet<u64>, //~ disallowed_types
    ordered: BTreeMap<u64, u64>,
}

pub fn build() -> State {
    let by_id = HashMap::new(); //~ disallowed_types
    let tags = FastSet::new(); //~ disallowed_types
    let ordered = BTreeMap::new();
    State { by_id, tags, ordered }
}

pub fn qualified() -> usize {
    let m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new(); //~ disallowed_types disallowed_types
    m.len()
}

pub fn turbofish(xs: &[u64]) -> usize {
    xs.iter().copied().collect::<std::collections::HashSet<u64>>().len() //~ disallowed_types
}

// Test code is not exempt: a reference model that hashes must say why.
#[cfg(test)]
mod tests {
    #[test]
    fn reference_model_may_not_hash_silently() {
        let m: std::collections::HashMap<u64, u64> = Default::default(); //~ disallowed_types
        assert!(m.is_empty());
    }
}
