// Fixture: local types that merely share a name with a banned std type.
// Paths resolve to definitions, so local `HashMap`/`Instant` types are
// fine everywhere while the std types stay banned, even behind an alias.

/// A dense, insertion-ordered stand-in that happens to reuse the name.
pub struct HashMap {
    keys: Vec<u64>,
    vals: Vec<u64>,
}

pub struct Instant {
    cycles: u64,
}

pub fn local_types_are_fine(m: &HashMap, t: &Instant) -> u64 {
    let m2: HashMap = HashMap {
        keys: vec![],
        vals: vec![],
    };
    m.keys.len() as u64 + m2.vals.len() as u64 + t.cycles
}

pub fn qualified_is_still_banned() -> bool {
    let m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new(); //~ disallowed_types disallowed_types
    let t = std::time::Instant::now(); //~ disallowed_types
    m.is_empty() && t.elapsed().as_secs() < 60
}

pub type Map = std::collections::HashMap<u64, u64>; //~ disallowed_types

pub fn through_the_alias(m: &Map) -> usize {
    m.len()
}
