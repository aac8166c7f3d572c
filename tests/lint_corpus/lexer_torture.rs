// Fixture: banned names in text. Strings, comments, lifetimes and numeric
// edge cases mention every banned type and call; none of it is a finding
// until the one real violation at the end.

/// Doc comments may say `HashMap`, `Instant::now()` and `x.unwrap()`.
pub fn strings_hide_everything() -> usize {
    let plain = "HashMap::new() == 0.0 && Instant::now()";
    let raw = r#"RandomState "quoted" SystemTime"#;
    let more = r##"ends with "# not here: "##;
    let bytes = b"HashSet == 1.0";
    let raw_bytes = br"DefaultHasher unwrap()";
    plain.len() + raw.len() + more.len() + bytes.len() + raw_bytes.len()
}

/* Block comments nest: /* HashMap == 0.0 */ still inside the outer
comment, where Instant::now().unwrap() is prose. */

pub fn lifetimes_vs_chars<'a>(x: &'a str, y: &'a str) -> (&'a str, char, u8) {
    let c = 'a';
    let esc = '\'';
    let byte = b'x';
    let byte_esc = b'\'';
    assert!(esc != c && byte_esc != byte);
    (if x.len() > y.len() { x } else { y }, c, byte)
}

pub fn numbers_that_look_floaty(t: (u64, f64)) -> u64 {
    let tuple_access = t.0;
    let range_sum: u64 = (1..4).sum();
    let inclusive: u64 = (1..=3).sum();
    let method_on_int = t.0.max(2);
    let hex = 0xFF_u64;
    let float_no_cmp = 2.5e-3_f64 + t.1 + 10.5;
    tuple_access + range_sum + inclusive + method_on_int + hex + float_no_cmp as u64
}

macro_rules! table {
    ($($k:expr => $v:expr),*) => {
        vec![$(($k, $v)),*]
    };
}

pub fn macro_bodies() -> Vec<(u64, f64)> {
    println!("fmt only: {} == {}", 1.0, 2.0);
    table![1 => 1.5, 2 => 2.5]
}

pub fn raw_identifiers() -> u64 {
    let r#match = 3_u64;
    let r#type = 4_u64;
    r#match + r#type
}

pub fn the_one_real_violation(x: f64) -> bool {
    x == 0.125 //~ float_cmp
}
