//! Lint-policy corpus.
//!
//! The determinism and hot-path policy (DESIGN.md §12) is stock clippy
//! configuration: the root `Cargo.toml`'s `[workspace.lints.clippy]`, the
//! root `clippy.toml`, and the hot-module attribute. This harness copies the
//! first two into a scratch crate whose modules are the fixtures under
//! `tests/lint_corpus/`, runs `cargo clippy --all-targets` on it once, and
//! compares each fixture's diagnostics against inline `//~ lint_name`
//! annotations: one name per diagnostic expected on that line (repeat the
//! name for two on one line). The comparison is exact in both directions, so
//! a fixture fails when the policy misses its target, when it over-fires,
//! and when a lint drops out of the configuration
//! (`every_rule_has_corpus_coverage` pins that property explicitly).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use hh_trace::json::{self, Json};

const FIXTURES: &[&str] = &[
    "allows",
    "collections",
    "float_eq",
    "hot_mod",
    "hot_unwrap",
    "lexer_torture",
    "rng",
    "shadowing",
    "wall_clock",
];

/// The workspace's hot modules, each of which must open with the same
/// attribute as `hot_mod.rs`.
const HOT_MODULES: &[&str] = &[
    "crates/mem/src/cache.rs",
    "crates/hwqueue/src/subqueue.rs",
    "crates/core/src/runplan.rs",
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn corpus_dir() -> PathBuf {
    repo().join("tests/lint_corpus")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The body of the root manifest's `[workspace.lints.clippy]` table.
fn workspace_clippy_lints() -> String {
    const HEADER: &str = "[workspace.lints.clippy]";
    let manifest = read(&repo().join("Cargo.toml"));
    let start = manifest
        .find(HEADER)
        .expect("root Cargo.toml has a [workspace.lints.clippy] table")
        + HEADER.len();
    let body = &manifest[start..];
    body[..body.find("\n[").unwrap_or(body.len())].to_string()
}

/// The hot-module attribute, as `hot_mod.rs` spells it.
fn hot_attribute() -> String {
    read(&corpus_dir().join("hot_mod.rs"))
        .lines()
        .find(|l| l.starts_with("#![deny("))
        .expect("hot_mod.rs opens with the hot-module attribute")
        .to_string()
}

/// One diagnostic: fixture, line, column, lint name (`clippy::` stripped)
/// and message.
type Finding = (String, u32, u32, String, String);

/// Every lint diagnostic clippy reports on the corpus crate, deduplicated
/// across the library and test builds.
fn corpus_findings() -> &'static [Finding] {
    static FINDINGS: OnceLock<Vec<Finding>> = OnceLock::new();
    FINDINGS.get_or_init(run_clippy_on_corpus)
}

fn run_clippy_on_corpus() -> Vec<Finding> {
    let krate = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_corpus");
    let src = krate.join("src");
    fs::create_dir_all(&src).expect("create corpus crate");
    let manifest = format!(
        "[package]\nname = \"hh-lint-corpus\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         publish = false\n\n[workspace]\n\n[lints.clippy]{}",
        workspace_clippy_lints()
    );
    fs::write(krate.join("Cargo.toml"), manifest).expect("write corpus manifest");
    fs::copy(repo().join("clippy.toml"), krate.join("clippy.toml")).expect("copy clippy.toml");
    let mut lib = String::from("#![allow(unused)]\n");
    for name in FIXTURES {
        fs::copy(
            corpus_dir().join(format!("{name}.rs")),
            src.join(format!("{name}.rs")),
        )
        .expect("copy fixture");
        lib.push_str(&format!("pub mod {name};\n"));
    }
    fs::write(src.join("lib.rs"), lib).expect("write corpus lib.rs");

    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--all-targets"])
        .args(["--message-format=json", "-j", "2"])
        .arg("--manifest-path")
        .arg(krate.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(krate.join("target"))
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("run cargo clippy");
    let stdout = String::from_utf8_lossy(&out.stdout);

    let mut seen = BTreeMap::new();
    for line in stdout.lines().filter(|l| l.starts_with('{')) {
        let msg = json::parse(line).unwrap_or_else(|e| panic!("cargo JSON line: {e}: {line}"));
        if msg.get("reason").and_then(Json::as_str) != Some("compiler-message") {
            continue;
        }
        let diag = msg.get("message").expect("compiler-message has a message");
        let text = diag.get("message").and_then(Json::as_str).unwrap_or("");
        let code = diag
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str);
        let primary = diag.get("spans").and_then(Json::as_arr).and_then(|spans| {
            spans
                .iter()
                .find(|s| s.get("is_primary") == Some(&Json::Bool(true)))
        });
        let Some(span) = primary else { continue };
        let lint = match code {
            Some(code) if !is_error_code(code) => code.trim_start_matches("clippy::"),
            _ => panic!(
                "corpus crate does not compile: {}",
                diag.get("rendered").and_then(Json::as_str).unwrap_or(text)
            ),
        };
        let file = span
            .get("file_name")
            .and_then(Json::as_str)
            .expect("span file");
        let fixture = Path::new(file)
            .file_stem()
            .map(|s| s.to_string_lossy().to_string())
            .expect("span file stem");
        let line_no = span
            .get("line_start")
            .and_then(Json::as_num)
            .expect("span line") as u32;
        let col = span
            .get("column_start")
            .and_then(Json::as_num)
            .expect("span column") as u32;
        seen.insert((fixture, line_no, col, lint.to_string()), text.to_string());
    }
    assert!(
        !seen.is_empty(),
        "cargo clippy reported nothing on the corpus (status {}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    seen.into_iter()
        .map(|((f, l, c, lint), text)| (f, l, c, lint, text))
        .collect()
}

/// Compiler error codes (`E0425`) mark a fixture that no longer compiles.
fn is_error_code(code: &str) -> bool {
    code.len() == 5 && code.starts_with('E') && code[1..].bytes().all(|b| b.is_ascii_digit())
}

/// Expected `(line, lint)` pairs parsed from `//~` annotations.
fn expectations(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        for lint in line[pos + 3..].split_whitespace() {
            out.push((idx as u32 + 1, lint.to_string()));
        }
    }
    out
}

fn check_fixture(name: &str) {
    let src = read(&corpus_dir().join(format!("{name}.rs")));
    let mut expected = expectations(&src);
    let mut actual: Vec<(u32, String)> = corpus_findings()
        .iter()
        .filter(|f| f.0 == name)
        .map(|f| (f.1, f.3.clone()))
        .collect();
    actual.sort();
    expected.sort();
    assert_eq!(
        actual, expected,
        "fixture {name}.rs: clippy findings (left) disagree with //~ annotations (right)"
    );
}

#[test]
fn collections_fixture() {
    check_fixture("collections");
}

#[test]
fn wall_clock_fixture() {
    check_fixture("wall_clock");
}

#[test]
fn rng_fixture() {
    check_fixture("rng");
}

#[test]
fn hot_unwrap_fixture() {
    check_fixture("hot_unwrap");
}

#[test]
fn hot_mod_fixture() {
    check_fixture("hot_mod");
    let attr = hot_attribute();
    for module in HOT_MODULES {
        let src = read(&repo().join(module));
        assert!(
            src.lines().any(|l| l == attr),
            "hot module {module} does not open with `{attr}`"
        );
    }
}

#[test]
fn float_eq_fixture() {
    check_fixture("float_eq");
}

#[test]
fn lexer_torture_fixture() {
    check_fixture("lexer_torture");
}

#[test]
fn allows_fixture() {
    check_fixture("allows");
}

#[test]
fn shadowing_fixture() {
    check_fixture("shadowing");
}

/// Every configured lint, every banned type and every hot-module lint has
/// at least one finding in the corpus, so none can drop out of the policy
/// without a fixture noticing.
#[test]
fn every_rule_has_corpus_coverage() {
    let on_disk = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "rs"))
        })
        .count();
    assert_eq!(
        on_disk,
        FIXTURES.len(),
        "a fixture on disk is missing from FIXTURES"
    );

    let findings = corpus_findings();
    let has_lint = |lint: &str| findings.iter().any(|f| f.3 == lint);

    let lints = workspace_clippy_lints();
    let configured: Vec<&str> = lints
        .lines()
        .filter_map(|l| l.split_once('=').map(|(k, _)| k.trim()))
        .filter(|k| !k.starts_with('#'))
        .collect();
    assert!(configured.len() >= 2, "workspace lints went missing?");
    for lint in configured {
        assert!(
            has_lint(lint),
            "workspace lint `{lint}` has no corpus coverage"
        );
    }

    let attr = hot_attribute();
    let hot: Vec<&str> = attr
        .trim_start_matches("#![deny(")
        .trim_end_matches(")]")
        .split(',')
        .map(|l| l.trim().trim_start_matches("clippy::"))
        .collect();
    assert_eq!(hot.len(), 3, "hot-module attribute: {attr}");
    for lint in hot {
        assert!(
            has_lint(lint),
            "hot-module lint `{lint}` has no corpus coverage"
        );
    }

    let clippy_toml = read(&repo().join("clippy.toml"));
    let banned: Vec<&str> = clippy_toml
        .split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(banned.len() >= 6, "disallowed-types went missing?");
    for path in banned {
        let needle = format!("`{path}`");
        assert!(
            findings
                .iter()
                .any(|f| f.3 == "disallowed_types" && f.4.contains(&needle)),
            "banned type {path} has no corpus coverage"
        );
    }
}
