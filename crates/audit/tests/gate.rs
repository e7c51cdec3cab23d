//! End-to-end tests for the audit gate, by injected violation: build a
//! miniature workspace in a temp dir, run the real [`gosh_audit::run`]
//! entry point against it, and check that a clean tree passes while
//! each class of injected violation fails with the right rule. The
//! final test audits this repository itself, so the gate can never
//! ship red.

use std::fs;
use std::path::{Path, PathBuf};

struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("gosh_audit_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        TempTree { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const CLEAN_LIB: &str = "\
// SAFETY: p points into the caller's live buffer.
fn read(p: *const u8) -> u8 {
    // SAFETY: the caller keeps `p` valid for this call.
    unsafe { *p }
}

#[test]
fn covering_test() {
    assert_eq!(1 + 1, 2);
}
";

const CLEAN_CONFIG: &str = "\
forbid_unsafe = []
unsafe_crates = []
unwrap_forbidden = []

[[coverage]]
file = \"lib.rs\"
tests = [\"covering_test\"]
";

fn rules_of(outcome: &gosh_audit::Outcome) -> Vec<&'static str> {
    outcome.violations.iter().map(|v| v.rule).collect()
}

/// Write the inventory first so the drift gate sees a fresh one, then
/// run the real check.
fn audit(root: &Path) -> gosh_audit::Outcome {
    gosh_audit::run(root, true).unwrap();
    gosh_audit::run(root, false).unwrap()
}

#[test]
fn clean_tree_passes() {
    let t = TempTree::new("clean");
    t.write("audit.toml", CLEAN_CONFIG);
    t.write("lib.rs", CLEAN_LIB);
    let outcome = audit(&t.root);
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert_eq!(outcome.sites, 1);
    assert!(t.root.join("docs/UNSAFE.md").exists());
    assert!(t.root.join("docs/UNSAFE.json").exists());
}

#[test]
fn injected_undocumented_unsafe_fails() {
    let t = TempTree::new("undoc");
    t.write("audit.toml", CLEAN_CONFIG);
    t.write(
        "lib.rs",
        &CLEAN_LIB.replace(
            "    // SAFETY: the caller keeps `p` valid for this call.\n",
            "",
        ),
    );
    let outcome = audit(&t.root);
    assert!(rules_of(&outcome).contains(&"undocumented-unsafe"));
}

#[test]
fn injected_unlisted_relaxed_fails() {
    let t = TempTree::new("relaxed");
    t.write("audit.toml", "forbid_unsafe = []\nunsafe_crates = []\n");
    t.write(
        "counter.rs",
        "use std::sync::atomic::{AtomicU32, Ordering};\n\
         fn bump(c: &AtomicU32) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
    );
    let outcome = audit(&t.root);
    assert!(
        rules_of(&outcome).contains(&"atomic-ordering"),
        "{:?}",
        outcome.violations
    );
}

#[test]
fn drifted_ordering_count_fails_even_in_a_blessed_file() {
    let t = TempTree::new("drift");
    let cfg = "forbid_unsafe = []\nunsafe_crates = []\n\n\
               [[atomics]]\nfile = \"counter.rs\"\nrelaxed = 1\nseqcst = 0\nwhy = \"stat counter\"\n";
    let src_one = "use std::sync::atomic::{AtomicU32, Ordering};\n\
                   fn bump(c: &AtomicU32) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
    t.write("audit.toml", cfg);
    t.write("counter.rs", src_one);
    assert!(audit(&t.root).passed());

    // One more Relaxed than the entry blesses: fail until re-reviewed.
    t.write(
        "counter.rs",
        &format!("{src_one}fn dec(c: &AtomicU32) {{\n    c.fetch_sub(1, Ordering::Relaxed);\n}}\n"),
    );
    let outcome = audit(&t.root);
    assert!(rules_of(&outcome).contains(&"atomic-ordering"));
    let msg = &outcome
        .violations
        .iter()
        .find(|v| v.rule == "atomic-ordering")
        .unwrap()
        .msg;
    assert!(msg.contains("drifted"), "{msg}");
}

#[test]
fn injected_transmute_and_static_mut_fail_without_waivers() {
    let t = TempTree::new("api");
    t.write("audit.toml", "forbid_unsafe = []\nunsafe_crates = []\n");
    t.write(
        "bad.rs",
        "static mut GLOBAL: u32 = 0;\n\
         fn reinterpret(x: f32) -> u32 {\n\
             // SAFETY: same size and alignment.\n\
             unsafe { std::mem::transmute(x) }\n\
         }\n",
    );
    let outcome = audit(&t.root);
    let forbidden = outcome
        .violations
        .iter()
        .filter(|v| v.rule == "forbidden-api")
        .count();
    assert_eq!(forbidden, 2, "{:?}", outcome.violations);
    // The same file also needs a coverage entry for its unsafe block.
    assert!(rules_of(&outcome).contains(&"coverage"));
}

#[test]
fn unsafe_without_covering_test_fails() {
    let t = TempTree::new("cover");
    t.write("audit.toml", "forbid_unsafe = []\nunsafe_crates = []\n");
    t.write(
        "lib.rs",
        "fn read(p: *const u8) -> u8 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n",
    );
    let outcome = audit(&t.root);
    assert!(rules_of(&outcome).contains(&"coverage"));
}

#[test]
fn coverage_naming_a_missing_test_fails() {
    let t = TempTree::new("ghost");
    t.write(
        "audit.toml",
        &CLEAN_CONFIG.replace("covering_test", "test_that_does_not_exist"),
    );
    t.write("lib.rs", CLEAN_LIB);
    let outcome = audit(&t.root);
    assert!(rules_of(&outcome).contains(&"coverage"));
    assert!(outcome
        .violations
        .iter()
        .any(|v| v.msg.contains("test_that_does_not_exist")));
}

#[test]
fn stale_inventory_fails_until_regenerated() {
    let t = TempTree::new("stale");
    t.write("audit.toml", CLEAN_CONFIG);
    t.write("lib.rs", CLEAN_LIB);
    assert!(audit(&t.root).passed());

    // Moving the unsafe site shifts its line; the inventory must drift.
    t.write(
        "lib.rs",
        &format!("// a new leading comment line\n{CLEAN_LIB}"),
    );
    let outcome = gosh_audit::run(&t.root, false).unwrap();
    assert!(
        rules_of(&outcome).contains(&"inventory"),
        "{:?}",
        outcome.violations
    );

    gosh_audit::run(&t.root, true).unwrap();
    assert!(gosh_audit::run(&t.root, false).unwrap().passed());
}

#[test]
fn unclassified_crate_fails() {
    let t = TempTree::new("crate");
    t.write("audit.toml", "forbid_unsafe = []\nunsafe_crates = []\n");
    t.write(
        "crates/newcrate/Cargo.toml",
        "[package]\nname = \"newcrate\"\n",
    );
    t.write("crates/newcrate/src/lib.rs", "pub fn f() {}\n");
    let outcome = audit(&t.root);
    assert!(
        rules_of(&outcome).contains(&"config"),
        "{:?}",
        outcome.violations
    );
    assert!(outcome
        .violations
        .iter()
        .any(|v| v.msg.contains("newcrate") && v.msg.contains("not classified")));
}

#[test]
fn missing_lint_header_fails() {
    let t = TempTree::new("lint");
    t.write(
        "audit.toml",
        "forbid_unsafe = [\"crates/safe\"]\nunsafe_crates = []\n",
    );
    t.write("crates/safe/Cargo.toml", "[package]\nname = \"safe\"\n");
    t.write("crates/safe/src/lib.rs", "pub fn f() {}\n");
    let outcome = audit(&t.root);
    assert!(rules_of(&outcome).contains(&"lint-header"));

    t.write(
        "crates/safe/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    assert!(audit(&t.root).passed());
}

#[test]
fn unsafe_inside_a_declared_safe_crate_fails() {
    let t = TempTree::new("leak");
    t.write(
        "audit.toml",
        "forbid_unsafe = [\"crates/safe\"]\nunsafe_crates = []\n\n\
         [[coverage]]\nfile = \"crates/safe/src/lib.rs\"\ntests = [\"t\"]\n",
    );
    t.write("crates/safe/Cargo.toml", "[package]\nname = \"safe\"\n");
    t.write(
        "crates/safe/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         fn read(p: *const u8) -> u8 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n\
         #[test]\nfn t() {}\n",
    );
    let outcome = audit(&t.root);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.rule == "lint-header" && v.msg.contains("unsafe-free")),
        "{:?}",
        outcome.violations
    );
}

/// The gate must pass on this repository as shipped — the same
/// invocation CI runs. This is the test that keeps the audit honest:
/// any unsafe site, ordering, or inventory drift in the workspace
/// fails the suite, not just the CI step.
#[test]
fn the_workspace_itself_passes_the_audit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    assert!(root.join("audit.toml").exists(), "repo root not found");
    let outcome = gosh_audit::run(&root, false).unwrap();
    for v in &outcome.violations {
        eprintln!("{v}");
    }
    assert!(outcome.passed(), "workspace audit failed");
    assert!(
        outcome.sites > 0,
        "scanner found no unsafe at all — broken walk?"
    );
    assert!(outcome.files_scanned > 100);
}
