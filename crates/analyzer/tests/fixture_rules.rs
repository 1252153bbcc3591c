//! Fixture-driven tests for every lint rule.
//!
//! Each fixture under `tests/fixtures/` is a small Rust source exercising
//! one rule's detections, exemptions, and the `lint:allow` escape hatch.
//! The directory is in the analyzer's skip list, so the deliberate
//! violations never leak into a real workspace scan; here the sources are
//! fed through [`analyzer::analyze_source`] under synthetic workspace
//! paths that put them in each rule's scope.

use analyzer::report::{Report, Violation};
use analyzer::resolve;

const HOT_PATH: &str = include_str!("fixtures/hot_path.rs");
const HOT_ENGINE: &str = include_str!("fixtures/hot_engine.rs");
const PANICS: &str = include_str!("fixtures/panics.rs");
const SHIM_USER: &str = include_str!("fixtures/shim_user.rs");
const SHIM_RAND: &str = include_str!("fixtures/shim_rand.rs");
const KERNELS: &str = include_str!("fixtures/kernels.rs");
const CONFORMANCE: &str = include_str!("fixtures/conformance.rs");
const BAD_ALLOWS: &str = include_str!("fixtures/bad_allows.rs");
const UNSAFE_AUDIT: &str = include_str!("fixtures/unsafe_audit.rs");
const OBS_DOC: &str = include_str!("fixtures/obs_doc.rs");

/// All fixtures mapped to paths that put them in their rule's scope.
const ALL_FIXTURES: [(&str, &str); 10] = [
    ("crates/nn/src/fixture_hot.rs", HOT_PATH),
    ("crates/edgesim/src/fixture_engine.rs", HOT_ENGINE),
    ("crates/demo/src/lib.rs", PANICS),
    ("crates/demo/src/shim_user.rs", SHIM_USER),
    ("crates/shims/rand/src/lib.rs", SHIM_RAND),
    ("crates/tensor/src/fixture_kernels.rs", KERNELS),
    ("tests/plan_conformance.rs", CONFORMANCE),
    ("crates/demo/src/allows.rs", BAD_ALLOWS),
    ("crates/testkit/src/lib.rs", UNSAFE_AUDIT),
    ("crates/obs/src/fixture_sink.rs", OBS_DOC),
];

fn report_for(files: &[(&str, &str)]) -> Report {
    resolve(
        files
            .iter()
            .map(|(rel, src)| analyzer::analyze_source(rel, src))
            .collect(),
    )
}

fn by_rule<'r>(report: &'r Report, rule: &str) -> Vec<&'r Violation> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .collect()
}

fn open_lines(violations: &[&Violation]) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.suppressed.is_none())
        .map(|v| v.line)
        .collect()
}

#[test]
fn hot_path_alloc_flags_kernels_and_plan_methods() {
    let report = report_for(&[("crates/nn/src/fixture_hot.rs", HOT_PATH)]);
    let hot = by_rule(&report, "hot-path-alloc");

    // `.clone()` + `.to_vec()` in ForwardPlan::run, `vec!` in relu_into,
    // `.collect()` in plan_scratch_floats, `format!` building a metric
    // label in labelled_into. Handle-based obs recording in observed_into
    // is sanctioned — hot-path instrumentation must go through the
    // alloc-free record API, and then it lints clean.
    assert_eq!(open_lines(&hot), vec![17, 18, 26, 41, 68]);
    assert!(hot[0].message.contains("`run`"));
    assert!(hot[2].message.contains("vec!"));
    assert!(hot.last().unwrap().message.contains("format!"));
    assert!(!hot.iter().any(|v| v.message.contains("observed_into")));

    // The annotated `.to_vec()` in scaled_into is suppressed with its reason.
    let suppressed: Vec<_> = hot.iter().filter(|v| v.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].line, 35);
    assert!(suppressed[0]
        .suppressed
        .as_deref()
        .is_some_and(|r| r.contains("fused kernel")));

    // The allocating constructor (`ForwardPlan::new`) and the cold helper
    // are out of scope.
    assert!(!hot.iter().any(|v| v.line == 11 || v.line == 47));
}

#[test]
fn hot_path_alloc_covers_engine_impls() {
    let report = report_for(&[("crates/edgesim/src/fixture_engine.rs", HOT_ENGINE)]);
    let hot = by_rule(&report, "hot-path-alloc");

    // `.to_vec()` in EventHeap::push, `format!` in EngineSim::run,
    // `.collect()` in FleetSim::dispatch_tier and in the swap-version
    // lookup FleetSim::profile_at (it runs per arrival), `Box::new` in
    // WorkerPool::submit (the pool's `new` is exempt, `wait` is clean).
    assert_eq!(open_lines(&hot), vec![16, 31, 50, 75, 93]);
    assert!(hot.iter().any(|v| v.message.contains("`submit`")));
    assert!(!hot.iter().any(|v| v.message.contains("`wait`")));
    assert!(hot.iter().any(|v| v.message.contains("`push`")));
    assert!(hot.iter().any(|v| v.message.contains("format!")));
    assert!(hot.iter().any(|v| v.message.contains("`dispatch_tier`")));
    assert!(hot.iter().any(|v| v.message.contains("`profile_at`")));

    // Applying a swap is `mem::swap` of preallocated slots — lints clean.
    assert!(!hot.iter().any(|v| v.message.contains("apply_swap")));

    // `reset` is hot (run-to-run reuse must stay allocation-free); its
    // annotated `.clone()` is suppressed with the recorded reason, as is
    // the cold `format!` diagnostic in `schedule_swap`.
    let suppressed: Vec<_> = hot.iter().filter(|v| v.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 2);
    assert_eq!(suppressed[0].line, 37);
    assert_eq!(suppressed[1].line, 71);

    // Constructors (`with_capacity`), kind resolution (`from_kind`) and
    // report assembly allocate freely — out of scope.
    assert!(!hot
        .iter()
        .any(|v| v.line == 11 || v.line == 27 || v.line == 42));
}

#[test]
fn hot_path_alloc_only_applies_to_library_sources() {
    let report = report_for(&[("crates/nn/benches/fixture_hot.rs", HOT_PATH)]);
    assert!(by_rule(&report, "hot-path-alloc").is_empty());
}

#[test]
fn panic_in_lib_flags_library_code_but_not_tests() {
    let report = report_for(&[("crates/demo/src/lib.rs", PANICS)]);
    let panics = by_rule(&report, "panic-in-lib");

    // `.unwrap()` in risky, `panic!` in hard_stop.
    assert_eq!(open_lines(&panics), vec![5, 16]);
    assert!(panics[0].message.contains(".unwrap()"));

    // The annotated `.expect()` is suppressed; `assert!` (line 21) and the
    // unwrap inside `#[cfg(test)] mod tests` (line 31) are never flagged.
    let suppressed: Vec<_> = panics.iter().filter(|v| v.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].line, 11);
    assert!(!panics.iter().any(|v| v.line == 21 || v.line == 31));
}

#[test]
fn panic_in_lib_exempts_test_and_bin_sources() {
    for rel in [
        "crates/demo/tests/panics.rs",
        "crates/demo/src/bin/tool.rs",
        "crates/demo/src/main.rs",
        "crates/shims/rand/src/panics.rs",
    ] {
        let report = report_for(&[(rel, PANICS)]);
        assert!(
            by_rule(&report, "panic-in-lib").is_empty(),
            "{rel} should be exempt"
        );
    }
}

#[test]
fn shim_drift_flags_imports_missing_from_the_shim() {
    let report = report_for(&[
        ("crates/shims/rand/src/lib.rs", SHIM_RAND),
        ("crates/demo/src/shim_user.rs", SHIM_USER),
    ]);
    let drift = by_rule(&report, "shim-drift");

    // `rand::missing_item` does not exist in the shim; `rngs`, `StdRng`
    // and `Rng` do.
    assert_eq!(open_lines(&drift), vec![4]);
    assert!(drift[0].message.contains("missing_item"));
}

#[test]
fn shim_drift_needs_the_shim_sources_to_vouch() {
    // Without the shim crate's sources, nothing vouches for any segment.
    let report = report_for(&[("crates/demo/src/shim_user.rs", SHIM_USER)]);
    let drift = by_rule(&report, "shim-drift");
    assert!(drift.len() > 1, "expected several unvouched imports");
}

#[test]
fn conformance_coverage_requires_suite_references() {
    let report = report_for(&[
        ("crates/tensor/src/fixture_kernels.rs", KERNELS),
        ("tests/plan_conformance.rs", CONFORMANCE),
    ]);
    let coverage = by_rule(&report, "conformance-coverage");

    // The suite references covered_into but not undocumented_into; the
    // private helper_into is not part of the contract.
    assert_eq!(open_lines(&coverage), vec![12]);
    assert!(coverage[0].message.contains("undocumented_into"));

    // Without the suite file, both public kernels are unpinned.
    let report = report_for(&[("crates/tensor/src/fixture_kernels.rs", KERNELS)]);
    assert_eq!(by_rule(&report, "conformance-coverage").len(), 2);
}

#[test]
fn into_doc_contract_requires_ownership_wording() {
    let report = report_for(&[
        ("crates/tensor/src/fixture_kernels.rs", KERNELS),
        ("tests/plan_conformance.rs", CONFORMANCE),
    ]);
    let docs = by_rule(&report, "into-doc-contract");

    // covered_into documents its output buffer; undocumented_into has a
    // rustdoc that never states ownership.
    assert_eq!(open_lines(&docs), vec![12]);
    assert!(docs[0].message.contains("does not state"));

    // A pub `_into` fn with no rustdoc at all gets the stronger message.
    let report = report_for(&[("crates/nn/src/fixture_hot.rs", HOT_PATH)]);
    let docs = by_rule(&report, "into-doc-contract");
    assert_eq!(open_lines(&docs), vec![24, 32]);
    assert!(docs[0].message.contains("no rustdoc"));
}

#[test]
fn unsafe_audit_requires_safety_comments_in_sanctioned_files() {
    // Under a sanctioned path, `unsafe` itself is allowed but every use
    // must carry a SAFETY justification.
    let report = report_for(&[("crates/testkit/src/lib.rs", UNSAFE_AUDIT)]);
    let audit = by_rule(&report, "unsafe-audit");

    // Only `bare` lacks a justification: the `// SAFETY:` block, the
    // `# Safety` rustdoc on `doc_contract` and its inner block all pass,
    // and the unsafe inside `#[cfg(test)]` is ignored.
    assert_eq!(open_lines(&audit), vec![12]);
    assert!(audit.iter().any(|v| v.message.contains("SAFETY")));

    // The lint:allow escape hatch works and carries its reason.
    let suppressed: Vec<_> = audit.iter().filter(|v| v.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].line, 26);
}

#[test]
fn unsafe_audit_sanctions_the_worker_pool_with_safety_comments() {
    // The pool file is sanctioned like the others: the same fixture flags
    // only the unjustified `bare` block there.
    let report = report_for(&[("crates/tensor/src/parallel/pool.rs", UNSAFE_AUDIT)]);
    let audit = by_rule(&report, "unsafe-audit");
    assert_eq!(open_lines(&audit), vec![12]);

    // Its sibling `parallel.rs` is not.
    let report = report_for(&[("crates/tensor/src/parallel.rs", UNSAFE_AUDIT)]);
    let audit = by_rule(&report, "unsafe-audit");
    assert_eq!(open_lines(&audit), vec![8, 12, 19, 21, 29]);
    assert!(audit
        .iter()
        .any(|v| v.message.contains("crates/tensor/src/parallel/pool.rs")));
}

#[test]
fn unsafe_audit_flags_any_unsafe_outside_sanctioned_files() {
    let report = report_for(&[("crates/demo/src/lib.rs", UNSAFE_AUDIT)]);
    let audit = by_rule(&report, "unsafe-audit");

    // Every unsafe use is out of bounds (even the justified ones), and the
    // `#[allow(unsafe_code)]` gate re-opening is its own violation.
    assert_eq!(open_lines(&audit), vec![8, 12, 19, 21, 29]);
    assert!(audit
        .iter()
        .any(|v| v.message.contains("allow(unsafe_code)")));
}

#[test]
fn unsafe_audit_skips_test_and_bin_sources() {
    for rel in ["crates/demo/tests/x.rs", "crates/demo/src/main.rs"] {
        let report = report_for(&[(rel, UNSAFE_AUDIT)]);
        assert!(
            by_rule(&report, "unsafe-audit").is_empty(),
            "{rel} should be exempt"
        );
    }
}

#[test]
fn obs_doc_requires_allocation_wording_on_recording_fns() {
    let report = report_for(&[("crates/obs/src/fixture_sink.rs", OBS_DOC)]);
    let docs = by_rule(&report, "obs-doc");

    // `inc`'s rustdoc never mentions allocation; `observe` has none at all.
    // `record`, `gauge_set` and both `on_layer`s state their contract, and
    // the allocating `export` is not a recording fn.
    assert_eq!(open_lines(&docs), vec![10, 12]);
    assert!(docs[0].message.contains("does not state"));
    assert!(docs[1].message.contains("no rustdoc"));

    // The trait's default method is suppressed with a reason.
    let suppressed: Vec<_> = docs.iter().filter(|v| v.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].line, 30);
}

#[test]
fn obs_doc_only_applies_to_the_observability_sources() {
    // The same source outside crates/obs (or edgesim's observe module) is
    // out of scope: the rule pins the obs recording API, not every fn that
    // happens to be named `record`.
    for rel in ["crates/demo/src/lib.rs", "crates/obs/tests/sink.rs"] {
        let report = report_for(&[(rel, OBS_DOC)]);
        assert!(
            by_rule(&report, "obs-doc").is_empty(),
            "{rel} should be exempt"
        );
    }
}

#[test]
fn bad_allow_reports_malformed_directives_and_cannot_be_silenced() {
    let report = report_for(&[("crates/demo/src/allows.rs", BAD_ALLOWS)]);
    let bad = by_rule(&report, "bad-allow");

    // Missing reason (line 5), unknown rule name (line 8), and a malformed
    // directive whose `lint:allow(bad-allow, ...)` annotation on the line
    // above must NOT suppress it (line 12).
    assert_eq!(open_lines(&bad), vec![5, 8, 12]);
    assert!(bad.iter().all(|v| v.suppressed.is_none()));
    assert!(bad[0].message.contains("reason"));
    assert!(bad[1].message.contains("no-such-rule"));
}

#[test]
fn allow_on_same_line_suppresses() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() } \
               // lint:allow(panic-in-lib, reason = \"fixture same-line\")\n";
    let report = report_for(&[("crates/demo/src/inline.rs", src)]);
    let panics = by_rule(&report, "panic-in-lib");
    assert_eq!(panics.len(), 1);
    assert_eq!(panics[0].suppressed.as_deref(), Some("fixture same-line"));
}

#[test]
fn allow_must_name_the_matching_rule_and_be_adjacent() {
    // Wrong rule name: no suppression.
    let wrong_rule = "// lint:allow(hot-path-alloc, reason = \"wrong rule\")\n\
                      pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    let report = report_for(&[("crates/demo/src/inline.rs", wrong_rule)]);
    assert_eq!(open_lines(&by_rule(&report, "panic-in-lib")), vec![2]);

    // Two lines above the violation: out of range, no suppression.
    let too_far = "// lint:allow(panic-in-lib, reason = \"too far away\")\n\n\
                   pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    let report = report_for(&[("crates/demo/src/inline.rs", too_far)]);
    assert_eq!(open_lines(&by_rule(&report, "panic-in-lib")), vec![3]);
}

#[test]
fn json_report_shape_is_stable() {
    let report = report_for(&ALL_FIXTURES);
    assert_eq!(report.files_scanned, ALL_FIXTURES.len());

    let json = report.to_json();
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert!(json.contains("\"schema\": 1"));
    assert!(json.contains(&format!("\"files_scanned\": {}", ALL_FIXTURES.len())));
    for rule in analyzer::rules::RULES {
        assert!(json.contains(&format!("\"{rule}\"")), "missing rule {rule}");
    }
    // Suppressed entries carry their justification.
    assert!(json.contains("\"reason\": \"fixture same-line\"") || json.contains("\"reason\":"));
    assert!(json.contains("\"violations\": ["));
    assert!(json.contains("\"suppressed\": ["));

    // Counts match the report's own tallies.
    let counts = report.counts();
    for (rule, (open, supp)) in counts {
        assert!(json.contains(&format!(
            "\"{rule}\": {{\"violations\": {open}, \"suppressed\": {supp}}}"
        )));
    }
}

#[test]
fn workspace_is_lint_clean() {
    let cwd = std::env::current_dir().expect("cwd");
    let root = analyzer::find_workspace_root(&cwd).expect("workspace root");
    let report = analyzer::analyze_workspace(&root).expect("workspace scan");
    let open: Vec<String> = report
        .unsuppressed()
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        open.is_empty(),
        "unsuppressed lint violations:\n{}",
        open.join("\n")
    );
}
