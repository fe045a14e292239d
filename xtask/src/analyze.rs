//! `cargo xtask analyze` — static invariant lints for the lock-free data
//! plane, plus a seeded-mutation self-test.
//!
//! The model checker in `crates/check` proves the *dynamic* properties of
//! the mailbox and deque; this pass pins the *static* discipline those
//! proofs rest on. Each rule is a token-level check (a tiny lexer strips
//! comments and string literals first, so prose mentioning `unsafe` or
//! `Ordering::Relaxed` never trips a lint):
//!
//! * **R1 `unsafe-allowlist`** — every `unsafe` keyword in `crates/core/src`
//!   lives in `runtime/mailbox.rs`, whose block count is pinned exactly
//!   (new unsafe code must update the pin here, in review); the crate root
//!   keeps `#![deny(unsafe_code)]` and the mailbox carries exactly one
//!   scoped `#![allow(unsafe_code)]`.
//! * **R2 `ordering-annotated`** — every `Ordering::` site in non-test core
//!   code carries a `// ord:` justification on the same or previous line,
//!   and the total site count is pinned (so orderings cannot be added or
//!   removed without the diff touching this file).
//! * **R3 `relaxed-is-stats-only`** — `Ordering::Relaxed` is legal only for
//!   statistics counters: its `// ord:` justification must say "stat".
//! * **R4 `no-sleep-no-blind-spin`** — `crates/core/src/runtime` non-test
//!   code never calls `thread::sleep`, and every `spin_loop` carries a
//!   `// spin:` justification (bounded, with an explained exit condition).
//! * **R5 `no-silent-copies`** — `.clone()` / `.to_vec()` in the data-plane
//!   files (`mailbox.rs`, `deque.rs`, `threaded.rs`) require a `// copy:`
//!   justification; payloads move by refcount, not memcpy.
//! * **R6 `atomics-via-facade`** — the data-plane files never name
//!   `std::sync::atomic` directly; they import through `runtime::sync` so
//!   the bounded model checker can instrument them under `--cfg aiac_check`.
//! * **R7 `no-unwrap-on-queue-paths`** — non-test code in
//!   `crates/service/src` never calls `.unwrap()` / `.expect(...)` on a line
//!   that touches a job-queue send/receive path (send, recv, enqueue,
//!   dequeue, submit, push_back, pop_front): admission and delivery failures
//!   must propagate as typed backpressure errors, not panics.
//! * **R8 `static-trace-events`** — trace emits in the data-plane files
//!   (`span_begin`/`span_end`/`span_complete`/`instant`/`counter` calls)
//!   never allocate on the same line (`format!`, `.to_string()`,
//!   `String::from`, `.to_owned()`): event names are `&'static str` by
//!   construction, and the only tolerated allocation is the once-per-worker
//!   track name passed to `tracer.recorder(...)`, which is not an emit.
//! * **R9 `no-alloc-in-kernel-update`** — inside the body of an
//!   `update_block_into` under `crates/solvers/src`, `vec![`, `Vec::new`,
//!   `Vec::with_capacity`, `.to_vec()` and `.collect()` are violations, with
//!   no escape: the runtimes call it once per block per iteration, and every
//!   kernel's is allocation-free (per-thread scratch is the way to a buffer).
//!
//! `cargo xtask analyze --self-test` seeds one bug per class into a scratch
//! copy of the tree — a weakened memory ordering, a dropped reclamation, a
//! lost-element deque edit, an unjustified copy, a stray `unsafe`, a deleted
//! annotation, a panicking queue path, an allocating hot-path trace emit, an
//! allocating kernel update — and asserts the matching layer (model checker
//! or lint) catches each one,
//! then restores the copy and asserts it is green again.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Pinned number of `unsafe` blocks in `crates/core/src/runtime/mailbox.rs`
/// (the only file on the allowlist). Grow this only together with a new
/// SAFETY comment in that file.
const UNSAFE_BLOCK_PIN: usize = 4;

/// Pinned number of non-test `Ordering::` sites across `crates/core/src`.
/// Adding or removing an atomic-ordering decision must touch this constant,
/// making every such change visible in review.
const ORDERING_SITE_PIN: usize = 53;

/// Files whose atomics are the model-checked data plane: silent copies and
/// direct `std::sync::atomic` imports are forbidden here.
const DATA_PLANE: [&str; 3] = [
    "crates/core/src/runtime/mailbox.rs",
    "crates/core/src/runtime/deque.rs",
    "crates/core/src/runtime/threaded.rs",
];

const MAILBOX: &str = "crates/core/src/runtime/mailbox.rs";
const CORE_SRC: &str = "crates/core/src";
const SERVICE_SRC: &str = "crates/service/src";
const SOLVERS_SRC: &str = "crates/solvers/src";

pub fn run(args: &[String]) -> i32 {
    let mut self_test = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--self-test" => self_test = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: cargo xtask analyze [--self-test] [--root PATH]");
                return 2;
            }
        }
    }
    let root = match root.map(Ok).unwrap_or_else(workspace_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    let violations = match lint_tree(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if violations.is_empty() {
        println!(
            "xtask analyze: all rules clean (unsafe pin {UNSAFE_BLOCK_PIN}, ordering pin {ORDERING_SITE_PIN})"
        );
    } else {
        for v in &violations {
            eprintln!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.msg);
        }
        eprintln!("xtask analyze: {} violation(s)", violations.len());
        return 1;
    }

    if self_test {
        if let Err(e) = run_self_test(&root) {
            eprintln!("self-test FAILED: {e}");
            return 1;
        }
        println!("xtask analyze --self-test: every seeded mutation was caught");
    }
    0
}

/// Walks upward from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".into());
        }
    }
}

#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

/// One scanned source file: the raw lines (annotations live in comments)
/// and the comment/string-blanked lines (tokens live in code), plus the
/// index of the first test-module line (`usize::MAX` when there is none —
/// the repo keeps unit tests in a trailing `#[cfg(test)] mod`).
struct FileView {
    raw: Vec<String>,
    code: Vec<String>,
    test_start: usize,
}

impl FileView {
    fn load(root: &Path, rel: &str) -> Result<Self, String> {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        let masked = mask_code(&src);
        let raw: Vec<String> = src.lines().map(str::to_owned).collect();
        let code: Vec<String> = masked.lines().map(str::to_owned).collect();
        let test_start = raw
            .iter()
            .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
            .unwrap_or(usize::MAX);
        Ok(Self {
            raw,
            code,
            test_start,
        })
    }

    /// True when line `i` (0-based) sits inside the trailing test module.
    fn is_test(&self, i: usize) -> bool {
        i >= self.test_start
    }

    /// The justification text for a site on line `i`: the tail of a `tag`
    /// comment on the same line, or a `tag` comment anywhere in the
    /// contiguous block of `//` comment lines directly above (multi-line
    /// justifications wrap; continuation lines are plain `//`).
    fn annotation(&self, i: usize, tag: &str) -> Option<String> {
        if let Some(pos) = self.raw[i].find(tag) {
            return Some(self.raw[i][pos..].to_owned());
        }
        let mut j = i;
        while j > 0 && self.raw[j - 1].trim_start().starts_with("//") {
            j -= 1;
            if self.raw[j].trim_start().starts_with(tag) {
                return Some(self.raw[j..i].join("\n"));
            }
        }
        None
    }
}

/// Replaces every comment, string literal, and char literal in `src` with
/// spaces (newlines preserved), so substring/token searches over the result
/// only ever hit code.
fn mask_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // line comment
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // (nested) block comment
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            out.push_str("  ");
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // raw (and byte-raw) string: r"..." / r#"..."# / br#"..."#
        if c == 'r' || (c == 'b' && b.get(i + 1) == Some(&'r')) {
            let start = if c == 'b' { i + 1 } else { i };
            let mut j = start + 1;
            while b.get(j) == Some(&'#') {
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                let hashes = j - (start + 1);
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                while i < b.len() {
                    if b[i] == '"' {
                        let mut k = 0;
                        while k < hashes && b.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // plain (and byte) string
        if c == '"' || (c == 'b' && b.get(i + 1) == Some(&'"')) {
            if c == 'b' {
                out.push(' ');
                i += 1;
            }
            out.push(' ');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' {
                    out.push(' ');
                    if i + 1 < b.len() {
                        out.push(blank(b[i + 1]));
                    }
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // char literal vs lifetime
        if c == '\'' {
            let next = b.get(i + 1);
            let is_escape = next == Some(&'\\');
            let closes = b.get(i + 2) == Some(&'\'');
            if is_escape || (next.is_some() && closes) {
                out.push(' ');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' {
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    if b[i] == '\'' {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            // a lifetime: fall through, identifiers are code
        }
        out.push(c);
        i += 1;
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets (per line) where `token` appears as a whole identifier.
fn token_sites(line: &str, token: &str) -> Vec<usize> {
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(token) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(line[..at].chars().next_back().unwrap());
        let after_ok = line[at + token.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            sites.push(at);
        }
        from = at + token.len();
    }
    sites
}

/// Every `.rs` file under `dir`, as paths relative to `root`.
fn rust_files(root: &Path, dir: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads every `.rs` file under `dir`, keyed by its path relative to `root`.
fn load_views(root: &Path, dir: &str) -> Result<BTreeMap<String, FileView>, String> {
    let mut views = BTreeMap::new();
    for rel in rust_files(root, dir)? {
        let view = FileView::load(root, &rel)?;
        views.insert(rel, view);
    }
    Ok(views)
}

fn lint_tree(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    let views = load_views(root, CORE_SRC)?;
    rule_unsafe_allowlist(&views, &mut violations);
    rule_ordering_annotated(&views, &mut violations);
    rule_no_sleep_no_blind_spin(&views, &mut violations);
    rule_no_silent_copies(&views, &mut violations);
    rule_atomics_via_facade(&views, &mut violations);
    rule_static_trace_events(&views, &mut violations);

    // The service and solver crates get view maps of their own: feeding them
    // into `views` would perturb the core-only unsafe and ordering pins of
    // R1/R2.
    rule_no_unwrap_on_queue_paths(&load_views(root, SERVICE_SRC)?, &mut violations);
    rule_no_alloc_in_kernel_update(&load_views(root, SOLVERS_SRC)?, &mut violations);
    Ok(violations)
}

/// R1: `unsafe` only in the mailbox, with a pinned block count and the
/// scoped-allow / crate-deny pair intact.
fn rule_unsafe_allowlist(views: &BTreeMap<String, FileView>, out: &mut Vec<Violation>) {
    let mut mailbox_count = 0usize;
    for (rel, view) in views {
        for (i, line) in view.code.iter().enumerate() {
            for _ in token_sites(line, "unsafe") {
                if rel == MAILBOX {
                    mailbox_count += 1;
                } else {
                    out.push(Violation {
                        file: rel.clone(),
                        line: i + 1,
                        rule: "R1",
                        msg: "`unsafe` outside the mailbox allowlist".into(),
                    });
                }
            }
        }
    }
    if mailbox_count != UNSAFE_BLOCK_PIN {
        out.push(Violation {
            file: MAILBOX.into(),
            line: 1,
            rule: "R1",
            msg: format!(
                "unsafe block count drifted: found {mailbox_count}, pinned {UNSAFE_BLOCK_PIN}"
            ),
        });
    }
    if let Some(lib) = views.get("crates/core/src/lib.rs") {
        if !lib.raw.iter().any(|l| l.contains("#![deny(unsafe_code)]")) {
            out.push(Violation {
                file: "crates/core/src/lib.rs".into(),
                line: 1,
                rule: "R1",
                msg: "crate root lost `#![deny(unsafe_code)]`".into(),
            });
        }
    }
    if let Some(mb) = views.get(MAILBOX) {
        let allows = mb
            .raw
            .iter()
            .filter(|l| l.contains("#![allow(unsafe_code)]"))
            .count();
        if allows != 1 {
            out.push(Violation {
                file: MAILBOX.into(),
                line: 1,
                rule: "R1",
                msg: format!(
                    "expected exactly one scoped `#![allow(unsafe_code)]`, found {allows}"
                ),
            });
        }
    }
}

/// R2 + R3: every non-test `Ordering::` site is `// ord:`-annotated (count
/// pinned), and `Relaxed` sites justify themselves as statistics.
fn rule_ordering_annotated(views: &BTreeMap<String, FileView>, out: &mut Vec<Violation>) {
    let mut total = 0usize;
    for (rel, view) in views {
        for (i, line) in view.code.iter().enumerate() {
            if view.is_test(i) {
                continue;
            }
            for at in token_sites(line, "Ordering") {
                if !line[at + "Ordering".len()..].starts_with("::") {
                    continue;
                }
                total += 1;
                match view.annotation(i, "// ord:") {
                    None => out.push(Violation {
                        file: rel.clone(),
                        line: i + 1,
                        rule: "R2",
                        msg: "`Ordering::` site without a `// ord:` justification".into(),
                    }),
                    Some(text) => {
                        let relaxed = line[at..].starts_with("Ordering::Relaxed");
                        if relaxed && !text.contains("stat") {
                            out.push(Violation {
                                file: rel.clone(),
                                line: i + 1,
                                rule: "R3",
                                msg: "`Ordering::Relaxed` outside a statistics counter \
                                      (justification must say `stat`)"
                                    .into(),
                            });
                        }
                    }
                }
            }
        }
    }
    if total != ORDERING_SITE_PIN {
        out.push(Violation {
            file: CORE_SRC.into(),
            line: 1,
            rule: "R2",
            msg: format!(
                "ordering site count drifted: found {total}, pinned {ORDERING_SITE_PIN} \
                 (update the pin together with the new `// ord:` justification)"
            ),
        });
    }
}

/// R4: the runtime never sleeps, and never spins without a justification.
fn rule_no_sleep_no_blind_spin(views: &BTreeMap<String, FileView>, out: &mut Vec<Violation>) {
    for (rel, view) in views {
        if !rel.starts_with("crates/core/src/runtime/") {
            continue;
        }
        for (i, line) in view.code.iter().enumerate() {
            if view.is_test(i) {
                continue;
            }
            if line.contains("thread::sleep") {
                out.push(Violation {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "R4",
                    msg: "`thread::sleep` in the runtime (park on a condvar instead)".into(),
                });
            }
            if !token_sites(line, "spin_loop").is_empty()
                && view.annotation(i, "// spin:").is_none()
            {
                out.push(Violation {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "R4",
                    msg: "`spin_loop` without a `// spin:` bound justification".into(),
                });
            }
        }
    }
}

/// R5: data-plane clones/copies must be justified.
fn rule_no_silent_copies(views: &BTreeMap<String, FileView>, out: &mut Vec<Violation>) {
    for rel in DATA_PLANE {
        let Some(view) = views.get(rel) else { continue };
        for (i, line) in view.code.iter().enumerate() {
            if view.is_test(i) {
                continue;
            }
            if (line.contains(".clone()") || line.contains(".to_vec()"))
                && view.annotation(i, "// copy:").is_none()
            {
                out.push(Violation {
                    file: rel.to_string(),
                    line: i + 1,
                    rule: "R5",
                    msg: "unjustified copy on a data-plane path (add `// copy:` or move the \
                          data by refcount)"
                        .into(),
                });
            }
        }
    }
}

/// R6: the data plane imports atomics through the `runtime::sync` facade.
fn rule_atomics_via_facade(views: &BTreeMap<String, FileView>, out: &mut Vec<Violation>) {
    for rel in DATA_PLANE {
        let Some(view) = views.get(rel) else { continue };
        for (i, line) in view.code.iter().enumerate() {
            if view.is_test(i) {
                continue;
            }
            if line.contains("std::sync::atomic") {
                out.push(Violation {
                    file: rel.to_string(),
                    line: i + 1,
                    rule: "R6",
                    msg: "direct `std::sync::atomic` use bypasses the model-checker facade \
                          (import from `crate::runtime::sync`)"
                        .into(),
                });
            }
        }
    }
}

/// R8: data-plane trace emits never allocate. The observability crate makes
/// event names `&'static str` by construction; this rule keeps the *call
/// sites* honest too — no `format!`-built name leaked to `'static`, no
/// `.to_string()` feeding an argument, on any line that emits an event in
/// the hot files. The once-per-worker track name handed to
/// `tracer.recorder(...)` may allocate; `recorder` is not an emit token.
fn rule_static_trace_events(views: &BTreeMap<String, FileView>, out: &mut Vec<Violation>) {
    const EMIT_TOKENS: [&str; 7] = [
        ".span_begin(",
        ".span_end(",
        ".span_complete(",
        ".instant(",
        ".instant_at(",
        ".counter(",
        ".counter_at(",
    ];
    const ALLOC_TOKENS: [&str; 4] = ["format!", ".to_string()", "String::from", ".to_owned()"];
    for rel in DATA_PLANE {
        let Some(view) = views.get(rel) else { continue };
        for (i, line) in view.code.iter().enumerate() {
            if view.is_test(i) {
                continue;
            }
            if EMIT_TOKENS.iter().any(|t| line.contains(t))
                && ALLOC_TOKENS.iter().any(|t| line.contains(t))
            {
                out.push(Violation {
                    file: rel.to_string(),
                    line: i + 1,
                    rule: "R8",
                    msg: "allocating trace emit on a data-plane path (event names are \
                          static by construction; build dynamic context into the `arg`, \
                          not the name)"
                        .into(),
                });
            }
        }
    }
}

/// R7: the service's job-queue send/receive paths never panic on failure.
/// A full tenant queue, a closed results channel or a saturated pool are
/// expected conditions under load; they must surface as typed backpressure
/// (`AdmissionError`), never as `.unwrap()` / `.expect(...)`.
fn rule_no_unwrap_on_queue_paths(views: &BTreeMap<String, FileView>, out: &mut Vec<Violation>) {
    const QUEUE_TOKENS: [&str; 7] = [
        "send",
        "recv",
        "enqueue",
        "dequeue",
        "submit",
        "push_back",
        "pop_front",
    ];
    for (rel, view) in views {
        for (i, line) in view.code.iter().enumerate() {
            if view.is_test(i) {
                continue;
            }
            if !line.contains(".unwrap()") && !line.contains(".expect(") {
                continue;
            }
            if QUEUE_TOKENS
                .iter()
                .any(|t| !token_sites(line, t).is_empty())
            {
                out.push(Violation {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "R7",
                    msg: "`.unwrap()`/`.expect()` on a job-queue send/recv path \
                          (propagate a typed backpressure error instead)"
                        .into(),
                });
            }
        }
    }
}

/// R9: a kernel's `update_block_into` body does not allocate. The body is
/// every line from the `fn update_block_into` line to the one that closes its
/// braces (strings and comments are already blanked, so the braces counted
/// are code).
fn rule_no_alloc_in_kernel_update(views: &BTreeMap<String, FileView>, out: &mut Vec<Violation>) {
    const ALLOC_TOKENS: [&str; 6] = [
        "vec![",
        "Vec::new",
        "Vec::with_capacity",
        ".to_vec()",
        ".collect()",
        ".collect::<",
    ];
    for (rel, view) in views {
        // inside the function (signature included), and how many of its
        // braces are open
        let mut in_fn = false;
        let mut depth = 0usize;
        for (i, line) in view.code.iter().enumerate() {
            if view.is_test(i) {
                break;
            }
            in_fn |= line.contains("fn update_block_into(");
            if !in_fn {
                continue;
            }
            if depth > 0 && ALLOC_TOKENS.iter().any(|t| line.contains(t)) {
                out.push(Violation {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "R9",
                    msg: "allocation inside `update_block_into` \
                          (keep the buffer in per-thread scratch instead)"
                        .into(),
                });
            }
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        in_fn = depth > 0;
                    }
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation self-test
// ---------------------------------------------------------------------------

/// What is expected to catch a seeded mutation.
enum Catcher {
    /// `lint_tree` must report at least one violation of this rule.
    Lint(&'static str),
    /// This model-check harness (test file + filter) must fail under
    /// `--cfg aiac_check`.
    Harness {
        test_file: &'static str,
        filter: &'static str,
    },
}

struct Mutation {
    name: &'static str,
    file: &'static str,
    find: &'static str,
    replace: &'static str,
    catcher: Catcher,
}

fn mutations() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "M1 weakened-ordering (mailbox publish swap AcqRel -> Relaxed)",
            file: MAILBOX,
            find: "let displaced = slot.ptr.swap(fresh, Ordering::AcqRel);",
            replace: "let displaced = slot.ptr.swap(fresh, Ordering::Relaxed);",
            catcher: Catcher::Harness {
                test_file: "mailbox_model",
                filter: "publish_take_race_is_exhaustively_clean",
            },
        },
        Mutation {
            name: "M2 dropped-reclamation (mailbox Drop leaks in-flight envelopes)",
            file: MAILBOX,
            find: "drop(unsafe { Box::from_raw(p) });",
            replace: "let _ = p;",
            catcher: Catcher::Harness {
                test_file: "mailbox_model",
                filter: "drop_with_inflight_envelopes_never_leaks",
            },
        },
        Mutation {
            name: "M3 duplicated-element (deque pop keeps the last element it lost)",
            file: "crates/core/src/runtime/deque.rs",
            find: ".is_ok();",
            replace: ".is_ok() || true;",
            catcher: Catcher::Harness {
                test_file: "deque_model",
                filter: "owner_pop_vs_concurrent_steal_is_exactly_once",
            },
        },
        Mutation {
            name: "M4 unjustified-copy (threaded retirement snapshot loses its `// copy:`)",
            file: "crates/core/src/runtime/threaded.rs",
            find: "// copy: retirement snapshot — the block's values leave the runtime exactly once, at finish\n",
            replace: "",
            catcher: Catcher::Lint("R5"),
        },
        Mutation {
            name: "M5 stray-unsafe (deque grows an unsafe block outside the allowlist)",
            file: "crates/core/src/runtime/deque.rs",
            find: "pub fn capacity(&self) -> usize {",
            replace: "pub fn capacity(&self) -> usize { let _ = unsafe { std::ptr::read(&self.mask) };",
            catcher: Catcher::Lint("R1"),
        },
        Mutation {
            name: "M6 deleted-annotation (mailbox publish counter loses its `// ord:`)",
            file: MAILBOX,
            find: "// ord: stat counter — publish count is telemetry only\n",
            replace: "",
            catcher: Catcher::Lint("R2"),
        },
        Mutation {
            name: "M7 panicking-queue-path (service result delivery unwraps the send)",
            file: "crates/service/src/service.rs",
            find: "let _ = self.results_tx.send(result);",
            replace: "self.results_tx.send(result).unwrap();",
            catcher: Catcher::Lint("R7"),
        },
        Mutation {
            name: "M8 allocating-trace-emit (publish instant builds its name with format!)",
            file: "crates/core/src/runtime/threaded.rs",
            find: "rec.instant(\"publish\", block as u64);",
            replace: "rec.instant(format!(\"publish-{block}\").leak(), block as u64);",
            catcher: Catcher::Lint("R8"),
        },
        Mutation {
            name: "M9 allocating-kernel-update (sparse update gathers into a fresh Vec)",
            file: "crates/solvers/src/sparse_linear.rs",
            find: "plan.gather(block, local, others, x);",
            replace: "let x = &mut vec![0.0; x.len()][..]; plan.gather(block, local, others, x);",
            catcher: Catcher::Lint("R9"),
        },
    ]
}

fn run_self_test(root: &Path) -> Result<(), String> {
    // The scratch copy lives under target/ so it is excluded from copying
    // (and from the lints, which only look at crates/core/src).
    let stage = root.join("target").join("xtask-selftest");
    let tree = stage.join("tree");
    let shared_target = stage.join("target");
    if tree.exists() {
        fs::remove_dir_all(&tree).map_err(|e| format!("clearing scratch tree: {e}"))?;
    }
    println!("self-test: copying the tree to {}", tree.display());
    copy_tree(root, &tree)?;

    // Baseline: the pristine copy must pass both layers.
    let clean = lint_tree(&tree)?;
    if !clean.is_empty() {
        return Err(format!("pristine copy fails lints: {:?}", clean[0]));
    }
    println!("self-test: baseline model-check run (pristine copy must be green)");
    let both = ["--test", "mailbox_model", "--test", "deque_model"];
    if !harness_passes(&tree, &shared_target, &both)? {
        return Err("pristine copy fails the model-check harnesses".into());
    }

    for m in mutations() {
        println!("self-test: seeding {}", m.name);
        let path = tree.join(m.file);
        let original = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", m.file))?;
        let hits = original.matches(m.find).count();
        if hits != 1 {
            return Err(format!(
                "{}: mutation anchor {:?} matched {hits} times (expected 1)",
                m.name, m.find
            ));
        }
        fs::write(&path, original.replacen(m.find, m.replace, 1))
            .map_err(|e| format!("{}: {e}", m.file))?;

        let caught = match &m.catcher {
            Catcher::Lint(rule) => {
                let found = lint_tree(&tree)?;
                let hit = found.iter().any(|v| v.rule == *rule);
                if !hit {
                    println!("  lints reported: {found:?}");
                }
                hit
            }
            Catcher::Harness { test_file, filter } => {
                !harness_passes(&tree, &shared_target, &["--test", test_file, filter])?
            }
        };
        fs::write(&path, original).map_err(|e| format!("restoring {}: {e}", m.file))?;
        if !caught {
            return Err(format!("{} was NOT caught", m.name));
        }
        println!("  caught");
    }

    // Restored tree must be green again: both layers, one more time.
    let clean = lint_tree(&tree)?;
    if !clean.is_empty() {
        return Err(format!("restored copy fails lints: {:?}", clean[0]));
    }
    println!("self-test: restored copy model-check run (must be green again)");
    if !harness_passes(&tree, &shared_target, &both)? {
        return Err("restored copy fails the model-check harnesses".into());
    }
    Ok(())
}

/// Runs the `aiac-check` harness tests in `tree` under `--cfg aiac_check`,
/// returning whether they passed. Build artifacts are shared across
/// mutations via a dedicated target dir, so only the mutated crate rebuilds.
fn harness_passes(tree: &Path, shared_target: &Path, args: &[&str]) -> Result<bool, String> {
    let out = Command::new("cargo")
        .arg("test")
        .args(["-p", "aiac-check", "-q"])
        .args(args)
        .current_dir(tree)
        .env("RUSTFLAGS", "--cfg aiac_check")
        .env("CARGO_TARGET_DIR", shared_target)
        .output()
        .map_err(|e| format!("spawning cargo: {e}"))?;
    if !out.status.success() {
        let tail: String = String::from_utf8_lossy(&out.stderr)
            .lines()
            .rev()
            .take(4)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect::<Vec<_>>()
            .join("\n  | ");
        println!("  harness exit: {} \n  | {tail}", out.status);
    }
    Ok(out.status.success())
}

/// Recursively copies the repo, skipping build artifacts and VCS state.
fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| e.to_string())?;
    let entries = fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        if name == "target" || name == ".git" {
            continue;
        }
        let src = entry.path();
        let dst = to.join(&name);
        let ty = entry.file_type().map_err(|e| e.to_string())?;
        if ty.is_dir() {
            copy_tree(&src, &dst)?;
        } else if ty.is_file() {
            fs::copy(&src, &dst).map_err(|e| format!("{}: {e}", src.display()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings_but_not_code() {
        let src = r#"let x = "unsafe in a string"; // unsafe in a comment
/* unsafe in /* a nested */ block */ let y = 'u'; unsafe { op() }"#;
        let masked = mask_code(src);
        let sites: Vec<_> = masked
            .lines()
            .flat_map(|l| token_sites(l, "unsafe"))
            .collect();
        assert_eq!(sites.len(), 1, "only the code token survives: {masked}");
        assert!(masked.contains("let x ="));
        assert!(masked.contains("let y ="));
    }

    #[test]
    fn token_sites_are_identifier_aware() {
        assert_eq!(token_sites("unsafe_code and unsafe", "unsafe"), vec![16]);
        assert_eq!(token_sites("Ordering::SeqCst", "Ordering"), vec![0]);
        assert!(token_sites("MyOrdering::SeqCst", "Ordering").is_empty());
    }

    #[test]
    fn raw_strings_and_lifetimes_do_not_confuse_the_lexer() {
        let src = "fn f<'a>(s: &'a str) { let r = r#\"Ordering::Relaxed\"#; g(r); }";
        let masked = mask_code(src);
        assert!(!masked.contains("Ordering"), "{masked}");
        assert!(masked.contains("fn f<'a>"));
    }

    #[test]
    fn the_repo_itself_is_clean() {
        let root = workspace_root().expect("workspace root");
        let violations = lint_tree(&root).expect("lint run");
        assert!(
            violations.is_empty(),
            "repo lint violations: {violations:#?}"
        );
    }
}
