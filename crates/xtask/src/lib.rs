//! Source-level workspace invariant linter (`cargo run -p xtask -- check`).
//!
//! The parallel substrate's soundness rests on conventions no compiler
//! checks on a stable offline toolchain: `unsafe` sites must state their
//! invariant, threads must only ever be spawned by the substrate, raw
//! sync primitives outside the substrate need an explicit, justified
//! exception, and relaxed atomics must say why relaxed is enough. This
//! crate enforces those conventions with a small hand-rolled pass (no
//! `syn` — the environment has no registry access):
//!
//! 1. **SafetyComment** — every line whose code contains the `unsafe`
//!    token must carry a `// SAFETY:` comment on the same line, in the
//!    contiguous comment/attribute block directly above, or (for
//!    `unsafe fn` declarations) a `# Safety` doc section. Applies
//!    everywhere, tests included.
//! 2. **ThreadSpawn** — `thread::spawn` / `thread::scope` /
//!    `thread::Builder` appear nowhere outside the `boson_num::pool`
//!    facade and the model-checker substrate. Applies everywhere.
//! 3. **SyncPrimitive** — `Mutex` / `MutexGuard` / `Condvar` / `RwLock`
//!    and raw `Atomic*` types outside the facade/substrate require an
//!    entry in the allowlist (with a reason). Test code is exempt.
//! 4. **RelaxedJustification** — every `Ordering::Relaxed` must have a
//!    comment containing `Relaxed:` on the same line or within the four
//!    lines above. Test code is exempt.
//!
//! The pass lexes each file just enough to separate code from comments
//! and strings (nested block comments, raw strings, char-vs-lifetime),
//! so tokens inside strings or docs never count, and finds `#[cfg(test)]`
//! module regions by brace matching. Fixture files under
//! `crates/xtask/tests/fixtures/` exercise each rule in both directions.

use std::fmt;
use std::path::Path;

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// An `unsafe` site without a `// SAFETY:` comment.
    SafetyComment,
    /// A thread spawn outside the substrate.
    ThreadSpawn,
    /// A raw sync primitive outside the substrate without an allowlist
    /// entry.
    SyncPrimitive,
    /// An `Ordering::Relaxed` without a `Relaxed:` justification.
    RelaxedJustification,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Rule::SafetyComment => "safety-comment",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::SyncPrimitive => "sync-primitive",
            Rule::RelaxedJustification => "relaxed-justification",
        };
        f.write_str(name)
    }
}

/// One linter finding: file, 1-based line, rule, and what to do.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule broken.
    pub rule: Rule,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A permitted raw-sync-primitive use outside the substrate.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative path the exception applies to.
    pub file: &'static str,
    /// The primitive token permitted there (e.g. `"Mutex"`).
    pub token: &'static str,
    /// Why the primitive is sound there (shown in `--explain`-style
    /// listings; also keeps the allowlist honest).
    pub reason: &'static str,
}

/// Linter configuration: which paths are substrate, which are skipped,
/// and which raw-sync uses are allowed.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files *allowed* to spawn threads and use raw sync primitives
    /// (path suffixes): the pool facade.
    pub facade: Vec<&'static str>,
    /// Directory prefixes treated like the facade (the model checker
    /// must build on raw primitives; the linter itself holds the rule
    /// tokens).
    pub substrate: Vec<&'static str>,
    /// Directory prefixes never linted (vendored code, build output,
    /// fixture files that are *meant* to violate rules).
    pub skip: Vec<&'static str>,
    /// Permitted raw-sync uses outside facade/substrate.
    pub allow_sync: Vec<AllowEntry>,
}

/// The workspace's checked-in configuration.
pub fn default_config() -> Config {
    Config {
        facade: vec!["crates/num/src/pool.rs", "crates/num/src/sync.rs"],
        substrate: vec!["crates/check/", "crates/xtask/"],
        skip: vec![
            "vendor/",
            "target/",
            ".git/",
            // Fixtures deliberately violate every rule.
            "crates/xtask/tests/fixtures/",
        ],
        allow_sync: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Lexer: split source into per-line code text and comment text
// ---------------------------------------------------------------------

/// Per-line views of a source file with strings and comments separated
/// out of the code channel.
struct Lexed {
    /// Code with comments and string/char contents blanked.
    code: Vec<String>,
    /// Comment text (line + block, doc included), code blanked.
    comment: Vec<String>,
}

fn lex(src: &str) -> Lexed {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut code = vec![String::new()];
    let mut comment = vec![String::new()];
    let mut st = State::Code;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == State::LineComment {
                st = State::Code;
            }
            code.push(String::new());
            comment.push(String::new());
            i += 1;
            continue;
        }
        match st {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    st = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw (byte) strings: r"...", r#"..."#, br#"..."#.
                if (c == 'r' || (c == 'b' && next == Some('r'))) && !prev_is_ident(&chars, i) {
                    let mut j = i + if c == 'b' { 2 } else { 1 };
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        st = State::RawStr(hashes);
                        code.last_mut().unwrap().push(' ');
                        i = j + 1;
                        continue;
                    }
                }
                if c == '"' {
                    st = State::Str;
                    code.last_mut().unwrap().push(' ');
                    i += 1;
                    continue;
                }
                if c == '\'' && !prev_is_ident(&chars, i) {
                    // Char literal vs lifetime: 'x' or '\..' is a char;
                    // 'ident (no closing quote right after) is a
                    // lifetime and stays in code.
                    if chars.get(i + 1) == Some(&'\\')
                        || (chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\''))
                    {
                        st = State::Char;
                        code.last_mut().unwrap().push(' ');
                        i += 1;
                        continue;
                    }
                }
                code.last_mut().unwrap().push(c);
                i += 1;
            }
            State::LineComment => {
                comment.last_mut().unwrap().push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    comment.last_mut().unwrap().push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    st = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = State::Code;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    st = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    Lexed { code, comment }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// `true` when `tok` occurs in `line` as a whole identifier.
fn has_token(line: &str, tok: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(tok) {
        let start = from + pos;
        let end = start + tok.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `true` when `line` contains an `Atomic*` type token (`AtomicUsize`,
/// `AtomicBool`, …) as a whole identifier.
fn has_atomic_token(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("Atomic") {
        let start = from + pos;
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let next = bytes.get(start + "Atomic".len()).copied();
        if before_ok && next.is_some_and(|b| b.is_ascii_uppercase()) {
            return true;
        }
        from = start + 1;
    }
    false
}

// ---------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------

/// Marks the lines belonging to `#[cfg(test)]` items (attribute through
/// the close of the following brace block).
fn test_region_mask(lexed: &Lexed) -> Vec<bool> {
    let n = lexed.code.len();
    let mut mask = vec![false; n];
    let mut line = 0;
    while line < n {
        let code = &lexed.code[line];
        if let Some(col) = code.find("#[cfg(test)]") {
            // From the end of the attribute, scan for the first `{` and
            // its matching `}` (the annotated module/item body).
            let mut depth = 0i32;
            let mut opened = false;
            let mut l = line;
            let mut start_col = col + "#[cfg(test)]".len();
            'outer: while l < n {
                for ch in lexed.code[l][start_col..].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                    if opened && depth == 0 {
                        mask[line..=l].iter_mut().for_each(|m| *m = true);
                        line = l;
                        break 'outer;
                    }
                }
                mask[l] = true;
                l += 1;
                start_col = 0;
            }
        }
        line += 1;
    }
    mask
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

fn path_matches(rel: &str, suffixes: &[&str]) -> bool {
    suffixes
        .iter()
        .any(|s| rel.ends_with(s) || rel.starts_with(s) || rel.contains(&format!("/{s}")))
}

fn is_test_path(rel: &str) -> bool {
    ["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|seg| rel.contains(seg))
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
}

/// `true` when the contiguous comment/attribute block directly above
/// `line` (or `line` itself) contains `needle`.
fn comment_above_contains(lexed: &Lexed, line: usize, needle: &str) -> bool {
    if lexed.comment[line].contains(needle) {
        return true;
    }
    let mut l = line;
    while l > 0 {
        l -= 1;
        let code = lexed.code[l].trim();
        let is_attr_or_blank = code.is_empty() || code.starts_with('#');
        if !is_attr_or_blank {
            return false;
        }
        if lexed.comment[l].contains(needle) {
            return true;
        }
    }
    false
}

/// `true` when any comment on `line` or the `span` lines above contains
/// `needle` (used for `Relaxed:` justifications, which may sit above a
/// short run of related atomic ops).
fn comment_within_contains(lexed: &Lexed, line: usize, span: usize, needle: &str) -> bool {
    let lo = line.saturating_sub(span);
    (lo..=line).any(|l| lexed.comment[l].contains(needle))
}

/// Lints one file's source text. `rel` is the workspace-relative path
/// (used for substrate/test classification and in messages).
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let rel = rel.replace('\\', "/");
    let lexed = lex(src);
    let in_substrate = path_matches(&rel, &cfg.facade) || path_matches(&rel, &cfg.substrate);
    let test_file = is_test_path(&rel);
    let test_mask = test_region_mask(&lexed);
    let mut out = Vec::new();
    for (idx, code) in lexed.code.iter().enumerate() {
        let lineno = idx + 1;
        let in_test = test_file || test_mask[idx];
        // Rule 1: SAFETY comments, everywhere.
        if has_token(code, "unsafe")
            && !comment_above_contains(&lexed, idx, "SAFETY:")
            && !comment_above_contains(&lexed, idx, "# Safety")
        {
            out.push(Violation {
                file: rel.clone(),
                line: lineno,
                rule: Rule::SafetyComment,
                message: "`unsafe` without a `// SAFETY:` comment stating the \
                          invariant that makes it sound"
                    .into(),
            });
        }
        // Rule 2: thread spawns only in the substrate, everywhere.
        if !in_substrate {
            for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
                if code.contains(pat) {
                    out.push(Violation {
                        file: rel.clone(),
                        line: lineno,
                        rule: Rule::ThreadSpawn,
                        message: format!(
                            "`{pat}` outside the parallel substrate — dispatch \
                             on `boson_num::pool` instead (the process owns \
                             exactly one set of workers)"
                        ),
                    });
                }
            }
        }
        // Rule 3: raw sync primitives need an allowlist entry.
        if !in_substrate && !in_test {
            let mut flag = |token: &str| {
                let allowed = cfg
                    .allow_sync
                    .iter()
                    .any(|e| rel.ends_with(e.file) && e.token == token);
                if !allowed {
                    out.push(Violation {
                        file: rel.clone(),
                        line: lineno,
                        rule: Rule::SyncPrimitive,
                        message: format!(
                            "raw `{token}` outside the parallel substrate — go \
                             through `boson_num::pool`, or add an allowlist \
                             entry in xtask's default_config with a reason"
                        ),
                    });
                }
            };
            for token in ["Mutex", "MutexGuard", "Condvar", "RwLock"] {
                if has_token(code, token) {
                    flag(token);
                }
            }
            if has_atomic_token(code) {
                flag("Atomic");
            }
        }
        // Rule 4: Relaxed needs a written justification.
        if !in_test
            && code.contains("Ordering::Relaxed")
            && !comment_within_contains(&lexed, idx, 4, "Relaxed:")
        {
            out.push(Violation {
                file: rel.clone(),
                line: lineno,
                rule: Rule::RelaxedJustification,
                message: "`Ordering::Relaxed` without a `// Relaxed:` comment \
                          justifying why no ordering is needed"
                    .into(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Tree walk
// ---------------------------------------------------------------------

/// Lints every `.rs` file under `root` (minus [`Config::skip`]),
/// returning all violations sorted by path and line.
pub fn lint_tree(root: &Path, cfg: &Config) -> Vec<Violation> {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, &mut files);
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let src = match std::fs::read_to_string(root.join(&rel)) {
            Ok(s) => s,
            Err(_) => continue, // non-UTF-8 or vanished mid-walk
        };
        out.extend(lint_source(&rel, &src, cfg));
    }
    out
}

fn collect_rs_files(root: &Path, dir: &Path, cfg: &Config, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if cfg
            .skip
            .iter()
            .any(|s| rel.starts_with(s) || format!("{rel}/").starts_with(s))
        {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, cfg, out);
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(violations: &[Violation]) -> Vec<Rule> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn lexer_separates_comments_and_strings() {
        let lexed =
            lex("let x = \"unsafe Mutex\"; // unsafe note\nlet y = 1; /* Mutex */ let z = 2;\n");
        assert!(!lexed.code[0].contains("unsafe"));
        assert!(lexed.comment[0].contains("unsafe note"));
        assert!(!lexed.code[1].contains("Mutex"));
        assert!(lexed.code[1].contains("let z"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_lifetimes() {
        let lexed = lex(
            "let p = r#\"thread::spawn \"quoted\" \"#;\nfn f<'a>(x: &'a str) -> char { 'M' }\n",
        );
        assert!(!lexed.code[0].contains("thread::spawn"));
        assert!(lexed.code[1].contains("'a"), "lifetimes stay in code");
        assert!(!lexed.code[1].contains('M'), "char literal stripped");
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let lexed = lex("/* outer /* Mutex */ still comment */ let a = 1;\n");
        assert!(!lexed.code[0].contains("Mutex"));
        assert!(lexed.code[0].contains("let a"));
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let v = lint_source(
            "crates/foo/src/a.rs",
            "fn f() { unsafe { g(); } }\n",
            &default_config(),
        );
        assert_eq!(rules_of(&v), vec![Rule::SafetyComment]);
    }

    #[test]
    fn safety_comment_above_or_inline_passes() {
        let cfg = default_config();
        let above = "// SAFETY: g upholds the contract.\nfn f() { unsafe { g(); } }\n";
        let inline = "fn f() { unsafe { g(); } } // SAFETY: g upholds the contract.\n";
        let doc = "/// # Safety\n/// Caller guarantees x.\npub unsafe fn f() {}\n";
        assert!(lint_source("crates/foo/src/a.rs", above, &cfg).is_empty());
        assert!(lint_source("crates/foo/src/a.rs", inline, &cfg).is_empty());
        assert!(lint_source("crates/foo/src/a.rs", doc, &cfg).is_empty());
    }

    #[test]
    fn safety_comment_separated_by_code_does_not_count() {
        let cfg = default_config();
        let src = "// SAFETY: stale.\nlet x = 1;\nunsafe { g(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/foo/src/a.rs", src, &cfg)),
            vec![Rule::SafetyComment]
        );
    }

    #[test]
    fn thread_spawn_outside_substrate_is_flagged_even_in_tests() {
        let cfg = default_config();
        let v = lint_source(
            "crates/foo/tests/t.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
            &cfg,
        );
        assert_eq!(rules_of(&v), vec![Rule::ThreadSpawn]);
        assert!(lint_source(
            "crates/num/src/pool.rs",
            "fn f() { std::thread::scope(|_| {}); }\n",
            &cfg
        )
        .is_empty());
    }

    #[test]
    fn raw_sync_needs_allowlist_outside_substrate() {
        let cfg = default_config();
        let v = lint_source(
            "crates/foo/src/a.rs",
            "static M: Mutex<u32> = Mutex::new(0);\n",
            &cfg,
        );
        assert_eq!(rules_of(&v), vec![Rule::SyncPrimitive]);
        // No file is allowlisted: a raw Mutex in the runner is flagged too.
        let v = lint_source("crates/core/src/runner.rs", "use std::sync::Mutex;\n", &cfg);
        assert_eq!(rules_of(&v), vec![Rule::SyncPrimitive]);
        // Atomics are covered by the Atomic* family token.
        let v = lint_source(
            "crates/foo/src/a.rs",
            "use std::sync::atomic::AtomicU32;\n",
            &cfg,
        );
        assert_eq!(rules_of(&v), vec![Rule::SyncPrimitive]);
    }

    #[test]
    fn sync_rule_exempts_test_regions() {
        let cfg = default_config();
        let src = "fn main() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    #[test]\n    fn t() { let _ = Mutex::new(0); }\n}\n";
        assert!(lint_source("crates/foo/src/a.rs", src, &cfg).is_empty());
    }

    #[test]
    fn relaxed_needs_a_written_justification() {
        let cfg = default_config();
        let bad = "fn f(a: &A) { a.n.store(0, Ordering::Relaxed); }\n";
        let v = lint_source("crates/num/src/other.rs", bad, &cfg);
        assert_eq!(rules_of(&v), vec![Rule::RelaxedJustification]);
        let good = "// Relaxed: pure counter, no data published.\nfn f(a: &A) { a.n.store(0, Ordering::Relaxed); }\n";
        assert!(lint_source("crates/num/src/other.rs", good, &cfg).is_empty());
    }

    #[test]
    fn token_matching_requires_identifier_boundaries() {
        let cfg = default_config();
        // `PoolMutex` or `MutexLike` must not trip the Mutex rule.
        let src = "struct PoolMutexLike;\nfn f(x: MutexLike2) {}\n";
        assert!(lint_source("crates/foo/src/a.rs", src, &cfg).is_empty());
    }

    #[test]
    fn live_tree_is_clean() {
        // The repo itself must satisfy its own invariants — this is the
        // in-process twin of `cargo run -p xtask -- check`.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        let violations = lint_tree(root, &default_config());
        assert!(
            violations.is_empty(),
            "workspace invariant violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
