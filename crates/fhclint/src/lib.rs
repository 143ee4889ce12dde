//! fhc-lint: a repo-aware static analysis pass for the shardnet serving tier.
//!
//! The distributed serving code (hpcutil mux/frame, fhc::shardnet, the
//! daemon binaries) keeps re-growing the same bug classes in review: panics
//! inside mux threads, accepted sockets missing a read *or* write
//! deadline, unbounded `mpsc::channel()` queues in daemon paths, detached
//! threads nobody joins, and encode/decode drift in the hand-rolled wire
//! codecs. This crate mechanizes that checklist. The environment is offline
//! (no clippy plugins, no syn), so the analysis is a hand-rolled token-level
//! pass: a comment/string-aware lexer plus brace-tracked item scoping — no
//! full parse, which is enough for every rule below because each one keys off
//! call-site tokens and enclosing-function extents, not types.
//!
//! Rules:
//! - `no_panic` (R1): no `.unwrap()` / `.expect(..)` / `panic!` /
//!   `unreachable!` in non-test daemon code — convert to typed
//!   `MuxError`/`NetError` returns.
//! - `socket_deadlines` (R2): a function that accepts a `TcpStream` /
//!   `UnixStream` (calls `.accept()` or `.incoming()`) must call **both**
//!   `set_read_timeout` and `set_write_timeout`.
//! - `bounded_channels` (R3): no unbounded `mpsc::channel()` in daemon
//!   modules — use `sync_channel` with an explicit bound.
//! - `join_or_detach` (R4): a `spawn(..)` whose `JoinHandle` is discarded at
//!   statement level is a violation; keep the handle (bind, store, return,
//!   join inline) or carry an explicit detach waiver.
//! - `codec_symmetry` (R5): the `put_*` call sequence in each `encode_X` fn
//!   must mirror the `get_*` sequence in its paired `decode_X` fn.
//! - `bounded_retry` (R6): a `loop`/`while` body that dials connections
//!   (`connect*`/`*dial*` calls) must reference a backoff or deadline
//!   binding — an unbounded hot redial loop hammers a dead peer.
//! - `failpoint_named` (R7): every `failpoint::hit(..)` / shardnet
//!   `inject(..)` call must name its site as a bare string literal that is
//!   registered in `hpcutil::failpoint::SITES` — computed names defeat
//!   grep, and unregistered names make `--failpoints` specs silently inert.
//!
//! Waivers: `// fhc-lint: allow(rule_name) -- reason` on the flagged line or
//! on its own line directly above. The reason is mandatory; a malformed
//! waiver, and a stale one that suppresses no violation, are themselves
//! (non-waivable) `waiver_syntax` violations, and waivers are counted in
//! the summary so creep stays visible in CI.

use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The rule catalog. Order here fixes report order.
pub const RULES: [RuleInfo; 8] = [
    RuleInfo {
        id: "R1",
        name: "no_panic",
        summary: "no unwrap/expect/panic!/unreachable! in non-test daemon code",
    },
    RuleInfo {
        id: "R2",
        name: "socket_deadlines",
        summary: "accepting fns must set both set_read_timeout and set_write_timeout",
    },
    RuleInfo {
        id: "R3",
        name: "bounded_channels",
        summary: "no unbounded mpsc::channel() in daemon modules; use sync_channel",
    },
    RuleInfo {
        id: "R4",
        name: "join_or_detach",
        summary: "spawn handles must be kept/joined or carry a detach waiver",
    },
    RuleInfo {
        id: "R5",
        name: "codec_symmetry",
        summary: "encode_X put_* sequence must mirror decode_X get_* sequence",
    },
    RuleInfo {
        id: "R6",
        name: "bounded_retry",
        summary: "retry loops that dial connections must be bounded by a backoff/deadline",
    },
    RuleInfo {
        id: "R7",
        name: "failpoint_named",
        summary: "failpoint sites must be string literals registered in hpcutil::failpoint::SITES",
    },
    RuleInfo {
        id: "W0",
        name: "waiver_syntax",
        summary: "fhc-lint waivers must name a known rule, give a reason, and suppress a violation",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    pub id: &'static str,
    pub name: &'static str,
    pub summary: &'static str,
}

pub fn rule_by_name(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Which rules apply to a given file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    pub no_panic: bool,
    pub socket_deadlines: bool,
    pub bounded_channels: bool,
    pub join_or_detach: bool,
    pub codec_symmetry: bool,
    pub bounded_retry: bool,
    pub failpoint_named: bool,
}

impl RuleSet {
    pub fn all() -> Self {
        RuleSet {
            no_panic: true,
            socket_deadlines: true,
            bounded_channels: true,
            join_or_detach: true,
            codec_symmetry: true,
            bounded_retry: true,
            failpoint_named: true,
        }
    }

    pub fn is_empty(&self) -> bool {
        *self == RuleSet::default()
    }
}

/// Path classification mirroring the review checklist's blast radius: the
/// connection mux, framing, everything under shardnet, and
/// the daemon binaries. Test trees, examples, benches, fixtures, and vendored
/// shims are exempt wholesale.
pub fn rules_for_path(path: &str) -> RuleSet {
    let p = path.replace('\\', "/");
    let exempt = ["/tests/", "/examples/", "/benches/", "/fixtures/"]
        .iter()
        .any(|frag| p.contains(frag))
        || p.contains("vendor/")
        || p.contains("/target/");
    if exempt {
        return RuleSet::default();
    }
    let daemon_core = p.contains("crates/fhc/src/shardnet/")
        || p.contains("crates/fhc/src/bin/")
        || p.ends_with("crates/hpcutil/src/mux.rs")
        || p.ends_with("crates/hpcutil/src/frame.rs");
    // Codec symmetry additionally covers all of hpcutil (home of the
    // ByteWriter/ByteReader codec layer the wire formats are built on).
    let codec = daemon_core || p.contains("crates/hpcutil/src/");
    RuleSet {
        no_panic: daemon_core,
        socket_deadlines: daemon_core,
        bounded_channels: daemon_core,
        join_or_detach: daemon_core,
        codec_symmetry: codec,
        bounded_retry: daemon_core,
        failpoint_named: daemon_core,
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
    Str,
    Char,
    Num,
    Lifetime,
}

#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// A waiver comment, resolved to the source line it covers.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub reason: String,
    /// Line of the comment itself.
    pub comment_line: u32,
    /// True if nothing but whitespace preceded the comment on its line (the
    /// waiver then covers the next code line instead of its own).
    pub standalone: bool,
}

/// A `fhc-lint:` comment that failed to parse as a waiver.
#[derive(Debug, Clone)]
pub struct BadWaiver {
    pub line: u32,
    pub detail: String,
}

pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub waivers: Vec<Waiver>,
    pub bad_waivers: Vec<BadWaiver>,
}

pub fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut waivers = Vec::new();
    let mut bad_waivers = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut line_has_token = false;

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            line_has_token = false;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments (and waiver extraction).
        if c == '/' && bytes.get(i + 1) == Some(&'/') {
            let start = i;
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            parse_waiver_comment(&text, line, !line_has_token, &mut waivers, &mut bad_waivers);
            continue;
        }
        // Block comments, nested.
        if c == '/' && bytes.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == '\n' {
                    line += 1;
                    line_has_token = false;
                } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 1;
                } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 1;
                }
                i += 1;
            }
            continue;
        }
        // Raw strings / raw identifiers / byte strings share prefixes with
        // plain identifiers, so they are resolved before the identifier arm.
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            if c == 'b' && bytes.get(j) == Some(&'r') {
                j += 1;
            }
            let mut hashes = 0usize;
            while bytes.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            let raw_prefix_ok = c == 'r' || (c == 'b' && bytes.get(i + 1) == Some(&'r'));
            if raw_prefix_ok && bytes.get(j) == Some(&'"') {
                // Raw (byte) string: scan for `"` followed by `hashes` #s.
                i = j + 1;
                loop {
                    match bytes.get(i) {
                        None => break,
                        Some('\n') => {
                            line += 1;
                            i += 1;
                        }
                        Some('"') => {
                            let mut k = i + 1;
                            let mut seen = 0usize;
                            while seen < hashes && bytes.get(k) == Some(&'#') {
                                seen += 1;
                                k += 1;
                            }
                            i = k;
                            if seen == hashes {
                                break;
                            }
                        }
                        Some(_) => i += 1,
                    }
                }
                tokens.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                });
                line_has_token = true;
                continue;
            }
            if c == 'r' && hashes == 1 && bytes.get(j).is_some_and(|&ch| is_ident_start(ch)) {
                // Raw identifier r#name.
                let start = j;
                let mut k = j;
                while k < bytes.len() && is_ident_cont(bytes[k]) {
                    k += 1;
                }
                tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: bytes[start..k].iter().collect(),
                    line,
                });
                line_has_token = true;
                i = k;
                continue;
            }
            if c == 'b' && hashes == 0 && bytes.get(i + 1) == Some(&'"') {
                i += 1; // fall through to the string arm below
                let end = scan_string(&bytes, i, &mut line, &mut line_has_token);
                tokens.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                });
                line_has_token = true;
                i = end;
                continue;
            }
            if c == 'b' && hashes == 0 && bytes.get(i + 1) == Some(&'\'') {
                i += 1; // byte char literal, handled like a char literal
                let end = scan_char_literal(&bytes, i);
                tokens.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                line_has_token = true;
                i = end;
                continue;
            }
            // else: plain identifier starting with r/b, falls through.
        }
        if c == '"' {
            let end = scan_string(&bytes, i, &mut line, &mut line_has_token);
            // Keep the literal's raw content (escapes verbatim): R7 matches
            // failpoint site names against the registry by text. Other rules
            // key off Ident/Punct tokens and never read Str text.
            let content_end = if bytes.get(end.wrapping_sub(1)) == Some(&'"') {
                end - 1
            } else {
                end // unterminated at EOF
            };
            tokens.push(Tok {
                kind: TokKind::Str,
                text: bytes[i + 1..content_end.max(i + 1)].iter().collect(),
                line,
            });
            line_has_token = true;
            i = end;
            continue;
        }
        if c == '\'' {
            // Lifetime vs char literal: a backslash or a close-quote two
            // characters out means char literal; otherwise lifetime.
            let next = bytes.get(i + 1).copied();
            let is_char = match next {
                Some('\\') => true,
                Some(n) if is_ident_start(n) => bytes.get(i + 2) == Some(&'\''),
                Some(_) => true, // e.g. '(' — only valid as a char literal
                None => false,
            };
            if is_char {
                let end = scan_char_literal(&bytes, i);
                tokens.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                line_has_token = true;
                i = end;
            } else {
                let mut k = i + 1;
                while k < bytes.len() && is_ident_cont(bytes[k]) {
                    k += 1;
                }
                tokens.push(Tok {
                    kind: TokKind::Lifetime,
                    text: String::new(),
                    line,
                });
                line_has_token = true;
                i = k;
            }
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < bytes.len() && is_ident_cont(bytes[i]) {
                i += 1;
            }
            tokens.push(Tok {
                kind: TokKind::Ident,
                text: bytes[start..i].iter().collect(),
                line,
            });
            line_has_token = true;
            continue;
        }
        if c.is_ascii_digit() {
            while i < bytes.len() && is_ident_cont(bytes[i]) {
                i += 1;
            }
            tokens.push(Tok {
                kind: TokKind::Num,
                text: String::new(),
                line,
            });
            line_has_token = true;
            continue;
        }
        tokens.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        line_has_token = true;
        i += 1;
    }

    Lexed {
        tokens,
        waivers,
        bad_waivers,
    }
}

fn scan_string(bytes: &[char], open: usize, line: &mut u32, line_has_token: &mut bool) -> usize {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            // An escaped newline (string continuation) still ends a source
            // line — skipping it uncounted would shift every line number
            // reported after the string, detaching waivers from their code.
            '\\' => {
                if bytes.get(i + 1) == Some(&'\n') {
                    *line += 1;
                    *line_has_token = false;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                *line_has_token = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn scan_char_literal(bytes: &[char], open: usize) -> usize {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn parse_waiver_comment(
    comment: &str,
    line: u32,
    standalone: bool,
    waivers: &mut Vec<Waiver>,
    bad: &mut Vec<BadWaiver>,
) {
    let body = comment.trim_start_matches('/').trim();
    let Some(rest) = body.strip_prefix("fhc-lint:") else {
        return;
    };
    let rest = rest.trim();
    let Some(inner) = rest.strip_prefix("allow(") else {
        bad.push(BadWaiver {
            line,
            detail: format!("expected `allow(rule) -- reason`, got {rest:?}"),
        });
        return;
    };
    let Some(close) = inner.find(')') else {
        bad.push(BadWaiver {
            line,
            detail: "unterminated allow( — missing `)`".to_string(),
        });
        return;
    };
    let rule = inner[..close].trim();
    if rule_by_name(rule).is_none() || rule == "waiver_syntax" {
        bad.push(BadWaiver {
            line,
            detail: format!("unknown rule {rule:?} in waiver"),
        });
        return;
    }
    let tail = inner[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("--") else {
        bad.push(BadWaiver {
            line,
            detail: "waiver is missing the mandatory `-- reason`".to_string(),
        });
        return;
    };
    let reason = reason.trim();
    if reason.is_empty() {
        bad.push(BadWaiver {
            line,
            detail: "waiver reason must be non-empty".to_string(),
        });
        return;
    }
    waivers.push(Waiver {
        rule: rule.to_string(),
        reason: reason.to_string(),
        comment_line: line,
        standalone,
    });
}

// ---------------------------------------------------------------------------
// Item scoping (brace-tracked, attribute-aware)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    pub line: u32,
    /// Token index of the opening `{` of the body.
    pub body_start: usize,
    /// Token index of the matching `}` (exclusive end is body_end + 1).
    pub body_end: usize,
    pub is_test: bool,
}

struct ScopeOutcome {
    fns: Vec<FnInfo>,
    /// Token ranges inside `#[cfg(test)] mod` bodies.
    test_spans: Vec<(usize, usize)>,
}

enum Pending {
    None,
    Fn { name: String, line: u32, test: bool },
    Mod { test: bool },
}

fn track_scopes(tokens: &[Tok]) -> ScopeOutcome {
    enum Scope {
        Block,
        Fn { index: usize },
        Mod { test: bool, start: usize },
    }
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut test_spans = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending = Pending::None;
    let mut pending_attr_test = false;
    let mut in_test_mod = 0usize;
    let mut i = 0usize;

    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            // Attribute: #[...] — collect identifiers, looking for `test`
            // (covers #[test] and #[cfg(test)]; `not(test)` is counted as
            // non-test, which matches how this repo uses cfg).
            TokKind::Punct
                if t.text == "#" && tokens.get(i + 1).map(|n| n.text.as_str()) == Some("[") =>
            {
                let mut depth = 0usize;
                let mut j = i + 1;
                let mut saw_test = false;
                let mut saw_not = false;
                while j < tokens.len() {
                    let a = &tokens[j];
                    match (a.kind, a.text.as_str()) {
                        (TokKind::Punct, "[") => depth += 1,
                        (TokKind::Punct, "]") => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        (TokKind::Ident, "test") => saw_test = true,
                        (TokKind::Ident, "not") => saw_not = true,
                        _ => {}
                    }
                    j += 1;
                }
                if saw_test && !saw_not {
                    pending_attr_test = true;
                }
                i = j + 1;
                continue;
            }
            TokKind::Ident if t.text == "fn" => {
                if let Some(name_tok) = tokens.get(i + 1) {
                    if name_tok.kind == TokKind::Ident {
                        pending = Pending::Fn {
                            name: name_tok.text.clone(),
                            line: name_tok.line,
                            test: pending_attr_test || in_test_mod > 0,
                        };
                        pending_attr_test = false;
                        i += 2;
                        continue;
                    }
                }
            }
            TokKind::Ident
                if t.text == "mod" && tokens.get(i + 1).map(|n| n.kind) == Some(TokKind::Ident) =>
            {
                pending = Pending::Mod {
                    test: pending_attr_test || in_test_mod > 0,
                };
                pending_attr_test = false;
                i += 2;
                continue;
            }
            TokKind::Ident if matches!(t.text.as_str(), "struct" | "enum" | "impl" | "trait") => {
                // Item keywords consume any pending cfg(test) attribute so it
                // does not leak onto a later fn.
                pending_attr_test = false;
            }
            TokKind::Punct if t.text == ";" => {
                // A signature-only fn (trait method) or `mod name;` never
                // opens a body; cancel the pending item.
                pending = Pending::None;
            }
            TokKind::Punct if t.text == "{" => {
                match std::mem::replace(&mut pending, Pending::None) {
                    Pending::Fn { name, line, test } => {
                        fns.push(FnInfo {
                            name,
                            line,
                            body_start: i,
                            body_end: usize::MAX,
                            is_test: test,
                        });
                        stack.push(Scope::Fn {
                            index: fns.len() - 1,
                        });
                    }
                    Pending::Mod { test } => {
                        if test {
                            in_test_mod += 1;
                        }
                        stack.push(Scope::Mod { test, start: i });
                    }
                    Pending::None => stack.push(Scope::Block),
                }
            }
            TokKind::Punct if t.text == "}" => match stack.pop() {
                Some(Scope::Fn { index }) => fns[index].body_end = i,
                Some(Scope::Mod { test: true, start }) => {
                    in_test_mod -= 1;
                    test_spans.push((start, i));
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    // Unclosed scopes (truncated input): close at EOF.
    for f in &mut fns {
        if f.body_end == usize::MAX {
            f.body_end = tokens.len().saturating_sub(1);
        }
    }
    ScopeOutcome { fns, test_spans }
}

// ---------------------------------------------------------------------------
// Violations and per-file analysis
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static RuleInfo,
    pub path: String,
    pub line: u32,
    pub message: String,
    /// The waiver reason, when a matching waiver covers this line.
    pub waived: Option<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {}] {}:{} — {}",
            if self.waived.is_some() {
                "waived"
            } else {
                "error"
            },
            self.rule.id,
            self.rule.name,
            self.path,
            self.line,
            self.message
        )
    }
}

pub struct FileReport {
    pub violations: Vec<Violation>,
    pub waiver_count: usize,
}

/// Lint one source file using the rules its path selects.
pub fn lint_source(path: &str, src: &str) -> FileReport {
    lint_source_with(path, src, rules_for_path(path))
}

/// Lint one source file with an explicit rule set (fixture tests use this to
/// route arbitrary paths onto specific rules).
pub fn lint_source_with(path: &str, src: &str, rules: RuleSet) -> FileReport {
    let mut out = Vec::new();
    let lexed = lex(src);

    // Malformed waivers are always violations, even in otherwise-exempt rule
    // sets: a waiver that silently fails to parse would hide a real finding.
    for bad in &lexed.bad_waivers {
        out.push(Violation {
            rule: &RULES[7],
            path: path.to_string(),
            line: bad.line,
            message: bad.detail.clone(),
            waived: None,
        });
    }

    if rules.is_empty() {
        return FileReport {
            violations: out,
            waiver_count: 0,
        };
    }

    let scopes = track_scopes(&lexed.tokens);
    let ctx = FileCtx {
        tokens: &lexed.tokens,
        fns: &scopes.fns,
        test_spans: &scopes.test_spans,
        path,
    };

    if rules.no_panic {
        rule_no_panic(&ctx, &mut out);
    }
    if rules.socket_deadlines {
        rule_socket_deadlines(&ctx, &mut out);
    }
    if rules.bounded_channels {
        rule_bounded_channels(&ctx, &mut out);
    }
    if rules.join_or_detach {
        rule_join_or_detach(&ctx, &mut out);
    }
    if rules.codec_symmetry {
        rule_codec_symmetry(&ctx, &mut out);
    }
    if rules.bounded_retry {
        rule_bounded_retry(&ctx, &mut out);
    }
    if rules.failpoint_named {
        rule_failpoint_named(&ctx, &mut out);
    }

    // Apply waivers: a waiver covers its own line (trailing comment) or, when
    // standalone, the next source line — chains of standalone waivers all
    // resolve to the first code line below them.
    let mut waiver_count = 0usize;
    let mut used = vec![false; lexed.waivers.len()];
    for v in &mut out {
        if v.rule.name == "waiver_syntax" {
            continue;
        }
        let covered = lexed.waivers.iter().position(|w| {
            w.rule == v.rule.name
                && (w.comment_line == v.line
                    || (w.standalone && waiver_target(&lexed, w) == Some(v.line)))
        });
        if let Some(i) = covered {
            v.waived = Some(lexed.waivers[i].reason.clone());
            used[i] = true;
            waiver_count += 1;
        }
    }
    // A waiver that suppresses nothing is stale: the code it excused was
    // fixed or moved, and leaving it would pre-excuse the next violation
    // that lands on its line.
    for (w, _) in lexed.waivers.iter().zip(&used).filter(|(_, &used)| !used) {
        out.push(Violation {
            rule: &RULES[7],
            path: path.to_string(),
            line: w.comment_line,
            message: format!("stale waiver: allow({}) suppresses no violation", w.rule),
            waived: None,
        });
    }
    FileReport {
        violations: out,
        waiver_count,
    }
}

/// The first code line at or below a standalone waiver comment.
fn waiver_target(lexed: &Lexed, w: &Waiver) -> Option<u32> {
    lexed
        .tokens
        .iter()
        .map(|t| t.line)
        .find(|&l| l > w.comment_line)
}

struct FileCtx<'a> {
    tokens: &'a [Tok],
    fns: &'a [FnInfo],
    test_spans: &'a [(usize, usize)],
    path: &'a str,
}

impl<'a> FileCtx<'a> {
    fn is_test_at(&self, idx: usize) -> bool {
        if self.test_spans.iter().any(|&(s, e)| idx > s && idx < e) {
            return true;
        }
        self.enclosing_fn(idx).is_some_and(|f| f.is_test)
    }

    fn enclosing_fn(&self, idx: usize) -> Option<&FnInfo> {
        // Innermost = the fn whose body span is the tightest around idx.
        self.fns
            .iter()
            .filter(|f| idx > f.body_start && idx < f.body_end)
            .min_by_key(|f| f.body_end - f.body_start)
    }

    fn ident(&self, idx: usize) -> Option<&str> {
        let t = self.tokens.get(idx)?;
        (t.kind == TokKind::Ident).then_some(t.text.as_str())
    }

    fn punct(&self, idx: usize) -> Option<&str> {
        let t = self.tokens.get(idx)?;
        (t.kind == TokKind::Punct).then_some(t.text.as_str())
    }

    fn violation(&self, rule: &'static RuleInfo, line: u32, message: String) -> Violation {
        Violation {
            rule,
            path: self.path.to_string(),
            line,
            message,
            waived: None,
        }
    }
}

/// Skip a turbofish (`::<...>`) starting at `idx`; returns the index just
/// past it, or `idx` unchanged if there is none.
fn skip_turbofish(ctx: &FileCtx<'_>, idx: usize) -> usize {
    if ctx.punct(idx) == Some(":")
        && ctx.punct(idx + 1) == Some(":")
        && ctx.punct(idx + 2) == Some("<")
    {
        let mut depth = 1usize;
        let mut j = idx + 3;
        while j < ctx.tokens.len() && depth > 0 {
            match ctx.punct(j) {
                Some("<") => depth += 1,
                Some(">") => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        return j;
    }
    idx
}

/// Index just past the matching `)` of a call whose `(` is at `open`.
fn skip_call(ctx: &FileCtx<'_>, open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < ctx.tokens.len() {
        match ctx.punct(j) {
            Some("(") => depth += 1,
            Some(")") => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

// --- R1: no_panic ----------------------------------------------------------

fn rule_no_panic(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        let flagged = match name {
            "unwrap" | "expect" => {
                ctx.punct(i.wrapping_sub(1)) == Some(".") && ctx.punct(i + 1) == Some("(")
            }
            "panic" | "unreachable" => ctx.punct(i + 1) == Some("!"),
            _ => false,
        };
        if !flagged || ctx.is_test_at(i) {
            continue;
        }
        let what = match name {
            "unwrap" => ".unwrap()",
            "expect" => ".expect(..)",
            "panic" => "panic!",
            _ => "unreachable!",
        };
        out.push(ctx.violation(
            &RULES[0],
            ctx.tokens[i].line,
            format!("{what} in non-test daemon code — return a typed MuxError/NetError instead"),
        ));
    }
}

// --- R2: socket_deadlines --------------------------------------------------

fn rule_socket_deadlines(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for f in ctx.fns {
        if f.is_test {
            continue;
        }
        let mut accept_at: Option<(u32, &str)> = None;
        let mut has_read = false;
        let mut has_write = false;
        for i in f.body_start..=f.body_end.min(ctx.tokens.len().saturating_sub(1)) {
            let Some(name) = ctx.ident(i) else { continue };
            match name {
                "accept" | "incoming"
                    if ctx.punct(i.wrapping_sub(1)) == Some(".")
                        && ctx.punct(i + 1) == Some("(")
                        && accept_at.is_none() =>
                {
                    accept_at = Some((
                        ctx.tokens[i].line,
                        if name == "accept" {
                            "accept()"
                        } else {
                            "incoming()"
                        },
                    ));
                }
                "set_read_timeout" => has_read = true,
                "set_write_timeout" => has_write = true,
                _ => {}
            }
        }
        if let Some((line, how)) = accept_at {
            if !(has_read && has_write) {
                let missing = match (has_read, has_write) {
                    (false, false) => "set_read_timeout and set_write_timeout",
                    (true, false) => "set_write_timeout",
                    (false, true) => "set_read_timeout",
                    _ => unreachable!(),
                };
                out.push(ctx.violation(
                    &RULES[1],
                    line,
                    format!(
                        "fn {} accepts connections via {how} but never calls {missing} — accepted sockets need both deadlines",
                        f.name
                    ),
                ));
            }
        }
    }
}

// --- R3: bounded_channels --------------------------------------------------

fn rule_bounded_channels(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for i in 0..ctx.tokens.len() {
        if ctx.ident(i) != Some("channel") {
            continue;
        }
        // Method calls (`.channel()`) and import paths (`use ...::channel;`)
        // are not constructor calls.
        if ctx.punct(i.wrapping_sub(1)) == Some(".") {
            continue;
        }
        let after = skip_turbofish(ctx, i + 1);
        if ctx.punct(after) != Some("(") {
            continue;
        }
        if ctx.is_test_at(i) {
            continue;
        }
        out.push(ctx.violation(
            &RULES[2],
            ctx.tokens[i].line,
            "unbounded mpsc::channel() in a daemon module — use sync_channel with an explicit bound"
                .to_string(),
        ));
    }
}

// --- R4: join_or_detach ----------------------------------------------------

fn rule_join_or_detach(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for i in 0..ctx.tokens.len() {
        if ctx.ident(i) != Some("spawn") {
            continue;
        }
        let open = skip_turbofish(ctx, i + 1);
        if ctx.punct(open) != Some("(") {
            continue;
        }
        if ctx.is_test_at(i) {
            continue;
        }
        // Walk the method chain after the call; `.join()` anywhere in the
        // chain means the handle is consumed properly.
        let mut j = skip_call(ctx, open);
        let mut joined = false;
        while ctx.punct(j) == Some(".") {
            if let Some(m) = ctx.ident(j + 1) {
                if m == "join" {
                    joined = true;
                }
                let call_open = skip_turbofish(ctx, j + 2);
                if ctx.punct(call_open) == Some("(") {
                    j = skip_call(ctx, call_open);
                } else {
                    j += 2; // field access
                }
            } else {
                break;
            }
        }
        if joined || ctx.punct(j) == Some("?") || ctx.punct(j) != Some(";") {
            // Joined inline, propagated with `?` (caller owns the handle), or
            // the expression's value flows somewhere (argument, tail expr,
            // struct field, collection literal).
            continue;
        }
        // Statement ends in `;` — check whether the value was bound. Walk
        // back to the statement boundary; crossing an unmatched opener means
        // the spawn is nested inside a larger expression (value consumed).
        let mut k = i;
        let mut nested = false;
        let mut saw_let = false;
        let mut let_discard = false;
        let mut assigned = false;
        let mut returned = false;
        let mut depth = 0i32;
        while k > 0 {
            k -= 1;
            let t = &ctx.tokens[k];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth += 1,
                (TokKind::Punct, "(") | (TokKind::Punct, "[") => {
                    depth -= 1;
                    if depth < 0 {
                        nested = true;
                        break;
                    }
                }
                (TokKind::Punct, ";") | (TokKind::Punct, "{") | (TokKind::Punct, "}")
                    if depth == 0 =>
                {
                    break;
                }
                (TokKind::Punct, "=") if depth == 0 => assigned = true,
                (TokKind::Ident, "let") if depth == 0 => saw_let = true,
                (TokKind::Ident, "_") if depth == 0 => let_discard = true,
                (TokKind::Ident, "return") if depth == 0 => returned = true,
                _ => {}
            }
        }
        let kept = nested || returned || (assigned && !(saw_let && let_discard));
        if !kept {
            out.push(ctx.violation(
                &RULES[3],
                ctx.tokens[i].line,
                "spawn handle is discarded — keep and join it, or waive with an explicit detach reason"
                    .to_string(),
            ));
        }
    }
}

// --- R5: codec_symmetry ----------------------------------------------------

fn rule_codec_symmetry(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    // Pair encode_X with decode_X by suffix, within this file. Direct
    // put_*/get_* calls count whether written as methods (`w.put_u32(..)`)
    // or free helpers taking the writer (`put_len_u32(&mut w, ..)`); a
    // `len_` infix is stripped so length-writing helpers compare as the
    // integer they emit. Helpers that delegate entirely have empty
    // sequences and are skipped.
    let seq_of = |f: &FnInfo, prefix: &str| -> Vec<String> {
        let mut seq = Vec::new();
        for i in f.body_start..=f.body_end.min(ctx.tokens.len().saturating_sub(1)) {
            if let Some(name) = ctx.ident(i) {
                if let Some(suffix) = name.strip_prefix(prefix) {
                    let is_definition = ctx.ident(i.wrapping_sub(1)) == Some("fn");
                    if !suffix.is_empty() && !is_definition && ctx.punct(i + 1) == Some("(") {
                        let suffix = suffix.strip_prefix("len_").unwrap_or(suffix);
                        seq.push(suffix.to_string());
                    }
                }
            }
        }
        seq
    };
    for enc in ctx.fns.iter().filter(|f| !f.is_test) {
        let Some(suffix) = enc.name.strip_prefix("encode_") else {
            continue;
        };
        let dec_name = format!("decode_{suffix}");
        let Some(dec) = ctx.fns.iter().find(|f| f.name == dec_name && !f.is_test) else {
            continue;
        };
        let puts = seq_of(enc, "put_");
        let gets = seq_of(dec, "get_");
        if puts.is_empty() || gets.is_empty() {
            continue;
        }
        if puts != gets {
            out.push(ctx.violation(
                &RULES[4],
                dec.line,
                format!(
                    "codec drift: {} writes [{}] but {} reads [{}]",
                    enc.name,
                    puts.join(", "),
                    dec.name,
                    gets.join(", ")
                ),
            ));
        }
    }
}

// --- R6: bounded_retry -----------------------------------------------------

fn rule_bounded_retry(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    // A `loop` / `while` body that dials a connection (any `connect*` or
    // `*dial*` call) is a retry loop: it must reference a backoff or
    // deadline binding somewhere between the keyword and the closing
    // brace, or it will hammer a dead peer at full speed. `for` loops are
    // exempt — iterating a fixed endpoint list dials each peer once.
    let mut i = 0usize;
    while i < ctx.tokens.len() {
        let Some(kw) = ctx.ident(i) else {
            i += 1;
            continue;
        };
        if kw != "loop" && kw != "while" {
            i += 1;
            continue;
        }
        // The loop body's `{` is the first top-level brace after the
        // keyword; `(`/`[` groups in a `while` condition are skipped.
        let mut j = i + 1;
        let mut group = 0usize;
        let open = loop {
            match ctx.punct(j) {
                None if j >= ctx.tokens.len() => break None,
                Some("(") | Some("[") => group += 1,
                Some(")") | Some("]") => group = group.saturating_sub(1),
                Some("{") if group == 0 => break Some(j),
                Some(";") if group == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let mut depth = 0usize;
        let mut close = open;
        while close < ctx.tokens.len() {
            match ctx.punct(close) {
                Some("{") => depth += 1,
                Some("}") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        if !ctx.is_test_at(i) {
            let mut dial_at: Option<u32> = None;
            let mut bounded = false;
            for t in i..=close.min(ctx.tokens.len().saturating_sub(1)) {
                let Some(name) = ctx.ident(t) else { continue };
                if name.contains("backoff") || name.contains("deadline") {
                    bounded = true;
                } else if (name.starts_with("connect") || name.contains("dial"))
                    && ctx.punct(skip_turbofish(ctx, t + 1)) == Some("(")
                    && dial_at.is_none()
                {
                    dial_at = Some(ctx.tokens[t].line);
                }
            }
            if let (Some(line), false) = (dial_at, bounded) {
                out.push(ctx.violation(
                    &RULES[5],
                    line,
                    format!(
                        "`{kw}` body redials connections with no backoff/deadline bound — gate the redial or waive with a reason"
                    ),
                ));
            }
        }
        i = open + 1;
    }
}

// --- R7: failpoint_named ---------------------------------------------------

fn rule_failpoint_named(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    // Every failpoint reference — `failpoint::hit("site")` or the shardnet
    // `inject("site", peer)` wrapper — must name its site as a bare string
    // literal registered in `hpcutil::failpoint::SITES`. Literals keep the
    // registry greppable from a violation report; registry membership keeps
    // a `--failpoints` spec (validated against the same list) from naming a
    // site that nothing ever hits.
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        if name != "hit" && name != "inject" {
            continue;
        }
        if ctx.punct(i + 1) != Some("(") {
            continue;
        }
        // `fn hit(..)` / `fn inject(..)` are definitions, not references.
        if ctx.ident(i.wrapping_sub(1)) == Some("fn") {
            continue;
        }
        if ctx.is_test_at(i) {
            continue;
        }
        let line = ctx.tokens[i].line;
        match ctx.tokens.get(i + 2) {
            Some(t) if t.kind == TokKind::Str => {
                let site = t.text.as_str();
                if !hpcutil::failpoint::SITES.contains(&site) {
                    out.push(ctx.violation(
                        &RULES[6],
                        line,
                        format!(
                            "unknown failpoint site {site:?} — register it in hpcutil::failpoint::SITES"
                        ),
                    ));
                }
            }
            _ => out.push(ctx.violation(
                &RULES[6],
                line,
                format!(
                    "{name}(..) takes a computed site name — failpoint sites must be bare string literals from hpcutil::failpoint::SITES"
                ),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace walking and reporting
// ---------------------------------------------------------------------------

pub struct Report {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

impl Report {
    pub fn unwaived(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.waived.is_none())
    }

    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }

    pub fn waived_count(&self) -> usize {
        self.violations.len() - self.unwaived_count()
    }

    /// Per-rule (unwaived, waived) counts in catalog order.
    pub fn per_rule(&self) -> Vec<(&'static RuleInfo, usize, usize)> {
        RULES
            .iter()
            .map(|r| {
                let mut open = 0;
                let mut waived = 0;
                for v in &self.violations {
                    if v.rule.id == r.id {
                        if v.waived.is_some() {
                            waived += 1;
                        } else {
                            open += 1;
                        }
                    }
                }
                (r, open, waived)
            })
            .collect()
    }
}

/// Recursively collect `.rs` files under `crates/` of the workspace root,
/// skipping vendored shims, build output, and fixture trees.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let mut stack = vec![crates];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every workspace source under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut violations = Vec::new();
    let mut files_scanned = 0usize;
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if rules_for_path(&rel).is_empty() {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        files_scanned += 1;
        violations.extend(lint_source(&rel, &src).violations);
    }
    violations.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    Ok(Report {
        violations,
        files_scanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon_path() -> &'static str {
        "crates/fhc/src/shardnet/fixture.rs"
    }

    fn run(src: &str) -> Vec<Violation> {
        lint_source_with(daemon_path(), src, RuleSet::all()).violations
    }

    fn unwaived(src: &str) -> Vec<Violation> {
        run(src)
            .into_iter()
            .filter(|v| v.waived.is_none())
            .collect()
    }

    #[test]
    fn lexer_skips_comments_and_strings() {
        let src = r##"
            // unwrap() in a comment
            /* panic! in /* nested */ block */
            fn f() {
                let s = "call .unwrap() here";
                let r = r#"panic!("in raw string")"#;
                let c = '"';
                let _ = (s, r, c);
            }
        "##;
        assert!(unwaived(src).is_empty());
    }

    #[test]
    fn lexer_counts_lines_through_string_continuations() {
        // A `\`-newline continuation inside a string literal still ends a
        // source line; miscounting it shifts every later violation line and
        // detaches standalone waivers from the code they cover.
        let src = "
            fn f() {
                let s = \"split \\
                         string\";
                let x = maybe().unwrap();
                let _ = (s, x);
            }
        ";
        let v = unwaived(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule.name, "no_panic");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn waiver_covers_a_method_call_on_its_own_line() {
        let src = "
            fn f() {
                maybe()
                    // fhc-lint: allow(no_panic) -- invariant: cannot fail on an empty registry
                    .expect(\"fresh state\");
            }
        ";
        let all = run(src);
        assert_eq!(all.len(), 1, "{all:?}");
        assert!(all[0].waived.is_some(), "{all:?}");
    }

    #[test]
    fn r1_flags_unwrap_in_non_test_code_only() {
        let src = "
            fn serve() { let x = maybe().unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn ok() { maybe().unwrap(); }
            }
        ";
        let v = unwaived(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule.name, "no_panic");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn r1_ignores_unwrap_or_else() {
        let src = "fn f() { lock().unwrap_or_else(|p| p.into_inner()); }";
        assert!(unwaived(src).is_empty());
    }

    #[test]
    fn waiver_suppresses_with_reason() {
        let src = "
            fn f() {
                // fhc-lint: allow(no_panic) -- invariant: poisoned lock recovered above
                let x = maybe().unwrap();
            }
        ";
        let all = run(src);
        assert_eq!(all.len(), 1);
        assert!(all[0].waived.is_some());
    }

    #[test]
    fn waiver_without_reason_is_a_violation() {
        let src = "
            fn f() {
                // fhc-lint: allow(no_panic)
                let x = maybe().unwrap();
            }
        ";
        let v = unwaived(src);
        assert_eq!(v.len(), 2, "{v:?}"); // malformed waiver + unwaived unwrap
        assert!(v.iter().any(|x| x.rule.name == "waiver_syntax"));
        assert!(v.iter().any(|x| x.rule.name == "no_panic"));
    }

    #[test]
    fn r2_requires_both_deadlines() {
        let src = "
            fn serve(listener: TcpListener) {
                for stream in listener.incoming() {
                    let s = stream?;
                    s.set_read_timeout(Some(T))?;
                }
            }
        ";
        let v = unwaived(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule.name, "socket_deadlines");
        assert!(v[0].message.contains("set_write_timeout"));
    }

    #[test]
    fn r3_flags_unbounded_channel_allows_sync() {
        let src = "
            fn f() {
                let (a, b) = channel::<Vec<u8>>();
                let (c, d) = mpsc::channel();
                let (e, g) = mpsc::sync_channel(8);
            }
        ";
        let v = unwaived(src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule.name == "bounded_channels"));
    }

    #[test]
    fn r4_discarded_spawn_flagged_bound_spawn_ok() {
        let src = "
            fn bad() { std::thread::spawn(move || work()); }
            fn chained() { Builder::new().name(n).spawn(f).expect(m); }
            fn good() {
                let h = std::thread::spawn(move || work());
                h.join();
            }
            fn stored(v: &mut Vec<JoinHandle<()>>) { v.push(std::thread::spawn(f)); }
            fn inline() { std::thread::spawn(f).join(); }
        ";
        let v: Vec<_> = unwaived(src)
            .into_iter()
            .filter(|x| x.rule.name == "join_or_detach")
            .collect();
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
    }

    #[test]
    fn r5_mismatched_codec_pair_flagged() {
        let src = "
            fn encode_point(w: &mut W, p: &P) {
                w.put_u32(p.x);
                w.put_f64(p.y);
            }
            fn decode_point(r: &mut R) -> Result<P, E> {
                let y = r.get_f64()?;
                let x = r.get_u32()?;
                Ok(P { x, y })
            }
        ";
        let v = unwaived(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule.name, "codec_symmetry");
    }

    #[test]
    fn r5_matching_pair_with_loops_ok() {
        let src = "
            fn encode_cells(w: &mut W, cells: &[(u32, f64)]) {
                w.put_u32(cells.len() as u32);
                for (c, s) in cells {
                    w.put_u32(*c);
                    w.put_f64(*s);
                }
            }
            fn decode_cells(r: &mut R) -> Result<Vec<(u32, f64)>, E> {
                let n = r.get_u32()?;
                let mut out = Vec::new();
                for _ in 0..n {
                    out.push((r.get_u32()?, r.get_f64()?));
                }
                Ok(out)
            }
        ";
        assert!(unwaived(src).is_empty());
    }

    #[test]
    fn r6_hot_redial_loop_flagged() {
        let src = "
            fn redial(ep: &Endpoint) -> SplitConn {
                loop {
                    if let Ok(conn) = ep.connect_split() {
                        return conn;
                    }
                }
            }
        ";
        let v = unwaived(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule.name, "bounded_retry");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn r6_backoff_or_deadline_bound_ok() {
        let src = "
            fn redial(ep: &Endpoint, backoff: &BackoffPolicy) -> Result<SplitConn, E> {
                let mut failures = 0u32;
                loop {
                    match ep.connect_split() {
                        Ok(conn) => return Ok(conn),
                        Err(_) => {
                            failures += 1;
                            std::thread::sleep(backoff.delay_for(failures));
                        }
                    }
                }
            }
            fn poll(ep: &Endpoint, deadline: Instant) -> Result<SplitConn, E> {
                while Instant::now() < deadline {
                    if let Ok(conn) = ep.connect_split() {
                        return Ok(conn);
                    }
                }
                Err(E::Timeout)
            }
            fn sweep(eps: &[Endpoint]) {
                for ep in eps {
                    let _ = ep.connect_split();
                }
            }
            fn drain(rx: &Receiver<Job>) {
                while let Ok(job) = rx.recv() {
                    job.run();
                }
            }
        ";
        assert!(unwaived(src).is_empty());
    }

    #[test]
    fn r6_waiver_suppresses_with_reason() {
        let src = "
            fn redial(ep: &Endpoint) -> SplitConn {
                loop {
                    // fhc-lint: allow(bounded_retry) -- caller enforces an overall attempt budget
                    if let Ok(conn) = ep.connect_split() {
                        return conn;
                    }
                }
            }
        ";
        let all = run(src);
        assert_eq!(all.len(), 1, "{all:?}");
        assert!(all[0].waived.is_some());
    }

    #[test]
    fn r7_unknown_site_flagged_registered_site_ok() {
        let src = "
            fn probe() { let _ = crate::failpoint::hit(\"frame.read\"); }
            fn typo() { let _ = crate::failpoint::hit(\"frame.reed\"); }
        ";
        let v = unwaived(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule.name, "failpoint_named");
        assert!(v[0].message.contains("frame.reed"), "{}", v[0].message);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn r7_inject_wrapper_checked_like_hit() {
        let src = "
            fn fan_out(peer: &str) -> Result<(), NetError> {
                crate::shardnet::inject(\"fleet.hedge\", peer)?;
                crate::shardnet::inject(\"fleet.teleport\", peer)
            }
        ";
        let v = unwaived(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("fleet.teleport"));
    }

    #[test]
    fn r7_computed_site_name_flagged_and_waivable() {
        let src = "
            fn relay(site: &str) { let _ = hpcutil::failpoint::hit(site); }
            fn pass_through(site: &str) {
                // fhc-lint: allow(failpoint_named) -- pass-through helper; every caller's literal is checked
                let _ = hpcutil::failpoint::hit(site);
            }
        ";
        let all = run(src);
        assert_eq!(all.len(), 2, "{all:?}");
        let open: Vec<_> = all.iter().filter(|v| v.waived.is_none()).collect();
        assert_eq!(open.len(), 1, "{open:?}");
        assert!(open[0].message.contains("computed site name"));
    }

    #[test]
    fn r7_skips_definitions_and_test_code() {
        let src = "
            fn hit(site: &str) -> Option<Fault> { lookup(site) }
            #[cfg(test)]
            mod tests {
                #[test]
                fn dynamic() { let _ = crate::failpoint::hit(&format!(\"x{}\", 1)); }
            }
        ";
        assert!(unwaived(src).is_empty());
    }

    #[test]
    fn exempt_paths_have_no_rules() {
        assert!(rules_for_path("crates/fhc/tests/remote_serving.rs").is_empty());
        assert!(rules_for_path("crates/fhc/examples/demo.rs").is_empty());
        assert!(rules_for_path("vendor/rand/src/lib.rs").is_empty());
        assert!(rules_for_path("crates/fhc/benches/serving.rs").is_empty());
    }

    #[test]
    fn daemon_paths_get_full_rules() {
        let r = rules_for_path("crates/fhc/src/shardnet/mux_client.rs");
        assert!(r.no_panic && r.socket_deadlines && r.bounded_channels && r.bounded_retry);
        let r = rules_for_path("crates/hpcutil/src/mux.rs");
        assert!(r.no_panic && r.codec_symmetry);
        let r = rules_for_path("crates/hpcutil/src/codec.rs");
        assert!(!r.no_panic && r.codec_symmetry && !r.bounded_retry);
        let r = rules_for_path("crates/fhc/src/bin/fhc_shardd.rs");
        assert!(r.no_panic);
        assert!(rules_for_path("crates/fhc/src/serving.rs").is_empty());
    }
}
