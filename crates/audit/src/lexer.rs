//! The audit's front end: a minimal, dependency-free Rust source scanner.
//!
//! This is deliberately *not* a full lexer. It does four things the rules
//! and the symbol extractor need and nothing more:
//!
//! 1. **Strip** comments and string/char literals, replacing their contents
//!    with spaces (length- and newline-preserving, so byte offsets and line
//!    numbers keep lining up with the original source). Rule matching never
//!    fires on text inside a literal or a comment.
//! 2. **Extract pragmas** of the form `// audit: allow(<rule>, <reason>)`
//!    from line comments, recording the line they sit on.
//! 3. **Tokenize** the stripped text into identifier/punctuation tokens with
//!    line numbers, merging `::` into a single token for convenient matching.
//! 4. **Bundle** one file into a [`Source`]: its path, crate, tokens, test
//!    spans, test-path flag and pragmas. Each file is lexed once; the
//!    per-line rules and [`crate::symbols::extract`] both read the result.
//!
//! Handled literal forms: `// …`, nested `/* … */`, `"…"` with escapes,
//! raw strings `r"…"` / `r#"…"#` (any hash depth, plus `br…` byte forms),
//! char literals `'x'` / `'\n'` / `'\''`, and lifetimes (`'a`, left as-is).

/// One `// audit: allow(rule, reason)` escape hatch found in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    pub rule: String,
    pub reason: String,
}

/// The stripped source plus the pragmas that were mined out of its comments.
#[derive(Debug)]
pub struct Stripped {
    /// Same length as the input; comments and literal contents blanked.
    pub code: String,
    pub pragmas: Vec<Pragma>,
}

/// Parse `audit: allow(rule, reason)` out of a line-comment body.
fn parse_pragma(comment: &str, line: usize) -> Option<Pragma> {
    let idx = comment.find("audit:")?;
    let rest = comment[idx + "audit:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    let inner = &rest[..close];
    let (rule, reason) = match inner.split_once(',') {
        Some((r, why)) => (r.trim(), why.trim()),
        None => (inner.trim(), ""),
    };
    if rule.is_empty() {
        return None;
    }
    Some(Pragma {
        line,
        rule: rule.to_string(),
        reason: reason.to_string(),
    })
}

/// Blank out comments and literals; collect pragmas from line comments.
pub(crate) fn strip(src: &str) -> Stripped {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut pragmas = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Push a blanked byte: newlines survive (line accounting), everything
    // else becomes a space. Multi-byte UTF-8 tails blank to spaces too.
    fn blank(out: &mut Vec<u8>, b: u8, line: &mut usize) {
        if b == b'\n' {
            out.push(b'\n');
            *line += 1;
        } else {
            out.push(b' ');
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        // ── line comment ────────────────────────────────────────────────
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            let body = std::str::from_utf8(&bytes[start..i]).unwrap_or("");
            // only plain `//` comments can waive rules — doc comments
            // (`///`, `//!`) merely *describe* the pragma syntax
            let is_doc = body.starts_with("///") || body.starts_with("//!");
            if !is_doc {
                if let Some(p) = parse_pragma(body, line) {
                    pragmas.push(p);
                }
            }
            out.resize(out.len() + (i - start), b' ');
            continue;
        }
        // ── block comment (nested) ──────────────────────────────────────
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let mut depth = 1usize;
            out.push(b' ');
            out.push(b' ');
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    depth += 1;
                    blank(&mut out, bytes[i], &mut line);
                    blank(&mut out, bytes[i + 1], &mut line);
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    depth -= 1;
                    blank(&mut out, bytes[i], &mut line);
                    blank(&mut out, bytes[i + 1], &mut line);
                    i += 2;
                } else {
                    blank(&mut out, bytes[i], &mut line);
                    i += 1;
                }
            }
            continue;
        }
        // ── raw string: r"…", r#"…"#, br#"…"# ───────────────────────────
        let raw_start = if b == b'r' || (b == b'b' && i + 1 < bytes.len() && bytes[i + 1] == b'r') {
            let prefix_is_ident =
                i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
            if prefix_is_ident {
                None
            } else {
                let mut j = i + if b == b'b' { 2 } else { 1 };
                let mut hashes = 0usize;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == b'"' {
                    Some((j, hashes))
                } else {
                    None
                }
            }
        } else {
            None
        };
        if let Some((quote, hashes)) = raw_start {
            // keep the prefix chars as spaces so `r` doesn't merge tokens
            out.resize(out.len() + (quote - i + 1), b' ');
            i = quote + 1;
            'raw: while i < bytes.len() {
                if bytes[i] == b'"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if i + 1 + h >= bytes.len() || bytes[i + 1 + h] != b'#' {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        out.resize(out.len() + hashes + 1, b' ');
                        i += 1 + hashes;
                        break 'raw;
                    }
                }
                blank(&mut out, bytes[i], &mut line);
                i += 1;
            }
            continue;
        }
        // ── plain string (and byte string via its `"`): "…" ─────────────
        if b == b'"' {
            out.push(b' ');
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    blank(&mut out, bytes[i], &mut line);
                    blank(&mut out, bytes[i + 1], &mut line);
                    i += 2;
                    continue;
                }
                if bytes[i] == b'"' {
                    out.push(b' ');
                    i += 1;
                    break;
                }
                blank(&mut out, bytes[i], &mut line);
                i += 1;
            }
            continue;
        }
        // ── char literal vs lifetime ────────────────────────────────────
        if b == b'\'' {
            let is_char = if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                true // '\n', '\'', '\u{…}'
            } else {
                // 'x' is a char; 'a (no closing quote right after) is a
                // lifetime. Multi-byte chars ('é') also hit the char arm
                // eventually via the quote scan below; treat any quote
                // within the next 4 bytes as a char literal.
                (1..=4).any(|k| i + 1 + k < bytes.len() + 1 && bytes.get(i + 1 + k) == Some(&b'\''))
                    && bytes.get(i + 1) != Some(&b'\'')
            };
            if is_char {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        blank(&mut out, bytes[i], &mut line);
                        blank(&mut out, bytes[i + 1], &mut line);
                        i += 2;
                        continue;
                    }
                    if bytes[i] == b'\'' {
                        out.push(b' ');
                        i += 1;
                        break;
                    }
                    blank(&mut out, bytes[i], &mut line);
                    i += 1;
                }
            } else {
                // lifetime tick: keep it, it's harmless to the rules
                out.push(b'\'');
                i += 1;
            }
            continue;
        }
        // ── ordinary byte ───────────────────────────────────────────────
        if b == b'\n' {
            out.push(b'\n');
            line += 1;
        } else {
            out.push(b);
        }
        i += 1;
    }

    Stripped {
        code: String::from_utf8_lossy(&out).into_owned(),
        pragmas,
    }
}

/// A token from the stripped source: an identifier/number run or a single
/// punctuation char (with `::` merged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

impl Tok {
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Tokenize stripped code into ident and punct tokens.
pub(crate) fn tokenize(code: &str) -> Vec<Tok> {
    let bytes = code.as_bytes();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if b.is_ascii_alphanumeric() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                text: String::from_utf8_lossy(&bytes[start..i]).into_owned(),
                line,
            });
            continue;
        }
        if b == b':' && i + 1 < bytes.len() && bytes[i + 1] == b':' {
            toks.push(Tok {
                text: "::".to_string(),
                line,
            });
            i += 2;
            continue;
        }
        if b.is_ascii() {
            toks.push(Tok {
                text: (b as char).to_string(),
                line,
            });
        }
        // non-ASCII punctuation (shouldn't appear outside literals) is skipped
        i += 1;
    }
    toks
}

/// One file, lexed once.
pub struct Source {
    /// Repo-relative path, e.g. `crates/net/src/fabric.rs`.
    pub path: String,
    /// Crate name from the path (`crates/<name>/…`), if any.
    pub krate: Option<String>,
    pub toks: Vec<Tok>,
    /// Token-index spans of `#[cfg(test)]` / `#[test]` items.
    spans: Vec<(usize, usize)>,
    /// The whole file is test/bench/example scaffolding by location.
    pub test_file: bool,
    pub pragmas: Vec<Pragma>,
}

impl Source {
    pub fn new(path: &str, src: &str) -> Source {
        let stripped = strip(src);
        let toks = tokenize(&stripped.code);
        Source {
            path: path.to_string(),
            krate: crate_of(path),
            spans: test_spans(&toks),
            toks,
            test_file: is_test_path(path),
            pragmas: stripped.pragmas,
        }
    }

    /// Token `idx` sits in test code (a test file or a test item).
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_file || in_spans(&self.spans, idx)
    }
}

fn in_spans(spans: &[(usize, usize)], idx: usize) -> bool {
    spans.iter().any(|&(s, e)| idx >= s && idx < e)
}

/// Crate name from a path like `crates/<name>/src/foo.rs`.
fn crate_of(path: &str) -> Option<String> {
    let norm = path.replace('\\', "/");
    let idx = norm.find("crates/")?;
    norm[idx + "crates/".len()..]
        .split('/')
        .next()
        .map(|s| s.to_string())
}

/// True for files that are test/bench/example scaffolding by location.
fn is_test_path(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    norm.contains("/tests/") || norm.contains("/benches/") || norm.contains("/examples/")
}

/// Token-index spans that belong to `#[cfg(test)]` / `#[test]` items.
fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut depth = 0usize;
    let mut pending_test = false;
    // bracket depth inside a pending item header, so `;` inside `[u8; 4]`
    // doesn't cancel the attribute attachment
    let mut header_nest = 0usize;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            // parse `#[ … ]`, detect cfg(test) / test / tokio::test
            "#" if toks.get(i + 1).map(|t| t.is("[")) == Some(true) => {
                let mut j = i + 2;
                let mut nest = 1usize;
                let mut attr = Vec::new();
                while j < toks.len() && nest > 0 {
                    match toks[j].text.as_str() {
                        "[" => nest += 1,
                        "]" => nest -= 1,
                        s => attr.push(s.to_string()),
                    }
                    j += 1;
                }
                let is_cfg_test =
                    attr.len() >= 3 && attr[0] == "cfg" && attr.contains(&"test".to_string());
                let is_test_attr = attr.first().map(|s| s == "test") == Some(true)
                    || attr.windows(2).any(|w| w[0] == "::" && w[1] == "test");
                if is_cfg_test || is_test_attr {
                    pending_test = true;
                    header_nest = 0;
                }
                i = j;
                continue;
            }
            "{" => {
                if pending_test && header_nest == 0 {
                    // find the matching close brace
                    let open_depth = depth;
                    depth += 1;
                    let start = i;
                    let mut j = i + 1;
                    let mut d = depth;
                    while j < toks.len() && d > open_depth {
                        match toks[j].text.as_str() {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    spans.push((start, j));
                    pending_test = false;
                    depth = open_depth;
                    i = j;
                    continue;
                }
                depth += 1;
            }
            "}" => depth = depth.saturating_sub(1),
            "(" | "[" | "<" if pending_test => header_nest += 1,
            ")" | "]" | ">" if pending_test => header_nest = header_nest.saturating_sub(1),
            ";" if pending_test && header_nest == 0 => pending_test = false,
            _ => {}
        }
        i += 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1; /* Instant */";
        let s = strip(src);
        assert!(!s.code.contains("HashMap"));
        assert!(!s.code.contains("Instant"));
        assert_eq!(s.code.len(), src.len());
        assert!(s.code.contains("let x ="));
        assert!(s.code.contains("let y = 1;"));
    }

    #[test]
    fn preserves_newlines_in_block_comments() {
        let s = strip("a /* x\ny\nz */ b");
        assert_eq!(s.code.matches('\n').count(), 2);
        assert!(s.code.contains('a') && s.code.contains('b'));
    }

    #[test]
    fn extracts_pragma_with_reason() {
        let s = strip("foo(); // audit: allow(hash-iter, order never escapes)\n");
        assert_eq!(s.pragmas.len(), 1);
        let p = &s.pragmas[0];
        assert_eq!(p.line, 1);
        assert_eq!(p.rule, "hash-iter");
        assert_eq!(p.reason, "order never escapes");
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = strip("let q = r#\"SystemTime::now()\"#;");
        assert!(!s.code.contains("SystemTime"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let s = strip("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        assert!(s.code.contains("'a"), "lifetimes survive: {}", s.code);
        assert!(
            !s.code.contains('x') || s.code.contains("x:"),
            "char blanked"
        );
    }

    #[test]
    fn tokenizer_merges_path_sep() {
        let toks = tokenize("std::time::Instant::now()");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            ["std", "::", "time", "::", "Instant", "::", "now", "(", ")"]
        );
    }

    #[test]
    fn tokenizer_tracks_lines() {
        let toks = tokenize("a\nb\n  c");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }
}
