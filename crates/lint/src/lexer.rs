//! The shared lexical pass: one scan per file produces the token
//! stream every rule family consumes and the suppression directives the
//! audit rule checks.
//!
//! The lexer strips comments, string/char literals and attributes,
//! keeps identifier/number/punctuation tokens with 1-based positions,
//! and harvests `// octolint: allow(...)` directives from line
//! comments. Decimal literals (`0.5`, `1.25e3`) lex as one token so the
//! float-accumulation rule can recognize them without re-scanning
//! source text.

/// One surviving token: an identifier/number or a single punctuation
/// character, with its 1-based source position.
#[derive(Clone, Debug)]
pub(crate) struct Tok {
    pub(crate) text: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
    pub(crate) ident: bool,
}

impl Tok {
    /// True for a number token carrying a decimal point (`0.5`,
    /// `1.25e3`) — the lexical evidence of float arithmetic.
    pub(crate) fn is_float_literal(&self) -> bool {
        self.text.starts_with(|c: char| c.is_ascii_digit()) && self.text.contains('.')
    }
}

/// One `// octolint: allow(CODE[, CODE]) -- justification` directive.
#[derive(Clone, Debug)]
pub(crate) struct Suppression {
    pub(crate) codes: Vec<String>,
    pub(crate) justified: bool,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// Product of the shared pass: the stripped token stream plus the
/// harvested suppression directives.
pub(crate) struct Lexed {
    pub(crate) tokens: Vec<Tok>,
    pub(crate) suppressions: Vec<Suppression>,
}

/// Strip comments/strings/chars, collect identifier and punctuation
/// tokens with positions, and harvest `octolint: allow(...)` directives
/// from line comments.
pub(crate) fn lex(source: &str) -> Lexed {
    let b: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    let mut tokens = Vec::new();
    let mut suppressions = Vec::new();

    let n = b.len();
    macro_rules! bump {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        };
    }

    while i < n {
        let c = b[i];
        // line comment (and suppression directive harvesting)
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            if let Some(s) = parse_suppression(&text, line, col) {
                suppressions.push(s);
            }
            col += (i - start) as u32;
            continue;
        }
        // block comment, nested
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            bump!('/');
            bump!('*');
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    bump!('/');
                    bump!('*');
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    bump!('*');
                    bump!('/');
                    i += 2;
                } else {
                    bump!(b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // raw strings r"..." / r#"..."# (and br variants via the ident path)
        if c == 'r' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') {
            let mut j = i + 1;
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                // consume r##"  ...  "##
                while i <= j {
                    bump!(b[i]);
                    i += 1;
                }
                'raw: while i < n {
                    if b[i] == '"' {
                        let mut k = 0usize;
                        while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                if i < n {
                                    bump!(b[i]);
                                    i += 1;
                                }
                            }
                            break 'raw;
                        }
                    }
                    bump!(b[i]);
                    i += 1;
                }
                continue;
            }
            // plain identifier starting with r — fall through
        }
        // string literal (also reached after a b/br prefix ident)
        if c == '"' {
            bump!('"');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    bump!(b[i]);
                    bump!(b[i + 1]);
                    i += 2;
                    continue;
                }
                let done = b[i] == '"';
                bump!(b[i]);
                i += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        // char literal vs lifetime: 'x' / '\n' vs 'a in generics
        if c == '\'' {
            let is_lifetime = i + 1 < n
                && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                && !(i + 2 < n && b[i + 2] == '\'');
            if is_lifetime {
                bump!('\'');
                i += 1; // skip the quote; the label lexes as an ident
                continue;
            }
            bump!('\'');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    bump!(b[i]);
                    bump!(b[i + 1]);
                    i += 2;
                    continue;
                }
                let done = b[i] == '\'';
                bump!(b[i]);
                i += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        // identifier / number (decimal literals keep their point:
        // `0.5` is one token, `1..2` and `x.0` are not)
        if c.is_alphanumeric() || c == '_' {
            let (tl, tc) = (line, col);
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                bump!(b[i]);
                i += 1;
            }
            if c.is_ascii_digit()
                && i + 1 < n
                && b[i] == '.'
                && b[i + 1].is_ascii_digit()
                && b[start..i].iter().all(|&d| d.is_ascii_digit() || d == '_')
            {
                bump!('.');
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    bump!(b[i]);
                    i += 1;
                }
            }
            tokens.push(Tok {
                text: b[start..i].iter().collect(),
                line: tl,
                col: tc,
                ident: c.is_alphabetic() || c == '_',
            });
            continue;
        }
        // whitespace
        if c.is_whitespace() {
            bump!(c);
            i += 1;
            continue;
        }
        // single-char punctuation token
        tokens.push(Tok {
            text: c.to_string(),
            line,
            col,
            ident: false,
        });
        bump!(c);
        i += 1;
    }

    Lexed {
        tokens: strip_attrs(tokens),
        suppressions,
    }
}

/// Parse `// octolint: allow(OCT-LINT-001[, ...]) -- justification`.
fn parse_suppression(comment: &str, line: u32, col: u32) -> Option<Suppression> {
    let rest = comment.trim_start_matches('/').trim_start();
    let rest = rest.strip_prefix("octolint:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let (codes_part, tail) = rest.split_once(')')?;
    let codes: Vec<String> = codes_part
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    let justified = tail
        .trim_start()
        .strip_prefix("--")
        .is_some_and(|j| !j.trim().is_empty());
    Some(Suppression {
        codes,
        justified,
        line,
        col,
    })
}

/// Drop attribute contents (`#[...]` / `#![...]`) from the token
/// stream: an attribute never constitutes a *use* of a disallowed
/// construct.
fn strip_attrs(tokens: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.text == "#" {
            let bracket = match tokens.get(i + 1) {
                Some(t1) if t1.text == "[" => Some(i + 1),
                Some(t1) if t1.text == "!" => match tokens.get(i + 2) {
                    Some(t2) if t2.text == "[" => Some(i + 2),
                    _ => None,
                },
                _ => None,
            };
            if let Some(open) = bracket {
                let mut depth = 0i32;
                let mut j = open;
                while j < tokens.len() {
                    match tokens[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}
