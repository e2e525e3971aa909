//! The one JSON string and number writer shared by every hand-rolled JSON
//! emitter in the workspace (heartbeats, skew fields, sweep JSONL rows,
//! bench artifacts).
//!
//! Strings: `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` use
//! their short forms, and every other control character below U+0020
//! becomes `\uXXXX`; everything else, including non-ASCII text, is written
//! through verbatim. Numbers: shortest-round-trip `Display`, and `null` for
//! NaN and infinities, which JSON cannot represent.

use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string literal.
pub fn push_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::new();
    push_string(&mut out, s);
    out
}

/// Appends `v` as a JSON number (`null` when not finite).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// `v` as a JSON number (`null` when not finite).
pub fn number(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(
            string("a\"b\\c\nd\re\tf\u{1}g"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\""
        );
        assert_eq!(string("ε̂ 𝒯"), "\"ε̂ 𝒯\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(-3.0), "-3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
