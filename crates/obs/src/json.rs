//! A minimal deterministic JSON writer.
//!
//! The exports in this crate must be byte-identical across same-seed
//! runs, so serialization is owned here rather than delegated: keys are
//! emitted in the order the caller provides (the registry iterates
//! `BTreeMap`s), floats use Rust's shortest round-trip `Display` (with
//! non-finite values mapped to `null`, which JSON requires), and there
//! is no whitespace to vary.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    Object { first: bool },
    Array { first: bool },
}

/// An append-only JSON writer with object/array nesting.
///
/// ```
/// use sq_obs::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("n");
/// w.value_u64(3);
/// w.key("xs");
/// w.begin_array();
/// w.value_f64(0.5);
/// w.value_str("a\"b");
/// w.end_array();
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"n":3,"xs":[0.5,"a\"b"]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    stack: Vec<Ctx>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn before_value(&mut self) {
        if let Some(Ctx::Array { first }) = self.stack.last_mut() {
            if *first {
                *first = false;
            } else {
                self.out.push(',');
            }
        }
    }

    /// Open `{`.
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.stack.push(Ctx::Object { first: true });
    }

    /// Close `}`.
    pub fn end_object(&mut self) {
        debug_assert!(matches!(self.stack.last(), Some(Ctx::Object { .. })));
        self.stack.pop();
        self.out.push('}');
    }

    /// Open `[`.
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.stack.push(Ctx::Array { first: true });
    }

    /// Close `]`.
    pub fn end_array(&mut self) {
        debug_assert!(matches!(self.stack.last(), Some(Ctx::Array { .. })));
        self.stack.pop();
        self.out.push(']');
    }

    /// Emit an object key (must be inside an object; the next call must
    /// emit its value).
    pub fn key(&mut self, k: &str) {
        if let Some(Ctx::Object { first }) = self.stack.last_mut() {
            if *first {
                *first = false;
            } else {
                self.out.push(',');
            }
        } else {
            debug_assert!(false, "key outside of object");
        }
        Self::push_escaped(&mut self.out, k);
        self.out.push(':');
    }

    /// Emit a string value.
    pub fn value_str(&mut self, s: &str) {
        self.before_value();
        Self::push_escaped(&mut self.out, s);
    }

    /// Emit an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) {
        self.before_value();
        let _ = write!(self.out, "{v}");
    }

    /// Emit a float value; non-finite floats become `null`.
    pub fn value_f64(&mut self, v: f64) {
        self.before_value();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Emit a boolean value.
    pub fn value_bool(&mut self, v: bool) {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Shorthand: `key` followed by a u64 value.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.value_u64(v);
    }

    /// Shorthand: `key` followed by a float value.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.value_f64(v);
    }

    /// Shorthand: `key` followed by a string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.value_str(v);
    }

    /// Consume the writer, returning the JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON nesting");
        self.out
    }

    fn push_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.begin_array();
        w.begin_object();
        w.field_u64("x", 1);
        w.end_object();
        w.value_u64(2);
        w.end_array();
        w.field_str("b", "ok");
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":[{"x":1},2],"b":"ok"}"#);
    }

    #[test]
    fn escaping_and_nonfinite() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.value_str("line\nbreak \"q\" \\ \u{1}");
        w.value_f64(f64::NAN);
        w.value_f64(f64::INFINITY);
        w.value_bool(true);
        w.end_array();
        assert_eq!(
            w.finish(),
            "[\"line\\nbreak \\\"q\\\" \\\\ \\u0001\",null,null,true]"
        );
    }

    #[test]
    fn float_formatting_is_shortest_roundtrip() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.value_f64(0.1);
        w.value_f64(1.0);
        w.value_f64(-2.5e-7);
        w.end_array();
        assert_eq!(w.finish(), "[0.1,1,-0.00000025]");
    }
}
