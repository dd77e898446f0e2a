//! A minimal JSON object writer (the workspace has no serde).

use std::fmt::Write as _;

/// A JSON object built field by field, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Adds a field whose value is already JSON text.
    pub fn raw(&mut self, key: &str, json: impl Into<String>) {
        self.fields.push((key.to_string(), json.into()));
    }

    /// Adds a number field; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) {
        self.raw(key, number(value));
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, value: u64) {
        self.raw(key, value.to_string());
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.raw(key, value.to_string());
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) {
        self.raw(key, string(value));
    }

    /// Adds a nested object field.
    pub fn obj(&mut self, key: &str, value: Object) {
        self.raw(key, value.render());
    }

    /// Appends every field of `other`, in order.
    pub fn extend(&mut self, other: Object) {
        self.fields.extend(other.fields);
    }

    /// The object as one line of JSON text.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {value}", string(key));
        }
        out.push('}');
        out
    }
}

/// A number as JSON: every digit Rust's shortest round-trip form keeps;
/// `null` when not finite.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

/// Numbers as a JSON array.
pub fn array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
    format!("[{}]", items.join(", "))
}

/// Strings as a JSON array.
pub fn strings(values: &[String]) -> String {
    let items: Vec<String> = values.iter().map(|v| string(v)).collect();
    format!("[{}]", items.join(", "))
}

/// A string as a quoted, escaped JSON string.
pub fn string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
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
    out
}
