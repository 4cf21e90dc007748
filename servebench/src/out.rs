//! Hand-rolled JSON output (the benchmark has no serialization crate).

/// A JSON object under construction; keys keep insertion order.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a field whose value is already JSON.
    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.fields.push((key.to_string(), json));
        self
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, num(v))
    }

    /// Adds an integer.
    pub fn int(self, key: &str, v: u64) -> Obj {
        self.raw(key, v.to_string())
    }

    /// Adds a string.
    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, string(v))
    }

    /// Adds a boolean.
    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, v.to_string())
    }

    /// Adds a nested object.
    pub fn obj(self, key: &str, v: Obj) -> Obj {
        self.raw(key, v.render())
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with all its digits (`null` when not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of numbers.
pub fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"value": v, "unit": u}` — one metric of the result line.
pub fn metric(value: f64, unit: &str) -> Obj {
    Obj::new().num("value", value).str("unit", unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects() {
        let o = Obj::new()
            .bool("correct", true)
            .int("attempted", 3)
            .obj("metrics", Obj::new().obj("x_ms", metric(1.5, "ms")))
            .num("nan", f64::NAN)
            .str("s", "a\"b");
        assert_eq!(
            o.render(),
            r#"{"correct": true, "attempted": 3, "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}}, "nan": null, "s": "a\"b"}"#
        );
        assert_eq!(num(2.0), "2.0");
    }
}
