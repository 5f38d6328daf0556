//! A minimal JSON writer for the report and result lines (the workspace's
//! `serde_json` stand-in prints every number as a float).

use std::fmt::{self, Display, Write};

pub enum J {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj() -> J {
        J::Obj(Vec::new())
    }

    /// Append a field to an object.
    pub fn set(&mut self, key: impl Into<String>, value: J) {
        if let J::Obj(fields) = self {
            fields.push((key.into(), value));
        }
    }

    pub fn with(mut self, key: impl Into<String>, value: J) -> J {
        self.set(key, value);
        self
    }
}

impl From<&str> for J {
    fn from(s: &str) -> J {
        J::Str(s.to_string())
    }
}

impl From<String> for J {
    fn from(s: String) -> J {
        J::Str(s)
    }
}

impl From<usize> for J {
    fn from(x: usize) -> J {
        J::Int(x as u64)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Bool(b) => write!(f, "{b}"),
            J::Int(i) => write!(f, "{i}"),
            // `Display` for f64 prints every digit of the shortest
            // round-trip form and never an exponent; JSON has no NaN.
            J::Num(x) if x.is_finite() => write!(f, "{x}"),
            J::Num(_) => f.write_str("null"),
            J::Str(s) => write_str(f, s),
            J::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            J::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_json() {
        let j = J::obj()
            .with("a", J::Int(3))
            .with("b", J::Num(1.25))
            .with("c", J::Arr(vec![J::Bool(true), J::from("x\"y")]))
            .with("d", J::Num(f64::NAN));
        assert_eq!(
            j.to_string(),
            r#"{"a":3,"b":1.25,"c":[true,"x\"y"],"d":null}"#
        );
    }
}
