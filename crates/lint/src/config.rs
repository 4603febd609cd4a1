//! The declared workspace lock hierarchy (`crates/lint/lock-order.toml`).
//!
//! The file is a sequence of `[[level]]` tables, outermost lock class first.
//! Each level names the lock class, gives a one-line rationale, and lists its
//! member locks as `"<file-suffix>:<name>"` strings, where `<name>` is the
//! receiver identifier of a zero-argument `.lock()` / `.read()` / `.write()`
//! call:
//!
//! ```toml
//! [[level]]
//! name = "queue-shards"
//! rationale = "shard map read-locked while a shard's sub-queue is pushed"
//! locks = ["engine/src/queue.rs:shards"]
//! ```
//!
//! Only a tiny TOML subset is needed (tables, string keys, string arrays),
//! so this module hand-rolls a parser rather than taking a dependency —
//! `saber_lint` must stay zero-dependency like `saber_sql`.

use crate::diag::Span;

/// One member lock of a level: file-path suffix plus lock name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockRef {
    /// Suffix matched against the workspace-relative path, e.g.
    /// `engine/src/queue.rs`.
    pub file_suffix: String,
    /// Receiver identifier of the `.lock()` / `.read()` / `.write()` call.
    pub name: String,
    /// Byte span of the quoted `"file:name"` entry in the config text.
    pub span: Span,
}

/// One level of the hierarchy: a named class of locks of equal rank.
#[derive(Debug, Clone)]
pub struct Level {
    /// Human-readable class name, e.g. `sharing-registry`.
    pub name: String,
    /// Why the level sits where it does.
    pub rationale: String,
    /// Member locks.
    pub locks: Vec<LockRef>,
}

/// The parsed hierarchy: `levels[0]` is outermost (acquired first).
#[derive(Debug, Clone, Default)]
pub struct LockOrder {
    /// All levels, outermost first.
    pub levels: Vec<Level>,
}

impl LockOrder {
    /// Parses the TOML subset described in the module docs.
    ///
    /// Returns `Err` with a line-prefixed message on malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut levels: Vec<Level> = Vec::new();
        let mut line_start = 0;
        for (idx, raw) in text.split('\n').enumerate() {
            let raw_start = line_start;
            line_start += raw.len() + 1;
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[level]]" {
                levels.push(Level {
                    name: String::new(),
                    rationale: String::new(),
                    locks: Vec::new(),
                });
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(format!("lock-order.toml:{lineno}: expected `key = value`"));
            };
            let key = line[..eq].trim();
            let value = line[eq + 1..].trim();
            let Some(level) = levels.last_mut() else {
                return Err(format!(
                    "lock-order.toml:{lineno}: `{key}` before any [[level]]"
                ));
            };
            match key {
                "name" => level.name = parse_string(value, lineno)?,
                "rationale" => level.rationale = parse_string(value, lineno)?,
                "locks" => {
                    for item in parse_string_array(value, lineno)? {
                        let Some(colon) = item.rfind(':') else {
                            return Err(format!(
                                "lock-order.toml:{lineno}: lock `{item}` missing `file:name`"
                            ));
                        };
                        let quoted = format!("\"{item}\"");
                        let start = raw_start + raw.find(&quoted).unwrap_or(0);
                        level.locks.push(LockRef {
                            file_suffix: item[..colon].to_string(),
                            name: item[colon + 1..].to_string(),
                            span: Span::new(start, start + quoted.len()),
                        });
                    }
                }
                other => {
                    return Err(format!("lock-order.toml:{lineno}: unknown key `{other}`"));
                }
            }
        }
        for (i, level) in levels.iter().enumerate() {
            if level.name.is_empty() {
                return Err(format!("lock-order.toml: level {} has no name", i + 1));
            }
            if level.rationale.trim().is_empty() {
                return Err(format!(
                    "lock-order.toml: level `{}` has no rationale",
                    level.name
                ));
            }
        }
        Ok(Self { levels })
    }

    /// Rank (0 = outermost) and class name of the lock `name` in `rel_path`,
    /// if the hierarchy declares it.
    pub fn rank_of(&self, rel_path: &str, name: &str) -> Option<(usize, &str)> {
        for (rank, level) in self.levels.iter().enumerate() {
            for lock in &level.locks {
                if lock.name == name && rel_path.ends_with(lock.file_suffix.as_str()) {
                    return Some((rank, level.name.as_str()));
                }
            }
        }
        None
    }
}

/// Parses a double-quoted TOML string.
fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!(
            "lock-order.toml:{lineno}: expected a quoted string, got `{value}`"
        ))
    }
}

/// Parses a single-line `["a", "b"]` string array.
fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let v = value.trim();
    if !v.starts_with('[') || !v.ends_with(']') {
        return Err(format!(
            "lock-order.toml:{lineno}: expected a `[\"…\"]` array"
        ));
    }
    let inner = &v[1..v.len() - 1];
    let mut out = Vec::new();
    for piece in inner.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        out.push(parse_string(piece, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_levels_and_ranks() {
        let text = r#"
# outermost first
[[level]]
name = "registry"
rationale = "taken before any per-query lock"
locks = ["engine/src/registry.rs:slots", "engine/src/engine.rs:sharing"]

[[level]]
name = "sink"
rationale = "leaf"
locks = ["engine/src/sink.rs:rows"]
"#;
        let order = LockOrder::parse(text).unwrap();
        assert_eq!(order.levels.len(), 2);
        assert_eq!(
            order.rank_of("crates/engine/src/registry.rs", "slots"),
            Some((0, "registry"))
        );
        assert_eq!(
            order.rank_of("crates/engine/src/sink.rs", "rows"),
            Some((1, "sink"))
        );
        assert_eq!(order.rank_of("crates/engine/src/sink.rs", "slots"), None);
        let rows = &order.levels[1].locks[0];
        assert_eq!(
            &text[rows.span.start..rows.span.end],
            "\"engine/src/sink.rs:rows\""
        );
    }

    #[test]
    fn rejects_missing_rationale() {
        let text = "[[level]]\nname = \"x\"\nlocks = [\"a.rs:b\"]\n";
        assert!(LockOrder::parse(text).unwrap_err().contains("rationale"));
    }
}
