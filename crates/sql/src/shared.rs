//! A thread-safe, shareable [`Catalog`] for dynamic deployments.
//!
//! With the engine's query set now dynamic (queries register and drop while
//! the engine runs), the catalog becomes long-lived shared state: many
//! client connections declare streams and compile queries against it
//! concurrently. [`SharedCatalog`] wraps a [`Catalog`] in an
//! `Arc<RwLock<…>>` so registration and compilation are safe from any
//! thread without the callers serializing on some wider lock of their own —
//! `saber_server` compiles `QUERY` statements against it outside its
//! connection-state mutex.

use crate::error::ParseError;
use crate::planner::Catalog;
use saber_query::Query;
use saber_types::schema::SchemaRef;
use saber_types::sync::RwLock;
use saber_types::{SaberError, Schema};
use std::sync::Arc;

/// A cloneable, thread-safe catalog handle. Clones share the same
/// underlying stream set.
///
/// ```
/// use saber_sql::SharedCatalog;
/// use saber_types::{DataType, Schema};
///
/// let catalog = SharedCatalog::new();
/// let clone = catalog.clone();
/// let schema = Schema::from_pairs(&[
///     ("timestamp", DataType::Timestamp),
///     ("v", DataType::Float),
/// ])
/// .unwrap()
/// .into_ref();
/// clone.register("S", schema);
///
/// // Registrations through any clone are visible to all of them.
/// let query = catalog.compile("SELECT * FROM S [ROWS 4]").unwrap();
/// assert_eq!(query.num_inputs(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedCatalog {
    inner: Arc<RwLock<Catalog>>,
}

impl SharedCatalog {
    /// An empty shared catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing catalog (e.g. a pre-populated workload catalog).
    pub fn from_catalog(catalog: Catalog) -> Self {
        Self {
            inner: Arc::new(RwLock::new(catalog)),
        }
    }

    /// Registers (or replaces) a stream.
    pub fn register(&self, name: impl Into<String>, schema: SchemaRef) {
        self.inner.write().register(name, schema);
    }

    /// Looks up a stream schema by name.
    pub fn get(&self, name: &str) -> Option<SchemaRef> {
        self.inner.read().get(name).cloned()
    }

    /// The registered `(name, schema)` pairs, in registration order.
    pub fn streams(&self) -> Vec<(String, SchemaRef)> {
        self.inner
            .read()
            .streams()
            .map(|(n, s)| (n.to_string(), s.clone()))
            .collect()
    }

    /// Compiles `sql` against the current catalog contents (see
    /// [`crate::compile`]). The catalog lock is held only for the duration
    /// of the compilation.
    pub fn compile(&self, sql: &str) -> Result<Query, ParseError> {
        crate::compile(sql, &self.inner.read())
    }

    /// Like [`SharedCatalog::compile`], but names the query explicitly.
    pub fn compile_named(&self, sql: &str, name: &str) -> Result<Query, ParseError> {
        crate::compile_named(sql, name, &self.inner.read())
    }

    /// A point-in-time copy of the underlying catalog.
    pub fn snapshot(&self) -> Catalog {
        self.inner.read().clone()
    }

    /// Replaces the catalog contents with `catalog` (all clones observe the
    /// new stream set). Used by crash recovery to restore a catalog loaded
    /// from a snapshot into the handle an engine already holds.
    pub fn restore(&self, catalog: Catalog) {
        *self.inner.write() = catalog;
    }

    /// Serialises the stream set (names and schema layouts) into a compact,
    /// versioned byte form for the durability layer's catalog snapshots.
    /// Round-trips through [`SharedCatalog::deserialize`].
    ///
    /// ```
    /// use saber_sql::SharedCatalog;
    /// use saber_types::{DataType, Schema};
    ///
    /// let catalog = SharedCatalog::new();
    /// let schema = Schema::from_pairs(&[("timestamp", DataType::Timestamp)])
    ///     .unwrap()
    ///     .into_ref();
    /// catalog.register("S", schema);
    /// let restored = SharedCatalog::deserialize(&catalog.serialize()).unwrap();
    /// assert!(restored.get("S").is_some());
    /// ```
    pub fn serialize(&self) -> Vec<u8> {
        let catalog = self.inner.read();
        let mut out = vec![1u8]; // catalog format version
        let streams: Vec<_> = catalog.streams().collect();
        out.extend_from_slice(&(streams.len() as u32).to_le_bytes());
        for (name, schema) in streams {
            let name = name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            let layout = schema.encode_layout();
            out.extend_from_slice(&(layout.len() as u32).to_le_bytes());
            out.extend_from_slice(&layout);
        }
        out
    }

    /// Decodes a catalog produced by [`SharedCatalog::serialize`].
    pub fn deserialize(bytes: &[u8]) -> saber_types::Result<SharedCatalog> {
        fn err(what: &str) -> SaberError {
            SaberError::Store(format!("corrupt catalog snapshot: {what}"))
        }
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> saber_types::Result<&[u8]> {
            let slice = bytes
                .get(*at..*at + n)
                .ok_or_else(|| err("truncated input"))?;
            *at += n;
            Ok(slice)
        };
        if take(&mut at, 1)?[0] != 1 {
            return Err(err("unsupported version"));
        }
        let nstreams = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
        let mut catalog = Catalog::new();
        for _ in 0..nstreams {
            let name_len = u16::from_le_bytes(take(&mut at, 2)?.try_into().unwrap()) as usize;
            let name = std::str::from_utf8(take(&mut at, name_len)?)
                .map_err(|_| err("stream name is not UTF-8"))?
                .to_string();
            let layout_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
            let schema = Schema::decode_layout(take(&mut at, layout_len)?)?;
            catalog.register(name, schema.into_ref());
        }
        if at != bytes.len() {
            return Err(err("trailing bytes"));
        }
        Ok(SharedCatalog::from_catalog(catalog))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_types::{DataType, Schema};

    fn schema() -> SchemaRef {
        Schema::from_pairs(&[("timestamp", DataType::Timestamp), ("v", DataType::Float)])
            .unwrap()
            .into_ref()
    }

    #[test]
    fn registration_is_visible_across_clones_and_threads() {
        let catalog = SharedCatalog::new();
        assert!(catalog.compile("SELECT * FROM S [ROWS 2]").is_err());
        let writer = {
            let catalog = catalog.clone();
            std::thread::spawn(move || catalog.register("S", schema()))
        };
        writer.join().unwrap();
        assert!(catalog.get("S").is_some());
        assert!(catalog.get("T").is_none());
        assert_eq!(catalog.streams().len(), 1);
        let query = catalog
            .compile("SELECT * FROM S [ROWS 2] WHERE v > 0")
            .unwrap();
        assert_eq!(query.num_inputs(), 1);
        let named = catalog
            .compile_named("SELECT * FROM S [ROWS 2]", "mine")
            .unwrap();
        assert_eq!(named.name, "mine");
    }

    #[test]
    fn serialization_round_trips_and_rejects_corruption() {
        let catalog = SharedCatalog::new();
        catalog.register("A", schema());
        catalog.register(
            "B",
            Schema::from_pairs(&[
                ("timestamp", DataType::Timestamp),
                ("k", DataType::Int),
                ("x", DataType::Double),
            ])
            .unwrap()
            .into_ref(),
        );
        let bytes = catalog.serialize();
        let restored = SharedCatalog::deserialize(&bytes).unwrap();
        assert_eq!(restored.streams().len(), 2);
        assert_eq!(restored.get("A").unwrap(), catalog.get("A").unwrap());
        assert_eq!(restored.get("B").unwrap(), catalog.get("B").unwrap());
        // Compilation against the restored catalog sees the same schemas.
        assert!(restored
            .compile("SELECT * FROM B [ROWS 2] WHERE k > 0")
            .is_ok());
        for cut in 0..bytes.len() {
            assert!(
                SharedCatalog::deserialize(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // `restore` swaps the contents of an existing handle in place.
        let target = SharedCatalog::new();
        let clone = target.clone();
        target.restore(restored.snapshot());
        assert!(clone.get("A").is_some());
    }

    #[test]
    fn snapshot_is_a_point_in_time_copy() {
        let catalog = SharedCatalog::from_catalog(Catalog::new().with_stream("A", schema()));
        let snap = catalog.snapshot();
        catalog.register("B", schema());
        assert!(snap.get("A").is_some());
        assert!(snap.get("B").is_none());
        assert!(catalog.get("B").is_some());
    }
}
