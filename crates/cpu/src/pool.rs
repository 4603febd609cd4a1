//! Object pooling for intermediate buffers.
//!
//! The paper avoids dynamic memory allocation on the critical path by using
//! statically allocated pools of byte arrays for intermediate window-fragment
//! results (§5.1). [`BufferPool`] provides the same facility: worker threads
//! check out [`RowBuffer`]s, fill them, and the result stage returns them to
//! the pool once the output has been consumed.

use saber_types::schema::SchemaRef;
use saber_types::sync::Mutex;
use saber_types::RowBuffer;
use std::sync::Arc;

/// A pool of reusable [`RowBuffer`]s sharing one schema.
#[derive(Debug, Clone)]
pub struct BufferPool {
    schema: SchemaRef,
    pool: Arc<Mutex<Vec<RowBuffer>>>,
    initial_rows: usize,
}

impl BufferPool {
    /// Creates a pool whose fresh buffers reserve space for `initial_rows`
    /// rows.
    pub fn new(schema: SchemaRef, initial_rows: usize) -> Self {
        Self {
            schema,
            pool: Arc::new(Mutex::new(Vec::new())),
            initial_rows,
        }
    }

    /// Checks a buffer out of the pool (or allocates a fresh one).
    pub fn get(&self) -> RowBuffer {
        let mut pool = self.pool.lock();
        match pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => RowBuffer::with_capacity(self.schema.clone(), self.initial_rows),
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&self, buf: RowBuffer) {
        let mut pool = self.pool.lock();
        if pool.len() < 1024 {
            pool.push(buf);
        }
    }

    /// Number of buffers currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.pool.lock().len()
    }

    /// The schema of pooled buffers.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_types::{DataType, Schema, Value};

    fn schema() -> SchemaRef {
        Schema::from_pairs(&[("ts", DataType::Timestamp)])
            .unwrap()
            .into_ref()
    }

    #[test]
    fn get_put_recycles_buffers() {
        let pool = BufferPool::new(schema(), 16);
        assert_eq!(pool.idle(), 0);
        let mut b = pool.get();
        b.push_values(&[Value::Timestamp(1)]).unwrap();
        pool.put(b);
        assert_eq!(pool.idle(), 1);
        let b2 = pool.get();
        // The recycled buffer is cleared before reuse.
        assert!(b2.is_empty());
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_is_shared_across_clones() {
        let pool = BufferPool::new(schema(), 4);
        let clone = pool.clone();
        clone.put(RowBuffer::new(schema()));
        assert_eq!(pool.idle(), 1);
    }
}
