//! One lock vocabulary: `disallowed_types` bans the `std::sync` locks
//! everywhere but `saber_types::sync`, test code included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

pub fn counter(tx: mpsc::Sender<u64>, n: &AtomicU64) -> Arc<Mutex<u64>> {
    let _ = tx.send(n.load(Ordering::Acquire));
    Arc::default()
}

pub fn make() -> std::sync::RwLock<u64> {
    std::sync::RwLock::new(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn std_lock_in_a_test() {
        let _ = std::sync::Condvar::new();
    }
}
