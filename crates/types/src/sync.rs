//! The workspace's one set of blocking synchronisation primitives.
//!
//! [`Mutex`], [`Condvar`] and [`RwLock`] wrap their `std::sync` namesakes
//! without poisoning: a thread that panics while holding a lock leaves the
//! data to the next holder as it was, and `lock()` / `read()` / `write()`
//! return the guard directly. Every crate locks through this module, so the
//! lock vocabulary is one set of types and `saber_lint`'s `lock-order` rule
//! tracks one call shape (`recv.lock()`); the `sync-vocabulary` rule keeps
//! the `std` types from being used anywhere else.

use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, TryLockError, WaitTimeoutResult};
use std::time::Duration;

pub use std::sync::{RwLockReadGuard, RwLockWriteGuard};

const NOT_WAITING: &str = "a guard is only empty during a condvar wait";

/// Unwraps a `std` lock result, ignoring poison.
fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|p| p.into_inner())
}

/// A non-poisoning mutual-exclusion lock.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(unpoison(self.inner.lock())),
        }
    }

    /// Acquires the mutex if it is free, without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner: Some(inner) })
    }
}

/// RAII guard for [`Mutex`]. The `Option` lets [`Condvar`] take the `std`
/// guard for the duration of a wait; outside a wait it is always `Some`.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    fn take(&mut self) -> std::sync::MutexGuard<'a, T> {
        self.inner.take().expect(NOT_WAITING)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect(NOT_WAITING)
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect(NOT_WAITING)
    }
}

/// A condition variable that waits on a [`MutexGuard`] by `&mut` reference.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Releases the lock and blocks until notified (or a spurious wakeup),
    /// then re-acquires it.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // condvar-ok: forwards one wait; the caller's predicate loop is
        // what this rule checks.
        guard.inner = Some(unpoison(self.inner.wait(guard.take())));
    }

    /// Like [`Condvar::wait`], but gives up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        // condvar-ok: forwards one wait, as above.
        let (inner, result) = unpoison(self.inner.wait_timeout(guard.take(), timeout));
        guard.inner = Some(inner);
        result
    }
}

/// A non-poisoning reader-writer lock.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        unpoison(self.inner.read())
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        unpoison(self.inner.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let c = Condvar::new();
        let mut g = m.lock();
        let r = c.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_notifies_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, c) = &*pair2;
            let mut done = m.lock();
            while !*done {
                let r = c.wait_for(&mut done, Duration::from_secs(5));
                if r.timed_out() {
                    return false;
                }
            }
            true
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, c) = &*pair;
        *m.lock() = true;
        c.notify_all();
        assert!(t.join().unwrap());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(7);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 14);
        }
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_poison_it() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder panics");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }
}
