//! Poison-free lock aliases over `std::sync`.
//!
//! The simulator's locks guard plain data (bucket maps, counters); a
//! panicking worker already aborts the whole operation through the pool's
//! panic propagation, so lock poisoning adds a second, redundant failure
//! channel. These wrappers recover the guard from a poisoned lock, which
//! keeps call sites to one word (`store.write()`), exactly the ergonomics
//! the previous third-party locks provided.

use std::sync::{self, LockResult};

/// A reader–writer lock whose guards ignore poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<T> RwLock<T> {
    /// A new lock holding `value` (`const`, so it can initialise a
    /// `static`).
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Shared read access.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        unpoison(self.0.read())
    }

    /// Exclusive write access.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        unpoison(self.0.write())
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        unpoison(self.0.into_inner())
    }

    /// Mutable access through exclusive ownership (no locking).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.0.get_mut())
    }
}

/// A mutex whose guard ignores poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new mutex holding `value` (`const`, so it can initialise a
    /// `static`).
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Exclusive access.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        unpoison(self.0.lock())
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        unpoison(self.0.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_read_write() {
        let lock = RwLock::new(1);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 2);
        assert_eq!(lock.into_inner(), 2);
    }

    #[test]
    fn mutex_lock() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn poisoned_locks_recover() {
        let lock = std::sync::Arc::new(RwLock::new(7));
        let l2 = lock.clone();
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the lock");
        })
        .join();
        // A poisoned std lock would error here; the wrapper recovers.
        assert_eq!(*lock.read(), 7);
        *lock.write() = 8;
        assert_eq!(*lock.read(), 8);
    }
}
