//! A minimal, API-compatible stand-in for the `parking_lot` crate.
//!
//! The build environment has no route to a crates registry, so the workspace
//! pins `parking_lot` to this shim, which implements exactly the surface the
//! codebase uses — `Mutex` and `Condvar::wait` — over `std::sync`.
//! Differences from std that matter here and are reproduced faithfully:
//! no lock poisoning (a panic while holding a lock does not wedge other
//! threads), `const fn new` for use in statics, and guard types usable with
//! `Condvar::wait` by `&mut` reference.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Mutual exclusion primitive (std-backed, poisoning ignored).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a new mutex (usable in `static` initializers).
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.0.lock().unwrap_or_else(|e| e.into_inner())) }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => {
                Some(MutexGuard { inner: Some(e.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // Option so Condvar::wait can temporarily take the std guard out while
    // re-blocking, then put it back — parking_lot's wait takes the guard by
    // &mut, std's by value.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// Condition variable compatible with [`Mutex`] guards.
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Block on the condvar until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(inner);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar() {
        let m = Arc::new(Mutex::new(0u32));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            *m2.lock() = 7;
            cv2.notify_all();
        });
        let mut g = m.lock();
        while *g != 7 {
            cv.wait(&mut g);
        }
        assert_eq!(*g, 7);
        drop(g);
        t.join().unwrap();
    }
}
