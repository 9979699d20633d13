//! Fixture: a condvar wait handed the live guard itself releases that
//! guard while it blocks, so the guard is not held across the wait.

use copycat_util::sync::Mutex;
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

pub fn take_slot(slots: &Mutex<usize>, freed: &Condvar) {
    let mut free = slots.lock();
    free = freed
        .wait_while(free, |n| *n == 0)
        .unwrap_or_else(PoisonError::into_inner);
    *free -= 1;
}

pub fn await_signal(ready: &Mutex<bool>, cv: &Condvar) {
    let flag = ready.lock();
    let _flag = cv.wait(flag);
}

pub fn await_signal_for(ready: &Mutex<bool>, cv: &Condvar, limit: Duration) {
    let flag = ready.lock();
    let _flag = cv.wait_timeout(flag, limit);
}
