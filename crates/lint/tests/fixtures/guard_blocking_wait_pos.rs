//! Fixture: condvar waits that do NOT release the live guard. The first
//! waiter hands the condvar a different guard and keeps `outer` locked
//! while it sleeps; the second re-takes its guard from the wait and
//! then blocks on a send with it held.

use copycat_util::sync::Mutex;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, PoisonError};

pub fn wait_holding_another_lock(outer: &Mutex<u8>, slots: &Mutex<usize>, freed: &Condvar) -> u8 {
    let held = outer.lock();
    let free = slots.lock();
    let _free = freed.wait_while(free, |n| *n == 0);
    *held
}

pub fn send_after_wait(m: &Mutex<u8>, cv: &Condvar, tx: &Sender<u8>) {
    let mut guard = m.lock();
    guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
    let _ = tx.send(*guard);
}
