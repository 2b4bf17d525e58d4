//! Marker-trait guarantees (C-SEND-SYNC): every shared object must be
//! usable across threads, and the guarantees must not regress silently
//! when internals change.

use ruo_core::counter::{AacCounter, FArrayCounter, FetchAddCounter};
use ruo_core::farray::{FArray, Max, Min, Sum};
use ruo_core::maxreg::{AacMaxRegister, CasRetryMaxRegister, LockMaxRegister, TreeMaxRegister};
use ruo_core::reduction::SnapshotCounter;
use ruo_core::snapshot::{AfekSnapshot, DoubleCollectSnapshot, PathCopySnapshot, SnapshotView};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn max_registers_are_send_and_sync() {
    assert_send_sync::<TreeMaxRegister>();
    assert_send_sync::<AacMaxRegister>();
    assert_send_sync::<CasRetryMaxRegister>();
    assert_send_sync::<LockMaxRegister>();
}

#[test]
fn counters_are_send_and_sync() {
    assert_send_sync::<FArrayCounter>();
    assert_send_sync::<AacCounter>();
    assert_send_sync::<FetchAddCounter>();
    assert_send_sync::<SnapshotCounter>();
}

#[test]
fn snapshots_are_send_and_sync() {
    assert_send_sync::<DoubleCollectSnapshot>();
    assert_send_sync::<AfekSnapshot>();
    assert_send_sync::<PathCopySnapshot>();
    assert_send_sync::<SnapshotView<'static>>();
}

#[test]
fn farrays_are_send_and_sync() {
    assert_send_sync::<FArray<Sum>>();
    assert_send_sync::<FArray<Max>>();
    assert_send_sync::<FArray<Min>>();
}

#[test]
fn trait_objects_are_shareable() {
    assert_send_sync::<Box<dyn ruo_core::MaxRegister>>();
    assert_send_sync::<Box<dyn ruo_core::Counter>>();
    assert_send_sync::<Box<dyn ruo_core::Snapshot>>();
}
