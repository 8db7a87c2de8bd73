//! A lane that panics inside a barrier kernel under `RUST_BACKTRACE=1`:
//! the panic hook and a forced capture both walk the lane's fiber stack,
//! which must end cleanly at the fiber's base, and the launch fails with
//! the lane's own message. This binary holds one test because it sets the
//! process environment.

use ompx_sim::prelude::*;
use std::backtrace::{Backtrace, BacktraceStatus};
use std::sync::{Arc, Mutex};

#[test]
fn lane_panic_under_backtrace_keeps_its_message() {
    std::env::set_var("RUST_BACKTRACE", "1");
    let d = Device::new(DeviceProfile::test_small());
    let captured = Arc::new(Mutex::new(String::new()));
    let k = Kernel::new("gives_up", {
        let captured = Arc::clone(&captured);
        move |tc: &mut ThreadCtx<'_>| {
            tc.sync_threads();
            if tc.thread_rank() == 5 {
                let bt = Backtrace::force_capture();
                assert_eq!(bt.status(), BacktraceStatus::Captured);
                *captured.lock().expect("no other lane holds the lock") = bt.to_string();
                panic!("lane 5 gave up after the barrier");
            }
            tc.sync_threads();
        }
    })
    .with_block_sync();
    let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        d.launch(&k, LaunchConfig::new(2u32, 8u32))
    }))
    .expect_err("the lane panic fails the launch");
    let msg = failed.downcast_ref::<&str>().expect("the lane's own panic payload");
    assert_eq!(*msg, "lane 5 gave up after the barrier");
    let bt = captured.lock().expect("the kernel is done").clone();
    assert!(bt.contains("fiber_main"), "the backtrace reaches the fiber's base:\n{bt}");
}
