//! Keeps every CPU busy while `serve-hot` is timed, so none of them halts.
//!
//! On the shared virtual machine the benchmark was built on, a CPU that
//! goes idle halts, and waking it for the next request took milliseconds
//! whenever the hardware under it was busy: across ten runs of the same
//! load, `serve-hot`'s p90 ranged from 0.55 to 4.2 ms, nearly all of it
//! requests waiting in the queue for a worker to wake. One spinning thread
//! per CPU keeps the CPUs from halting. The spinners run under Linux's
//! `SCHED_IDLE` policy, so a thread of the program that becomes runnable
//! preempts them at once; what is left of a wake-up is the guest's own
//! context switch. Elsewhere, or if the policy cannot be set, no spinner
//! runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spinning threads, one per CPU; dropping the guard stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        // The flag publishes nothing else, so `Relaxed` suffices.
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // At normal priority a spinner would take CPU time
                    // from the program.
                    if !lower_to_idle_priority() {
                        eprintln!("keep-awake: SCHED_IDLE unavailable, not spinning");
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`; returns whether it worked.
#[cfg(target_os = "linux")]
fn lower_to_idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        // sched_setscheduler(2), from the C library `std` links.
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param` for the whole call,
    // which only reads it, and pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn lower_to_idle_priority() -> bool {
    false
}
