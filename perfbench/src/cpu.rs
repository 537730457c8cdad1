//! Thread placement: training and serving run on one fixed CPU.
//!
//! The serving workloads run whole inside [`on_one_cpu`], so every thread
//! they start, the server's included, shares one CPU. Training calls it around
//! its set-up, around every `Trainer::train_epoch` and around the pool probe.
//! Threads inherit the CPU set of the thread that spawns them, so the
//! trainer's pool workers (spawned inside) share that CPU with the calling
//! thread, while the evaluation threads, spawned by `Trainer::evaluate` and
//! `Trainer::snapshot` between those calls, use every CPU. On a 2-vCPU host,
//! letting the scheduler place the calling thread and the 2-shard pool's
//! workers made Bernoulli epochs slower and far less steady than on one CPU,
//! where the pool's hand-offs are context switches rather than wake-ups of
//! the other vCPU.

/// A CPU set as `sched_setaffinity` takes it: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn current() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable CPU set of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable CPU set of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// The lowest CPU of `set` alone.
fn lowest(set: &CpuSet) -> Option<CpuSet> {
    let word = set.iter().position(|&w| w != 0)?;
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << set[word].trailing_zeros();
    Some(only)
}

/// Run `f` with the calling thread held on the lowest CPU it may use, then
/// restore its CPU set. Runs `f` unpinned when the set cannot be changed.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let Some(before) = current() else {
        return f();
    };
    let pinned = lowest(&before).is_some_and(|one| set(&one));
    let out = f();
    if pinned && !set(&before) {
        eprintln!("perfbench: cannot restore the CPU set of the training thread");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_keeps_only_the_first_cpu() {
        let mut set: CpuSet = [0; 16];
        set[1] = 0b1100;
        set[3] = 1;
        let mut expected: CpuSet = [0; 16];
        expected[1] = 0b100;
        assert_eq!(lowest(&set), Some(expected));
        assert_eq!(lowest(&[0; 16]), None);
    }

    #[test]
    fn pinning_is_undone_afterwards() {
        let before = current().expect("sched_getaffinity works");
        let inside = on_one_cpu(|| current().expect("sched_getaffinity works"));
        assert_eq!(inside.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(current(), Some(before));
    }
}
