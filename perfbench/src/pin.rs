//! Thread placement for the measured phases: once the server is up, every
//! thread of the process (client, connection workers, trainer) is bound to
//! one CPU. The measured phases never need two: the client waits while the
//! trainer works, and the trainer is idle while the client reads. On a
//! 2-vCPU VM, leaving the trainer free to run on the other vCPU doubled the
//! read and write-visibility p99s from run to run (see README.md), so the
//! binding is what keeps the tails comparable between runs.
//! [`Binding::release`] gives every thread back the CPUs it started with,
//! so work timed after a served run (the traced run's bootstrap) is placed
//! like the setup it stands for.

use std::io;

/// Words of a glibc `cpu_set_t` (1,024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

type Mask = [u64; WORDS];

/// The calling thread's CPU mask.
fn allowed_mask() -> io::Result<Mask> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(mask)
}

/// Sets the CPU mask of every thread of the process.
fn set_all(mask: &Mask) -> io::Result<()> {
    for task in std::fs::read_dir("/proc/self/task")? {
        let Ok(tid) = task?.file_name().to_string_lossy().parse::<i32>() else { continue };
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // the kernel only reads it.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Every thread of the process bound to one CPU, until [`Binding::release`].
pub struct Binding {
    /// The mask the calling thread had before the binding.
    allowed: Mask,
    /// Where the threads run, as text for the run record.
    pub placement: String,
}

impl Binding {
    /// Gives every thread of the process the mask the calling thread had
    /// before the binding.
    pub fn release(self) -> io::Result<()> {
        set_all(&self.allowed)
    }
}

/// Binds every thread of the process to the first CPU the calling thread
/// may run on. When only one is allowed anyway, nothing is moved.
pub fn bind_to_one_cpu() -> io::Result<Binding> {
    let allowed = allowed_mask()?;
    let cpus: Vec<usize> =
        (0..WORDS * 64).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
    if cpus.len() < 2 {
        return Ok(Binding { allowed, placement: "one cpu allowed".into() });
    }
    let mut one = [0u64; WORDS];
    one[cpus[0] / 64] |= 1 << (cpus[0] % 64);
    set_all(&one)?;
    Ok(Binding { allowed, placement: format!("all threads on cpu {} of {}", cpus[0], cpus.len()) })
}
