//! Stackful coroutines: the execution vehicle of ranks.
//!
//! A rank runs on its own pooled, guard-paged `mmap` stack and is resumed
//! by whichever worker thread pops it from a ready queue (its home
//! worker's, or stolen by an idle one); parking is one [`switch`] back to
//! that worker — a few loads and stores, no futex.
//!
//! # Invariants (each one is what makes a stack switch sound)
//!
//! * **No lock is held across `park`.** A coroutine may resume on another
//!   worker, and a worker that runs a second coroutine while the first still
//!   holds a lock can deadlock on it. Every park site (`ctx.rs` waits,
//!   `network.rs` credit waits) drops its guards before parking.
//! * **Nothing parks in `Drop`.** An unwinding rank that switched away would
//!   leave its worker thread's panic count raised for the next coroutine.
//! * **Rank panics are caught on their own stack** by `world.rs`'s
//!   `run_rank` (`catch_unwind`). A panic that escapes the `extern "C"`
//!   entry aborts the process: there is no frame above it to unwind into.
//! * **A stack goes back to the pool only after its coroutine is `Done`**
//!   (the worker recycles it after the final switch out). Until then some
//!   suspended frame may still live on it.
//! * **A rank stack overflow ends in SIGSEGV**, not Rust's "stack overflow"
//!   message: the guard page is not the thread's own guard, so std's
//!   handler does not recognise it and re-raises the fault.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!(
    "mpisim's scheduler runs ranks as stackful coroutines and supports only \
     x86_64 Linux (coro.rs has no context switch for this platform)"
);

use parking_lot::Mutex;
use std::ffi::c_void;
use std::ptr::NonNull;

/// A suspended context's saved stack pointer.
pub(crate) type Sp = *mut u8;

/// Usable bytes per rank stack (pages are committed only when touched).
const STACK_BYTES: usize = 1 << 20;
/// One `PROT_NONE` page below the stack catches overflow.
const GUARD: usize = 4096;
/// Stacks kept mapped for reuse across launches; beyond this they unmap.
const POOL_CAP: usize = 256;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE_ANON_NORESERVE_STACK: i32 = 0x02 | 0x20 | 0x4000 | 0x20000;

/// Save the callee-saved registers, MXCSR and the x87 control word on the
/// current stack, store its pointer to `*save`, then load `load` and pop
/// the same frame from it — returning into the other context.
///
/// # Safety
/// `load` must be a pointer previously stored by `switch` (or built by
/// [`Stack::prepare`]) whose context is suspended and entered by no one
/// else; `save` must stay valid until this context is resumed.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut Sp, load: Sp) {
    std::arch::naked_asm!(
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp]",
        "fnstcw word ptr [rsp + 4]",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ldmxcsr dword ptr [rsp]",
        "fldcw word ptr [rsp + 4]",
        "add rsp, 8",
        "ret",
    )
}

/// First return target of a fresh stack: calls `r13(r12)`, which never
/// returns (the coroutine's last act is a switch away).
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    std::arch::naked_asm!("mov rdi, r12", "call r13", "ud2")
}

/// One guard-paged coroutine stack, owned exclusively.
pub(crate) struct Stack(NonNull<u8>);

// SAFETY: a `Stack` is the sole owner of its mapping; nothing in it is tied
// to the thread that mapped it.
unsafe impl Send for Stack {}

static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

impl Stack {
    /// A stack from the process-global pool, or a freshly mapped one.
    pub(crate) fn take() -> Stack {
        if let Some(s) = POOL.lock().pop() {
            return s;
        }
        let len = GUARD + STACK_BYTES;
        // SAFETY: an anonymous private mapping aliases nothing; the guard
        // page lies inside it.
        unsafe {
            let p = mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANON_NORESERVE_STACK,
                -1,
                0,
            );
            assert!(p as isize != -1, "mmap of a {len}-byte rank stack failed");
            assert_eq!(mprotect(p, GUARD, PROT_NONE), 0, "mprotect of a rank stack guard failed");
            Stack(NonNull::new_unchecked(p.cast()))
        }
    }

    /// Build the frame that makes the first [`switch`] into this stack call
    /// `entry(arg)`, and return its stack pointer.
    pub(crate) fn prepare(&mut self, entry: extern "C" fn(*mut u8) -> !, arg: *mut u8) -> Sp {
        const X87_CW: u64 = 0x037f;
        const MXCSR: u64 = 0x1f80;
        // Popped lowest first: r15 r14 r13 r12 rbx rbp, MXCSR|x87 CW, the
        // return address; two zero words above keep `call r13` 16-aligned.
        let frame: [u64; 10] = [
            0,
            0,
            entry as *const () as u64,
            arg as u64,
            0,
            0,
            X87_CW << 32 | MXCSR,
            trampoline as *const () as u64,
            0,
            0,
        ];
        // SAFETY: the top 80 bytes of the 1 MiB usable range are ours; the
        // mapping is page-aligned, so the frame is 16-aligned.
        unsafe {
            let sp = self.0.as_ptr().add(GUARD + STACK_BYTES - size_of_val(&frame));
            sp.cast::<[u64; 10]>().write(frame);
            sp
        }
    }

    /// Return the stack to the pool (unmapping it if the pool is full).
    /// Only a stack whose coroutine reached `Done` may be recycled.
    pub(crate) fn recycle(self) {
        let mut pool = POOL.lock();
        if pool.len() < POOL_CAP {
            pool.push(self);
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is ours and no coroutine runs on it anymore.
        unsafe { munmap(self.0.as_ptr().cast(), GUARD + STACK_BYTES) };
    }
}
