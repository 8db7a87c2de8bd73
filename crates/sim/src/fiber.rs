//! Lane fibers: stackful coroutines that let one host thread run every
//! lane of a thread block.
//!
//! A kernel body is an ordinary blocking `Fn(&mut ThreadCtx)`. A lane that
//! calls `sync_threads` or a warp collective has to stop in the middle of
//! the body and continue once its siblings reach the same point, so each
//! lane of a synchronising block needs a stack of its own. A fiber is such
//! a stack plus a saved stack pointer: suspending a lane stores six
//! callee-saved registers and the floating-point control words on its stack
//! and loads another stack pointer, which costs nanoseconds and never
//! enters the OS kernel.
//!
//! * [`Stack`]: an `mmap`'d region that reserves 2 MiB, like a std thread
//!   stack, and commits pages only as the lane touches them, with a
//!   `PROT_NONE` guard page below it. Stacks are pooled process-wide, so a
//!   launch reuses the pages earlier launches already committed. A lane
//!   that overflows its stack faults on the guard page and the process
//!   dies of `SIGSEGV`, without std's "stack overflow" message (std only
//!   recognises the guard pages of its own threads).
//! * [`Fiber`]: a stack and the x86_64 SysV context switch. The entry
//!   trampoline marks the return address undefined (`.cfi_undefined rip`),
//!   so unwinders, panics and backtraces stop at the fiber's base instead
//!   of walking into whatever the stack held before.
//!
//! Only x86_64 Linux is supported; other targets fail to compile.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("ompx-sim's lane fibers are implemented for x86_64 Linux only");

use std::cell::Cell;
use std::ffi::c_void;
use std::ptr::NonNull;
use std::sync::{Mutex, PoisonError};

/// Usable bytes of a lane stack.
const STACK_BYTES: usize = 2 << 20;
/// The guard page below the usable part.
const GUARD_BYTES: usize = 4096;
/// Stacks kept for reuse; beyond this a returned stack is unmapped.
const POOL_CAP: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// One lane stack: `GUARD_BYTES` of `PROT_NONE` at `base`, then
/// `STACK_BYTES` of lazily committed read-write memory.
struct Stack {
    base: NonNull<u8>,
}

// SAFETY: a `Stack` exclusively owns its mapping and holds no reference to
// thread-affine state; moving it to another thread moves that ownership.
unsafe impl Send for Stack {}

static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

impl Stack {
    /// A stack from the pool, or a fresh mapping.
    fn take() -> Stack {
        let pooled = POOL.lock().unwrap_or_else(PoisonError::into_inner).pop();
        pooled.unwrap_or_else(Stack::map)
    }

    fn map() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: an anonymous private mapping with no address hint touches
        // no existing memory; the result is checked before use.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        // mmap reports failure as MAP_FAILED, i.e. (void*)-1.
        if p as isize == -1 {
            panic!("cannot map a lane stack: {}", std::io::Error::last_os_error());
        }
        // SAFETY: the first page lies inside the mapping just created, and
        // mmap returns page-aligned addresses.
        if unsafe { mprotect(p, GUARD_BYTES, PROT_NONE) } != 0 {
            panic!("cannot protect a lane stack guard: {}", std::io::Error::last_os_error());
        }
        Stack { base: NonNull::new(p.cast()).expect("mmap returned a null mapping") }
    }

    /// One past the highest usable byte; 16-byte aligned.
    fn top(&self) -> *mut u8 {
        // SAFETY: the offset is the mapping's length, one past its end.
        unsafe { self.base.as_ptr().add(GUARD_BYTES + STACK_BYTES) }
    }

    /// Hand the stack back for reuse.
    fn recycle(self) {
        let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < POOL_CAP {
            pool.push(self);
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` and the length are exactly the mapping `map`
        // created, and nothing runs on a stack that is being dropped (a
        // fiber with live frames leaks its stack instead, see `Fiber`).
        unsafe { munmap(self.base.as_ptr().cast(), GUARD_BYTES + STACK_BYTES) };
    }
}

// `ompx_fiber_switch(save, load)`: push the callee-saved registers and the
// MXCSR / x87 control words, store the stack pointer to `*save`, load
// `load` as the stack pointer, and pop the same frame from it.
//
// `ompx_fiber_start`: where a new fiber's first switch returns to. Its
// frame holds `fiber_main`'s arguments (fiber, body, arg) in r12-r14 and
// the function in r15; the stack pointer is 16-byte aligned here, as the
// call requires.
std::arch::global_asm!(
    ".pushsection .text.ompx_fiber,\"ax\",@progbits",
    ".p2align 4",
    ".globl ompx_fiber_switch",
    ".hidden ompx_fiber_switch",
    ".type ompx_fiber_switch,@function",
    "ompx_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size ompx_fiber_switch, . - ompx_fiber_switch",
    ".p2align 4",
    ".globl ompx_fiber_start",
    ".hidden ompx_fiber_start",
    ".type ompx_fiber_start,@function",
    "ompx_fiber_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "mov rsi, r13",
    "mov rdx, r14",
    "call r15",
    "ud2",
    ".cfi_endproc",
    ".size ompx_fiber_start, . - ompx_fiber_start",
    ".popsection",
);

extern "C" {
    fn ompx_fiber_switch(save: *mut *mut u8, load: *mut u8);
    fn ompx_fiber_start();
}

/// The body a fiber runs: called once with the argument given to
/// [`Fiber::start`]. It must not unwind.
pub(crate) type Body<'a> = &'a dyn Fn(usize);

/// A lane stack and the saved stack pointers of the fiber and of the host
/// context that resumed it. All state sits in `Cell`s: it is read after
/// switches the compiler cannot see through.
pub(crate) struct Fiber {
    stack: Option<Stack>,
    /// The fiber's stack pointer while it is suspended.
    sp: Cell<*mut u8>,
    /// The host's stack pointer while the fiber runs.
    host: Cell<*mut u8>,
    /// No frames live on the stack: never started, or its body returned.
    idle: Cell<bool>,
}

impl Fiber {
    /// An idle fiber on a pooled stack.
    pub(crate) fn new() -> Fiber {
        Fiber {
            stack: Some(Stack::take()),
            sp: Cell::new(std::ptr::null_mut()),
            host: Cell::new(std::ptr::null_mut()),
            idle: Cell::new(true),
        }
    }

    /// True when no frames live on the stack.
    pub(crate) fn is_idle(&self) -> bool {
        self.idle.get()
    }

    /// Prepare the fiber so that its next [`Fiber::resume`] calls
    /// `body(arg)` on the fiber's stack.
    ///
    /// # Safety
    /// The fiber must be idle and must not move until its body returns;
    /// `*body` and everything it borrows must outlive the body's run.
    pub(crate) unsafe fn start(&self, body: *const Body<'_>, arg: usize) {
        assert!(self.idle.get(), "a fiber with live frames cannot restart");
        let top = self.stack.as_ref().expect("an idle fiber owns its stack").top();
        // The frame `ompx_fiber_switch` pops: control words, r15, r14, r13,
        // r12, rbx, rbp and the return address, with 16 spare bytes above
        // so the trampoline sees a 16-byte-aligned stack pointer.
        let frame: [u64; 10] = [
            0x037f_0000_1f80, // MXCSR 0x1f80 and x87 control word 0x037f: the ABI defaults
            fiber_main as *const () as u64,
            arg as u64,
            body as u64,
            self as *const Fiber as u64,
            0,
            0,
            ompx_fiber_start as *const () as u64,
            0,
            0,
        ];
        // SAFETY: the frame's 80 bytes sit at the top of the idle fiber's
        // own mapping, 16-byte aligned because `top` is.
        let sp = unsafe { top.sub(std::mem::size_of_val(&frame)) };
        // SAFETY: see above; no frames live on an idle stack.
        unsafe { sp.cast::<[u64; 10]>().write(frame) };
        self.sp.set(sp);
        self.idle.set(false);
    }

    /// Run the fiber until it suspends or its body returns.
    ///
    /// # Safety
    /// The fiber must be started and not running, and must be resumed from
    /// the thread that started it.
    pub(crate) unsafe fn resume(&self) {
        debug_assert!(!self.idle.get(), "resume of an idle fiber");
        // SAFETY: `sp` holds the frame `start` or `suspend` left, and the
        // host's registers are saved into `host` for `suspend` to restore.
        unsafe { ompx_fiber_switch(self.host.as_ptr(), self.sp.get()) };
    }

    /// Return to the host context that resumed this fiber.
    ///
    /// # Safety
    /// Must be called on this fiber's own stack, i.e. from its body.
    pub(crate) unsafe fn suspend(&self) {
        // SAFETY: `host` holds the frame `resume` saved.
        unsafe { ompx_fiber_switch(self.sp.as_ptr(), self.host.get()) };
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        if let Some(stack) = self.stack.take() {
            if self.idle.get() {
                stack.recycle();
            } else {
                // Frames still live on it (a suspended lane that would not
                // unwind): never unmap or reuse memory something may point
                // into.
                std::mem::forget(stack);
            }
        }
    }
}

/// First frame on a fiber's stack: run the body, mark the fiber idle, and
/// switch away for good.
///
/// # Safety
/// Reached only through `ompx_fiber_start` with the arguments `start`
/// stored.
unsafe extern "C" fn fiber_main(fiber: *const Fiber, body: *const Body<'_>, arg: usize) -> ! {
    // SAFETY: `start`'s caller keeps the fiber and the body alive and in
    // place until the body returns.
    let (body, fiber) = unsafe { (&*body, &*fiber) };
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(arg))).is_err() {
        // There is no frame to unwind into below this one.
        eprintln!("ompx-sim: a fiber body unwound past its base");
        std::process::abort();
    }
    fiber.idle.set(true);
    // SAFETY: this is the fiber's own stack, and nothing owned lives in
    // this frame any more; the host never resumes an idle fiber.
    unsafe { fiber.suspend() };
    unreachable_abort()
}

#[cold]
fn unreachable_abort() -> ! {
    eprintln!("ompx-sim: an idle fiber was resumed");
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibers_interleave_and_finish() {
        let log = std::cell::RefCell::new(Vec::new());
        let fibers: Vec<Fiber> = (0..3).map(|_| Fiber::new()).collect();
        let body = |i: usize| {
            log.borrow_mut().push((i, 0));
            // SAFETY: called from fiber `i`'s own body.
            unsafe { fibers[i].suspend() };
            log.borrow_mut().push((i, 1));
        };
        let body: Body<'_> = &body;
        for (i, f) in fibers.iter().enumerate() {
            // SAFETY: idle fibers in a vector that outlives the test; the
            // body borrows locals that do too.
            unsafe { f.start(&body, i) };
        }
        for _ in 0..2 {
            for f in &fibers {
                // SAFETY: started on this thread, not running.
                unsafe { f.resume() };
            }
        }
        assert!(fibers.iter().all(Fiber::is_idle));
        assert_eq!(*log.borrow(), [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn float_control_words_survive_a_switch() {
        let fiber = Fiber::new();
        let seen = Cell::new(0.0f64);
        let body = |_: usize| {
            let x = std::hint::black_box(1.0f64) / std::hint::black_box(3.0f64);
            // SAFETY: called from the fiber's own body.
            unsafe { fiber.suspend() };
            seen.set(x * 3.0);
        };
        let body: Body<'_> = &body;
        // SAFETY: as above.
        unsafe {
            fiber.start(&body, 0);
            fiber.resume();
            fiber.resume();
        }
        assert_eq!(seen.get(), 1.0);
    }

    #[test]
    fn deep_frames_fit_on_a_lane_stack() {
        fn depth(n: u32) -> u64 {
            let pad = std::hint::black_box([n as u64; 64]);
            if n == 0 {
                pad[0]
            } else {
                depth(n - 1) + pad[1]
            }
        }
        let fiber = Fiber::new();
        let got = Cell::new(0);
        // Hundreds of KiB deep, within the 2 MiB even in debug builds.
        let body = |_: usize| got.set(depth(500));
        let body: Body<'_> = &body;
        // SAFETY: as above.
        unsafe {
            fiber.start(&body, 0);
            fiber.resume();
        }
        assert!(fiber.is_idle());
        assert_eq!(got.get(), (0..=500u64).sum::<u64>());
    }
}
