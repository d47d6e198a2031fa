//! Stackful coroutines for the pooled execution engine.
//!
//! A simulated rank under [`crate::machine::Engine::Pool`] is a *coroutine*:
//! an SPMD closure running on its own heap-allocated stack that can suspend
//! itself at a clock-advance point (a blocking receive, a collective step,
//! a disk wait) and hand its continuation back to the worker that resumed
//! it. The worker pool in [`crate::pool`] multiplexes thousands of such
//! rank-coroutines onto a handful of OS threads.
//!
//! The context switch is ~30 instructions of architecture-specific assembly
//! (x86-64 SysV and AArch64 AAPCS64): push the callee-saved registers, swap
//! stack pointers, pop, return. No syscalls (unlike `swapcontext`, which
//! saves the signal mask on every switch) and no allocation on the switch
//! path. Stacks are allocated lazily on first resume and sized generously
//! (default 2 MiB, matching `std::thread`'s default); untouched pages cost
//! no resident memory, which is what keeps per-rank memory flat at
//! thousand-rank scale. A finished coroutine's stack is kept for the next
//! coroutine its thread starts, which keeps a long-lived pool's resident
//! set flat across runs.
//!
//! Safety model:
//! * a coroutine is resumed by at most one worker at a time (`&mut self`),
//!   and a suspended coroutine's stack is quiescent — workers only observe
//!   it through the [`ControlSlot`] written before the switch;
//! * panics never unwind across the assembly frames: the pool wraps rank
//!   bodies in `catch_unwind`, and [`coro_main`] aborts as a last resort;
//! * dropping a *suspended* coroutine frees its stack without running the
//!   destructors of the frames on it (they leak). The pool only does this
//!   on the fatal simulated-deadlock path, where the process is panicking
//!   with diagnostics anyway.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// Why a coroutine suspended itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum YieldReason {
    /// Blocked at a virtual-time wait (empty mailbox): park until a peer's
    /// send or exit wakes the task.
    Blocked,
    /// Cooperative yield at a clock-advance point (disk wait): the task is
    /// still runnable, re-queue it at its new virtual-time key.
    Coop,
}

/// Outcome of one [`Coro::resume`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoroStatus {
    /// The coroutine suspended; `vtime_bits` is its virtual clock (as
    /// monotone `f64::to_bits`) at the suspension point.
    Yielded(YieldReason, u64),
    /// The closure ran to completion; the stack has been freed.
    Finished,
}

// The two assembly entry points. `ooc_coro_switch(save, restore)` pushes the
// callee-saved registers, stores the current stack pointer to `*save`, loads
// `restore` as the new stack pointer, pops and returns on the new stack.
// `ooc_coro_bootstrap` is the first "return address" of a fresh coroutine:
// it moves the bootstrap pointer and entry function (planted in two saved-
// register slots) into place and calls the entry, which must never return.
extern "C" {
    fn ooc_coro_switch(save: *mut *mut u8, restore: *mut u8);
    fn ooc_coro_bootstrap();
}

#[cfg(not(target_vendor = "apple"))]
macro_rules! asm_name {
    ($n:literal) => {
        $n
    };
}
#[cfg(target_vendor = "apple")]
macro_rules! asm_name {
    ($n:literal) => {
        concat!("_", $n)
    };
}

// x86-64 SysV: callee-saved are rbx, rbp, r12-r15 (no callee-saved SSE
// state). Saved-frame layout ascending from the saved rsp:
//   [r15][r14][r13][r12][rbx][rbp][return address]
// A fresh coroutine plants the bootstrap data pointer in the r12 slot, the
// Rust entry address in the r13 slot, and `ooc_coro_bootstrap` in the
// return-address slot. The stack top is 16-aligned and the frame is 56
// bytes, so after the pops and the `ret` the bootstrap runs with rsp ≡ 0
// (mod 16); its `call` then gives the entry the ABI-required rsp ≡ 8.
#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".text",
    concat!(".globl ", asm_name!("ooc_coro_switch")),
    concat!(asm_name!("ooc_coro_switch"), ":"),
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
    "ret",
    concat!(".globl ", asm_name!("ooc_coro_bootstrap")),
    concat!(asm_name!("ooc_coro_bootstrap"), ":"),
    "mov rdi, r12",
    "call r13",
    "ud2",
);

// AArch64 AAPCS64: callee-saved are x19-x28, the frame pointer x29, the
// link register x30 and the SIMD registers d8-d15 — a 160-byte frame. A
// fresh coroutine plants the bootstrap data pointer in the x19 slot, the
// Rust entry in the x20 slot and `ooc_coro_bootstrap` in the x30 slot (the
// `ret` target). The stack top is 16-aligned as AAPCS64 requires.
#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    ".text",
    concat!(".globl ", asm_name!("ooc_coro_switch")),
    ".p2align 2",
    concat!(asm_name!("ooc_coro_switch"), ":"),
    "sub sp, sp, #160",
    "stp x19, x20, [sp]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8, d9, [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x9, sp",
    "str x9, [x0]",
    "mov sp, x1",
    "ldp x19, x20, [sp]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8, d9, [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "ret",
    concat!(".globl ", asm_name!("ooc_coro_bootstrap")),
    ".p2align 2",
    concat!(asm_name!("ooc_coro_bootstrap"), ":"),
    "mov x0, x19",
    "blr x20",
    "brk #0x1",
);

/// Whether the pooled engine's coroutine substrate is available on this
/// target. On unsupported architectures [`crate::machine::Engine::Pool`]
/// falls back to the threaded engine (which is bitwise-identical anyway).
pub const fn supported() -> bool {
    cfg!(any(target_arch = "x86_64", target_arch = "aarch64"))
}

/// Default coroutine stack size: 2 MiB, the same as `std::thread`'s default
/// on Linux, so rank bodies that ran under the threaded engine fit. Pages
/// are faulted in on first touch, so the resident cost per rank is the few
/// pages a rank actually uses. Override with `OOC_CORO_STACK_BYTES`.
const DEFAULT_STACK_BYTES: usize = 2 << 20;

/// Written at the low end of every stack and checked when the coroutine
/// finishes: a clobbered sentinel means the rank body overflowed its stack.
const STACK_SENTINEL: u64 = 0xdead_51ac_c0de_2026;

pub(crate) fn stack_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| {
        std::env::var("OOC_CORO_STACK_BYTES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|b| b.clamp(64 << 10, 1 << 30))
            .unwrap_or(DEFAULT_STACK_BYTES)
    })
}

/// How many finished coroutines' stacks a thread keeps for the next
/// coroutines it starts. A recycled stack touches the pages it touched
/// before; a freshly allocated one lands wherever the allocator's heap has
/// room and faults in new pages there, which it never gives back — without
/// recycling, a long-lived pool's resident set grows with every run it
/// hosts. The bound caps what an idle worker pins after one huge run.
const SPARE_STACKS_MAX: usize = 4096;

thread_local! {
    static SPARE_STACKS: RefCell<Vec<StackMem>> = const { RefCell::new(Vec::new()) };
}

/// Heap memory serving as a coroutine stack.
struct StackMem {
    base: *mut u8,
    layout: std::alloc::Layout,
}

impl StackMem {
    /// A spare stack of this thread if there is one, fresh memory
    /// otherwise ([`stack_bytes`] is fixed for the process, so every spare
    /// has the right size).
    fn acquire() -> StackMem {
        SPARE_STACKS
            .with_borrow_mut(Vec::pop)
            .unwrap_or_else(|| StackMem::new(stack_bytes()))
    }

    /// Hand back the stack of a finished coroutine. Its sentinel was
    /// checked intact, so the next coroutine starts from a sound one.
    fn release(self) {
        SPARE_STACKS.with_borrow_mut(|spare| {
            if spare.len() < SPARE_STACKS_MAX {
                spare.push(self);
            }
        });
    }

    fn new(bytes: usize) -> StackMem {
        let layout = std::alloc::Layout::from_size_align(bytes, 16).expect("stack layout");
        // SAFETY: layout has non-zero size.
        let base = unsafe { std::alloc::alloc(layout) };
        if base.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: base points at `bytes` >= 64 KiB of fresh memory.
        unsafe { (base as *mut u64).write(STACK_SENTINEL) };
        StackMem { base, layout }
    }

    /// One past the highest usable byte, aligned down to 16.
    fn top(&self) -> *mut u8 {
        let top = self.base as usize + self.layout.size();
        (top & !15) as *mut u8
    }

    fn sentinel_intact(&self) -> bool {
        // SAFETY: base holds at least a u64.
        unsafe { (self.base as *const u64).read() == STACK_SENTINEL }
    }
}

impl Drop for StackMem {
    fn drop(&mut self) {
        // SAFETY: allocated with exactly this layout.
        unsafe { std::alloc::dealloc(self.base, self.layout) };
    }
}

/// Shared slot through which a coroutine and its resuming worker exchange
/// saved contexts and yield metadata. Boxed so its address is stable even
/// as the owning [`Coro`] moves inside the scheduler's task table.
struct ControlSlot {
    /// Saved context of whoever called `resume` (worker side).
    caller_ctx: Cell<*mut u8>,
    /// Saved context of the suspended coroutine.
    coro_ctx: Cell<*mut u8>,
    reason: Cell<YieldReason>,
    vtime_bits: Cell<u64>,
    finished: Cell<bool>,
}

/// Handle a running coroutine uses to suspend itself. Valid only inside the
/// coroutine's closure, on the coroutine's own stack.
pub(crate) struct Yielder {
    control: *const ControlSlot,
}

impl Yielder {
    fn switch_out(&self, reason: YieldReason, vtime_bits: u64) {
        // SAFETY: control outlives the coroutine (owned, boxed, by `Coro`).
        let c = unsafe { &*self.control };
        c.reason.set(reason);
        c.vtime_bits.set(vtime_bits);
        // SAFETY: caller_ctx was saved by the worker that resumed us and its
        // frame is pinned until the switch lands back there.
        unsafe { ooc_coro_switch(c.coro_ctx.as_ptr(), c.caller_ctx.get()) };
    }

    /// Park: suspend until the scheduler is told to wake this task.
    pub(crate) fn yield_blocked(&self, vtime_bits: u64) {
        self.switch_out(YieldReason::Blocked, vtime_bits);
    }

    /// Cooperative yield: stay runnable, re-queued at `vtime_bits`.
    pub(crate) fn yield_coop(&self, vtime_bits: u64) {
        self.switch_out(YieldReason::Coop, vtime_bits);
    }
}

/// What `ooc_coro_bootstrap` hands to [`coro_main`].
struct Bootstrap {
    closure: Box<dyn FnOnce(&Yielder) + Send + 'static>,
    control: *const ControlSlot,
}

/// First Rust frame of every coroutine. Runs the closure, marks the control
/// slot finished, and switches back to the worker for the last time.
unsafe extern "C" fn coro_main(data: *mut Bootstrap) -> ! {
    // Re-box the bootstrap leaked by `Coro::start`; the closure box drops
    // at the end of the catch scope, freeing its captures on the coroutine
    // stack before the final switch-out.
    let data = unsafe { Box::from_raw(data) };
    let Bootstrap { closure, control } = *data;
    let yielder = Yielder { control };
    // The pool's rank wrapper catches panics itself; this catch is the
    // last line of defense keeping unwinding off the assembly frames.
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        closure(&yielder);
    }));
    if unwound.is_err() {
        eprintln!("fatal: panic escaped a rank coroutine's catch_unwind");
        std::process::abort();
    }
    // SAFETY: control outlives the coroutine.
    let c = unsafe { &*control };
    c.finished.set(true);
    unsafe { ooc_coro_switch(c.coro_ctx.as_ptr(), c.caller_ctx.get()) };
    // A finished coroutine is never resumed.
    std::process::abort();
}

enum CoroState {
    /// Closure staged, no stack yet.
    Created(Box<Bootstrap>),
    Suspended,
    Finished,
}

/// A rank coroutine: a closure plus (once started) the stack it runs on.
pub(crate) struct Coro {
    state: CoroState,
    stack: Option<StackMem>,
    control: Box<ControlSlot>,
}

// SAFETY: a Coro is only ever driven through `&mut self` (one worker at a
// time); its closure is `Send`; the stack is plain heap memory with no
// thread affinity, and suspension points never hold references to the
// resuming thread's TLS (suspend/resume are synchronous handoffs).
unsafe impl Send for Coro {}

impl Coro {
    /// Stage `closure` as a coroutine. No stack is allocated until the
    /// first [`Coro::resume`], so a fleet of not-yet-admitted rank tasks
    /// costs a few hundred bytes each.
    pub(crate) fn new(closure: Box<dyn FnOnce(&Yielder) + Send + 'static>) -> Coro {
        assert!(supported(), "coroutines unsupported on this target");
        let control = Box::new(ControlSlot {
            caller_ctx: Cell::new(std::ptr::null_mut()),
            coro_ctx: Cell::new(std::ptr::null_mut()),
            reason: Cell::new(YieldReason::Blocked),
            vtime_bits: Cell::new(0),
            finished: Cell::new(false),
        });
        let bootstrap = Box::new(Bootstrap {
            closure,
            control: &*control,
        });
        Coro {
            state: CoroState::Created(bootstrap),
            stack: None,
            control,
        }
    }

    /// Prepare the initial stack frame so the first switch "returns" into
    /// `ooc_coro_bootstrap` with the bootstrap pointer and `coro_main`
    /// planted in the two saved-register slots the trampoline expects.
    fn start(&mut self, bootstrap: Box<Bootstrap>) {
        let stack = StackMem::acquire();
        let top = stack.top() as usize;
        let data = Box::into_raw(bootstrap) as usize;
        let entry = coro_main as *const () as usize;
        let trampoline = ooc_coro_bootstrap as *const () as usize;
        #[cfg(target_arch = "x86_64")]
        let sp = {
            let sp = top - 56;
            let slot = |off: usize| (sp + off) as *mut usize;
            // [r15][r14][r13=entry][r12=data][rbx][rbp][ret=trampoline]
            unsafe {
                slot(0).write(0);
                slot(8).write(0);
                slot(16).write(entry);
                slot(24).write(data);
                slot(32).write(0);
                slot(40).write(0);
                slot(48).write(trampoline);
            }
            sp
        };
        #[cfg(target_arch = "aarch64")]
        let sp = {
            let sp = top - 160;
            let slot = |off: usize| (sp + off) as *mut usize;
            // x19=data @0, x20=entry @8, x29 @80, x30=trampoline @88,
            // everything else zero.
            unsafe {
                for off in (0..160).step_by(8) {
                    slot(off).write(0);
                }
                slot(0).write(data);
                slot(8).write(entry);
                slot(88).write(trampoline);
            }
            sp
        };
        self.control.coro_ctx.set(sp as *mut u8);
        self.stack = Some(stack);
    }

    /// Run the coroutine until it yields or finishes. Must not be called on
    /// a finished coroutine.
    pub(crate) fn resume(&mut self) -> CoroStatus {
        match std::mem::replace(&mut self.state, CoroState::Suspended) {
            CoroState::Created(bootstrap) => self.start(bootstrap),
            CoroState::Suspended => {}
            CoroState::Finished => unreachable!("resumed a finished coroutine"),
        }
        // SAFETY: coro_ctx holds a valid suspended context (freshly staged
        // or saved by the coroutine's last switch-out); our own context is
        // saved into caller_ctx for the coroutine to switch back to.
        unsafe {
            ooc_coro_switch(
                self.control.caller_ctx.as_ptr(),
                self.control.coro_ctx.get(),
            )
        };
        if self.control.finished.get() {
            self.state = CoroState::Finished;
            let stack = self.stack.take().expect("finished coroutine had a stack");
            assert!(
                stack.sentinel_intact(),
                "rank coroutine overflowed its {}-byte stack (set OOC_CORO_STACK_BYTES higher)",
                stack.layout.size()
            );
            stack.release();
            CoroStatus::Finished
        } else {
            CoroStatus::Yielded(self.control.reason.get(), self.control.vtime_bits.get())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(f: impl FnOnce(&Yielder) + Send + 'static) -> Box<dyn FnOnce(&Yielder) + Send> {
        Box::new(f)
    }

    #[test]
    fn runs_to_completion_without_yielding() {
        let hit = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hit.clone();
        let mut c = Coro::new(boxed(move |_| {
            h.fetch_add(7, std::sync::atomic::Ordering::SeqCst);
        }));
        assert_eq!(c.resume(), CoroStatus::Finished);
        assert_eq!(hit.load(std::sync::atomic::Ordering::SeqCst), 7);
    }

    #[test]
    fn yields_carry_reason_and_vtime() {
        let mut c = Coro::new(boxed(|y| {
            y.yield_blocked(41);
            y.yield_coop(42);
        }));
        assert_eq!(c.resume(), CoroStatus::Yielded(YieldReason::Blocked, 41));
        assert_eq!(c.resume(), CoroStatus::Yielded(YieldReason::Coop, 42));
        assert_eq!(c.resume(), CoroStatus::Finished);
    }

    #[test]
    fn deep_call_chains_and_allocation_survive_switches() {
        fn burn(depth: usize, y: &Yielder) -> u64 {
            let v: Vec<u64> = (0..32).map(|i| i + depth as u64).collect();
            if depth == 0 {
                y.yield_coop(depth as u64);
                v.iter().sum()
            } else {
                y.yield_coop(depth as u64);
                burn(depth - 1, y) + v[0]
            }
        }
        let out = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let o = out.clone();
        let mut c = Coro::new(boxed(move |y| {
            o.store(burn(64, y), std::sync::atomic::Ordering::SeqCst);
        }));
        let mut yields = 0;
        while c.resume() != CoroStatus::Finished {
            yields += 1;
        }
        assert_eq!(yields, 65);
        assert!(out.load(std::sync::atomic::Ordering::SeqCst) > 0);
    }

    #[test]
    fn resume_from_a_different_thread_is_fine() {
        let mut c = Coro::new(boxed(|y| {
            let local: Vec<u64> = (0..1000).collect();
            y.yield_blocked(0);
            assert_eq!(local.iter().sum::<u64>(), 499_500);
        }));
        assert!(matches!(c.resume(), CoroStatus::Yielded(..)));
        let done = std::thread::spawn(move || c.resume()).join().unwrap();
        assert_eq!(done, CoroStatus::Finished);
    }

    #[test]
    fn a_finished_coroutines_stack_serves_the_next_one_on_the_thread() {
        // Where a coroutine's first frame lives identifies its stack.
        fn frame_address() -> usize {
            let here = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let h = here.clone();
            let mut c = Coro::new(boxed(move |_| {
                let local = 0u8;
                h.store(
                    std::hint::black_box(&local) as *const u8 as usize,
                    std::sync::atomic::Ordering::SeqCst,
                );
            }));
            assert_eq!(c.resume(), CoroStatus::Finished);
            here.load(std::sync::atomic::Ordering::SeqCst)
        }
        assert_eq!(frame_address(), frame_address());
    }

    #[test]
    fn dropping_an_unstarted_coroutine_drops_the_closure() {
        struct Flag(std::sync::Arc<std::sync::atomic::AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let dropped = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Flag(dropped.clone());
        let c = Coro::new(boxed(move |_| {
            let _keep = &flag;
        }));
        drop(c);
        assert!(dropped.load(std::sync::atomic::Ordering::SeqCst));
    }
}
