//! Structured-event tracer with spans.
//!
//! The event model is deliberately small: a [`Span`] emits an `Enter`
//! event when created and an `Exit` event (with wall-clock duration
//! and any late-recorded attributes) when dropped; [`event!`] emits a
//! standalone `Instant` event. Parentage is tracked per thread, so a
//! span opened inside another span's extent becomes its child without
//! any plumbing through function signatures — including across
//! `catch_unwind` boundaries, because `Drop` runs during unwinding and
//! closes the span.
//!
//! ## Cost model
//!
//! * `trace` feature off: [`enabled`] is a `const false`; the macros'
//!   attribute expressions are dead code and the optimizer removes the
//!   whole branch. This is the configuration the overhead gate
//!   (`swsimd-bench`, `obs_overhead`) bounds below 1% of kernel time.
//! * feature on, no sink: one relaxed atomic load per macro site.
//! * feature on, sink installed: one `Instant::now()` pair per span
//!   plus whatever the sink does. Kernels only open spans per *call*
//!   (never per cell or per diagonal), so even a slow sink cannot
//!   perturb the inner loop.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

/// A typed attribute value on an event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string (the common case: engine names, precisions).
    Str(&'static str),
    /// Owned string (formatted values; allocate only when tracing).
    String(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.4}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::String(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::$variant(v as $conv) }
        })*
    };
}
value_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

/// What kind of event this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Enter,
    /// A span closed (carries `elapsed_ns` and late-recorded attrs).
    Exit,
    /// A point-in-time event.
    Instant,
}

/// One structured event delivered to the [`Sink`].
#[derive(Clone, Debug)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Span or event name (static: no allocation on the hot path).
    pub name: &'static str,
    /// Span id (`Enter`/`Exit`); 0 for `Instant` events.
    pub id: u64,
    /// Enclosing span id at emission time (0 = root).
    pub parent: u64,
    /// Distributed trace id this event belongs to (0 = untraced).
    pub trace: u64,
    /// Tracer-assigned thread id (stable within a thread's lifetime).
    pub thread: u64,
    /// Wall-clock duration, `Exit` events only.
    pub elapsed_ns: Option<u64>,
    /// Typed attributes.
    pub attrs: Vec<(&'static str, Value)>,
}

impl Event {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Instant => "event",
        };
        write!(
            f,
            "{kind} {} id={} parent={}",
            self.name, self.id, self.parent
        )?;
        if self.trace != 0 {
            write!(f, " trace={}", self.trace)?;
        }
        if let Some(ns) = self.elapsed_ns {
            write!(f, " elapsed_ns={ns}")?;
        }
        for (k, v) in &self.attrs {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Receives every emitted event. Implementations must be cheap or
/// offload: sinks run on the emitting thread.
pub trait Sink: Send + Sync {
    /// Handle one event (clone it to keep it).
    fn record(&self, event: &Event);
}

static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static ID_BASE: OnceLock<u64> = OnceLock::new();

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    /// The [`Recorder`] scope this thread's work belongs to (0 = none).
    static SCOPE: Cell<u64> = const { Cell::new(0) };
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Relaxed);
}

/// splitmix64 finalizer — turns the process nonce into a well-mixed
/// 64-bit id base.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-process id base. Span ids used to start at 1 in every process,
/// so ids from two processes in one stitched trace collided trivially;
/// offsetting the counter by a PID+clock nonce makes cross-process
/// collision as unlikely as a 64-bit birthday.
fn id_base() -> u64 {
    *ID_BASE.get_or_init(|| {
        let pid = std::process::id() as u64;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(pid.rotate_left(32) ^ nanos)
    })
}

/// Mint a process-unique, cross-process-collision-resistant 64-bit id
/// (never 0 — 0 is the "absent" sentinel everywhere). Used for span
/// ids and for the gateway's per-request trace ids.
pub fn mint_id() -> u64 {
    let base = id_base();
    loop {
        let id = base.wrapping_add(NEXT_SPAN_ID.fetch_add(1, Relaxed));
        if id != 0 {
            return id;
        }
    }
}

/// A propagated trace context: which distributed trace a request
/// belongs to and the remote span to parent under. Carried on the
/// wire between gateway and shards; `(0, 0)` means "untraced".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// 64-bit trace id minted at the request's entry point.
    pub trace_id: u64,
    /// Remote parent span id (0 = root of the trace).
    pub span_id: u64,
}

impl TraceCtx {
    /// True if this context carries a trace (`trace_id != 0`).
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }
}

/// The trace id active on this thread (0 = none). Set by [`adopt`].
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|t| t.get())
}

/// Adopt a remote trace context on this thread: spans opened while the
/// returned guard lives are tagged with `ctx.trace_id` and parent under
/// `ctx.span_id` — this is how a shard's span tree roots under the
/// gateway's request span despite living in another process, and how a
/// worker thread parents under its submitting connection thread.
///
/// Cheap when untraced or when tracing is disabled: guard construction
/// is two thread-local writes at most.
pub fn adopt(ctx: TraceCtx) -> AdoptGuard {
    if !enabled() || !ctx.is_traced() {
        return AdoptGuard {
            prev_trace: 0,
            pushed: 0,
            restore: false,
            _not_send: std::marker::PhantomData,
        };
    }
    let prev_trace = CURRENT_TRACE.with(|t| t.replace(ctx.trace_id));
    if ctx.span_id != 0 {
        SPAN_STACK.with(|s| s.borrow_mut().push(ctx.span_id));
    }
    AdoptGuard {
        prev_trace,
        pushed: ctx.span_id,
        restore: true,
        _not_send: std::marker::PhantomData,
    }
}

/// RAII guard returned by [`adopt`]; restores the thread's previous
/// trace id and parent stack on drop.
pub struct AdoptGuard {
    prev_trace: u64,
    pushed: u64,
    restore: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if !self.restore {
            return;
        }
        if self.pushed != 0 {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last() == Some(&self.pushed) {
                    stack.pop();
                } else if let Some(pos) = stack.iter().rposition(|&id| id == self.pushed) {
                    stack.remove(pos);
                }
            });
        }
        CURRENT_TRACE.with(|t| t.set(self.prev_trace));
    }
}

/// The calling thread's tracing context — trace id, innermost open span
/// and [`Recorder`] scope — captured to hand to a worker thread that
/// does part of the caller's work. A worker that [`Handoff::enter`]s
/// it emits into the caller's trace, and a recorder the caller
/// installed keeps its events.
#[derive(Clone, Copy, Debug)]
pub struct Handoff {
    ctx: TraceCtx,
    scope: u64,
}

/// Capture the calling thread's [`Handoff`].
pub fn handoff() -> Handoff {
    Handoff {
        ctx: TraceCtx {
            trace_id: current_trace(),
            span_id: current_parent(),
        },
        scope: SCOPE.with(Cell::get),
    }
}

impl Handoff {
    /// Run this thread inside the captured context until the guard
    /// drops. The trace part follows [`adopt`]: it applies only to a
    /// traced caller.
    pub fn enter(self) -> HandoffGuard {
        HandoffGuard {
            prev_scope: SCOPE.with(|s| s.replace(self.scope)),
            _adopt: adopt(self.ctx),
        }
    }
}

/// RAII guard returned by [`Handoff::enter`]; restores the thread's
/// previous context on drop.
pub struct HandoffGuard {
    prev_scope: u64,
    _adopt: AdoptGuard,
}

impl Drop for HandoffGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev_scope));
    }
}

/// True if tracing was compiled in (the `trace` feature).
pub const fn compiled() -> bool {
    cfg!(feature = "trace")
}

/// Fast gate used by the [`span!`]/[`event!`] macros: compiled in AND
/// a sink is installed. Inlines to `false` when the feature is off,
/// letting the optimizer delete the instrumented branch entirely.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        RUNTIME_ENABLED.load(Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

fn lock_poison_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install (or remove, with `None`) the process-wide event sink.
pub fn set_sink(sink: Option<Arc<dyn Sink>>) {
    let mut slot = SINK.write().unwrap_or_else(|e| e.into_inner());
    RUNTIME_ENABLED.store(sink.is_some() && compiled(), Relaxed);
    *slot = sink;
}

fn emit(event: &Event) {
    let guard = SINK.read().unwrap_or_else(|e| e.into_inner());
    if let Some(sink) = guard.as_deref() {
        sink.record(event);
    }
}

fn current_parent() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Emit an `Instant` event (prefer the [`event!`] macro, which skips
/// attribute construction when tracing is disabled).
pub fn instant(name: &'static str, attrs: Vec<(&'static str, Value)>) {
    if !enabled() {
        return;
    }
    emit(&Event {
        kind: EventKind::Instant,
        name,
        id: 0,
        parent: current_parent(),
        trace: current_trace(),
        thread: thread_id(),
        elapsed_ns: None,
        attrs,
    });
}

/// An RAII tracing span. Created by the [`span!`] macro; emits `Enter`
/// on creation and `Exit` (with duration and late attributes) on drop.
///
/// Not `Send`: parentage lives in a thread-local stack, so a span must
/// be dropped on the thread that opened it.
pub struct Span {
    id: u64,
    name: &'static str,
    start: Option<Instant>,
    exit_attrs: Vec<(&'static str, Value)>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Span {
    /// Open a span (prefer the [`span!`] macro).
    pub fn enter(name: &'static str, attrs: Vec<(&'static str, Value)>) -> Span {
        if !enabled() {
            return Span::disabled();
        }
        let id = mint_id();
        let parent = current_parent();
        emit(&Event {
            kind: EventKind::Enter,
            name,
            id,
            parent,
            trace: current_trace(),
            thread: thread_id(),
            elapsed_ns: None,
            attrs,
        });
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Span {
            id,
            name,
            start: Some(Instant::now()),
            exit_attrs: Vec::new(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// The no-op span the macros return when tracing is off.
    pub fn disabled() -> Span {
        Span {
            id: 0,
            name: "",
            start: None,
            exit_attrs: Vec::new(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// True if this span is live (guard for expensive attribute
    /// computation before [`Span::record`]).
    pub fn active(&self) -> bool {
        self.id != 0
    }

    /// This span's id (0 for a disabled span) — propagate it in a
    /// [`TraceCtx`] to parent remote or cross-thread work under it.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach an attribute to the eventual `Exit` event (no-op on a
    /// disabled span).
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.id != 0 {
            self.exit_attrs.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // LIFO in the common case; a linear scan keeps the stack
            // consistent even if spans are dropped out of order.
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        let elapsed = self.start.map(|t| t.elapsed().as_nanos() as u64);
        emit(&Event {
            kind: EventKind::Exit,
            name: self.name,
            id: self.id,
            parent: current_parent(),
            trace: current_trace(),
            thread: thread_id(),
            elapsed_ns: elapsed,
            attrs: std::mem::take(&mut self.exit_attrs),
        });
    }
}

/// Open a [`Span`]: `span!("kernel", "isa" => engine.name(), ...)`.
///
/// Attribute expressions are not evaluated unless tracing is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::Span::enter(
                $name,
                ::std::vec![$(($k, $crate::trace::Value::from($v))),*],
            )
        } else {
            $crate::trace::Span::disabled()
        }
    };
}

/// Emit an instant event: `event!("shed", "depth" => depth)`.
///
/// Attribute expressions are not evaluated unless tracing is enabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::instant(
                $name,
                ::std::vec![$(($k, $crate::trace::Value::from($v))),*],
            );
        }
    };
}

/// A sink that collects events in memory — the test and debugging
/// workhorse. Install via [`Recorder::install`], which scopes it to the
/// installing caller's work, so parallel tests do not observe each
/// other's events.
#[derive(Default)]
pub struct Recorder {
    /// Keep only events emitted by threads working in this scope.
    scope: u64,
    events: Mutex<Vec<Event>>,
}

impl Sink for Recorder {
    fn record(&self, event: &Event) {
        if SCOPE.with(Cell::get) == self.scope {
            lock_poison_ok(&self.events).push(event.clone());
        }
    }
}

static RECORDER_EXCLUSIVE: Mutex<()> = Mutex::new(());

impl Recorder {
    /// Install a fresh recorder as the process sink; the returned
    /// handle uninstalls it on drop and holds a global lock so only
    /// one recorder is active at a time. The recorder keeps only the
    /// installing caller's work: events emitted on this thread while
    /// the handle lives, and on worker threads that entered a
    /// [`Handoff`] captured from it. Other threads' events are
    /// dropped, so concurrent tests cannot leak spans into it.
    pub fn install() -> RecorderHandle {
        let guard = lock_poison_ok(&RECORDER_EXCLUSIVE);
        let scope = mint_id();
        let recorder = Arc::new(Recorder {
            scope,
            events: Mutex::default(),
        });
        let prev_scope = SCOPE.with(|s| s.replace(scope));
        set_sink(Some(recorder.clone()));
        RecorderHandle {
            recorder,
            prev_scope,
            _guard: guard,
        }
    }
}

/// Keeps a [`Recorder`] installed; uninstalls on drop.
pub struct RecorderHandle {
    recorder: Arc<Recorder>,
    /// The installing thread's scope before the install.
    prev_scope: u64,
    _guard: MutexGuard<'static, ()>,
}

impl RecorderHandle {
    /// Snapshot of all recorded events, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        lock_poison_ok(&self.recorder.events).clone()
    }

    /// Exit events whose span name is `name`.
    pub fn exits<'a>(&self, events: &'a [Event], name: &str) -> Vec<&'a Event> {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Exit && e.name == name)
            .collect()
    }

    /// Direct children (`Enter` events) of the span with id `parent`.
    pub fn children<'a>(&self, events: &'a [Event], parent: u64) -> Vec<&'a Event> {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Enter && e.parent == parent)
            .collect()
    }
}

impl Drop for RecorderHandle {
    fn drop(&mut self) {
        set_sink(None);
        SCOPE.with(|s| s.set(self.prev_scope));
    }
}

/// A sink that formats every event to stderr — the single runtime
/// output channel for CLI tools and the figure harness.
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&self, event: &Event) {
        eprintln!("[obs] {event}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        // Hold the recorder lock so no parallel test has a sink
        // installed (or is allocating span ids) while we check.
        let _guard = lock_poison_ok(&RECORDER_EXCLUSIVE);
        // No sink installed: macros must not emit or allocate ids.
        let before = NEXT_SPAN_ID.load(Relaxed);
        {
            let mut sp = crate::span!("quiet", "k" => 1u64);
            sp.record("late", 2u64);
            assert!(!sp.active());
        }
        crate::event!("quiet_event", "k" => 3u64);
        assert_eq!(NEXT_SPAN_ID.load(Relaxed), before);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn spans_nest_and_balance() {
        let handle = Recorder::install();
        {
            let mut outer = crate::span!("outer", "a" => 1u64);
            {
                let _inner = crate::span!("inner");
                crate::event!("tick", "n" => 7u64);
            }
            outer.record("done", true);
        }
        let events = handle.events();
        drop(handle);

        assert_eq!(events.len(), 5); // enter outer, enter inner, tick, exit inner, exit outer
        let outer_enter = &events[0];
        assert_eq!(
            (outer_enter.kind, outer_enter.name),
            (EventKind::Enter, "outer")
        );
        assert_eq!(outer_enter.parent, 0);
        assert_eq!(outer_enter.attr("a"), Some(&Value::U64(1)));

        let inner_enter = &events[1];
        assert_eq!(inner_enter.parent, outer_enter.id);
        let tick = &events[2];
        assert_eq!(
            (tick.kind, tick.parent),
            (EventKind::Instant, inner_enter.id)
        );

        let inner_exit = &events[3];
        assert_eq!(
            (inner_exit.kind, inner_exit.id),
            (EventKind::Exit, inner_enter.id)
        );
        assert!(inner_exit.elapsed_ns.is_some());

        let outer_exit = &events[4];
        assert_eq!(outer_exit.id, outer_enter.id);
        assert_eq!(outer_exit.attr("done"), Some(&Value::Bool(true)));
    }

    #[test]
    #[cfg(feature = "trace")]
    fn spans_close_during_unwind() {
        let handle = Recorder::install();
        let result = std::panic::catch_unwind(|| {
            let _sp = crate::span!("doomed");
            panic!("boom");
        });
        assert!(result.is_err());
        // The span still exited, and the stack is clean for new spans.
        let _after = crate::span!("after");
        let events = handle.events();
        drop(handle);
        let doomed_exit = events
            .iter()
            .find(|e| e.kind == EventKind::Exit && e.name == "doomed")
            .expect("span closed by unwinding");
        let after_enter = events
            .iter()
            .find(|e| e.kind == EventKind::Enter && e.name == "after")
            .unwrap();
        assert_eq!(after_enter.parent, 0, "stack popped despite panic");
        assert!(doomed_exit.elapsed_ns.is_some());
    }

    #[test]
    fn display_is_line_oriented() {
        let mut e = Event {
            kind: EventKind::Exit,
            name: "kernel",
            id: 3,
            parent: 1,
            trace: 0,
            thread: 1,
            elapsed_ns: Some(1500),
            attrs: vec![("isa", Value::Str("AVX2")), ("cells", Value::U64(100))],
        };
        assert_eq!(
            e.to_string(),
            "exit kernel id=3 parent=1 elapsed_ns=1500 isa=AVX2 cells=100"
        );
        e.trace = 42;
        assert_eq!(
            e.to_string(),
            "exit kernel id=3 parent=1 trace=42 elapsed_ns=1500 isa=AVX2 cells=100"
        );
    }

    #[test]
    fn minted_ids_are_nonce_offset_and_nonzero() {
        let a = mint_id();
        let b = mint_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        // The per-process nonce must actually displace the counter:
        // a freshly booted process historically handed out 1, 2, 3...
        // which collided across every process in a stitched trace.
        assert!(id_base() != 0, "nonce must not degenerate to zero");
    }

    #[test]
    #[cfg(feature = "trace")]
    fn adopted_context_parents_and_tags_spans() {
        let handle = Recorder::install();
        let ctx = TraceCtx {
            trace_id: 0xBEEF,
            span_id: 0xD00D,
        };
        {
            let _g = adopt(ctx);
            let _sp = crate::span!("remote_child");
            crate::event!("remote_tick");
        }
        // Context restored: a span opened after the guard is a root.
        let _after = crate::span!("after_adopt");
        let events = handle.events();
        drop(handle);

        let child = events
            .iter()
            .find(|e| e.kind == EventKind::Enter && e.name == "remote_child")
            .unwrap();
        assert_eq!(child.parent, 0xD00D, "span parents under the remote span");
        assert_eq!(child.trace, 0xBEEF, "span is tagged with the trace id");
        let tick = events
            .iter()
            .find(|e| e.kind == EventKind::Instant && e.name == "remote_tick")
            .unwrap();
        assert_eq!(tick.trace, 0xBEEF);
        let after = events
            .iter()
            .find(|e| e.kind == EventKind::Enter && e.name == "after_adopt")
            .unwrap();
        assert_eq!(after.parent, 0, "adopt guard restored the stack");
        assert_eq!(after.trace, 0, "adopt guard restored the trace id");
    }

    #[test]
    #[cfg(feature = "trace")]
    fn recorder_keeps_only_the_installing_callers_work() {
        let handle = Recorder::install();
        let ctx = handoff();
        std::thread::scope(|s| {
            s.spawn(|| crate::event!("stranger"));
            s.spawn(move || {
                let _ctx = ctx.enter();
                crate::event!("helper");
            });
        });
        crate::event!("caller");
        let events = handle.events();
        drop(handle);
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["helper", "caller"]);
    }

    #[test]
    fn untraced_adopt_is_inert() {
        let _guard = lock_poison_ok(&RECORDER_EXCLUSIVE);
        let _g = adopt(TraceCtx::default());
        assert_eq!(current_trace(), 0);
    }
}
