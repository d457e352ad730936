//! The sans-io contract shared by every ZugChain state machine.
//!
//! DESIGN.md's architectural bet is "deterministic state machines driven
//! by interchangeable runtimes". This crate makes that contract explicit:
//!
//! * [`Machine`] — a deterministic state machine consuming inputs and
//!   timer expiries, producing [`Effect`]s. The PBFT replica, the
//!   ZugChain/baseline nodes, and the export endpoints all implement it.
//! * [`Effect`] — the common effect vocabulary: `Send`, `Broadcast`,
//!   `SetTimer`, `CancelTimer`, and `Output` (application up-calls).
//! * [`Frame`] — a reference-counted, **lazily encoded** wire frame. A
//!   broadcast is wire-encoded at most once no matter how many peers the
//!   transport fans it out to; in-process transports never encode at all.
//! * [`TimerTable`] — explicit timer-*generation* semantics: re-arming or
//!   cancelling a timer invalidates queued expiries, so a runtime that
//!   cannot unschedule a wakeup (e.g. a discrete-event queue) simply lets
//!   stale ones fire and the [`Driver`] drops them.
//! * [`Driver`] — the single generic dispatch loop. It owns the machine
//!   and its timer table, wraps outbound messages into `Frame`s, and
//!   delegates the *mechanics* (socket writes, channel sends, event
//!   queues, clocks) to a runtime-provided [`Host`].
//!
//! Runtimes differ only in their `Host` implementation; the `match` over
//! effects lives here, exactly once.
//!
//! # Examples
//!
//! ```
//! use zugchain_machine::{Driver, Effect, Frame, Host, Machine, WireMessage};
//!
//! /// A machine that echoes every input to all peers.
//! struct Echo;
//!
//! /// The wire message (a newtype so we can give it an encoding).
//! #[derive(Clone)]
//! struct Text(String);
//!
//! impl WireMessage for Text {
//!     fn encode_wire(&self) -> Vec<u8> {
//!         self.0.as_bytes().to_vec()
//!     }
//! }
//!
//! impl Machine for Echo {
//!     type Addr = usize;
//!     type Message = Text;
//!     type Timer = u8;
//!     type Output = ();
//!     type Input = Text;
//!
//!     fn on_input(&mut self, input: Text) -> Vec<Effect<usize, Text, u8, ()>> {
//!         vec![Effect::Broadcast { message: input }]
//!     }
//!
//!     fn on_timer(&mut self, _timer: u8) -> Vec<Effect<usize, Text, u8, ()>> {
//!         Vec::new()
//!     }
//! }
//!
//! #[derive(Default)]
//! struct Collect(Vec<Vec<u8>>);
//!
//! impl Host<Echo> for Collect {
//!     fn send(&mut self, _to: usize, frame: &Frame<Text>) {
//!         self.0.push(frame.bytes().to_vec());
//!     }
//!     fn broadcast(&mut self, frame: &Frame<Text>) {
//!         // Fan out to three peers: the frame encodes once.
//!         for _ in 0..3 {
//!             self.0.push(frame.bytes().to_vec());
//!         }
//!     }
//!     fn set_timer(&mut self, _id: u8, _gen: u64, _duration_ms: u64) {}
//!     fn cancel_timer(&mut self, _id: u8) {}
//!     fn output(&mut self, _output: ()) {}
//! }
//!
//! let mut driver = Driver::new(Echo);
//! let mut host = Collect::default();
//! driver.on_input(Text("hello".to_string()), &mut host);
//! assert_eq!(host.0.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An effect a [`Machine`] asks its runtime to perform.
///
/// `A` addresses peers, `M` is the wire message type, `T` identifies
/// timers, and `O` is the application-facing output (up-call) type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<A, M, T, O> {
    /// Send a message to one peer.
    Send {
        /// Destination address.
        to: A,
        /// The message.
        message: M,
    },
    /// Send a message to every other peer.
    Broadcast {
        /// The message.
        message: M,
    },
    /// Arm (or re-arm) a timer. Re-arming invalidates earlier expiries of
    /// the same timer id (see [`TimerTable`]).
    SetTimer {
        /// Timer identity.
        id: T,
        /// Duration until expiry in milliseconds.
        duration_ms: u64,
    },
    /// Disarm a timer (no-op if not armed). Queued expiries become stale.
    CancelTimer {
        /// Timer identity.
        id: T,
    },
    /// An application up-call (decide, logged, block created, …).
    Output(O),
}

/// The discriminant of an [`Effect`], independent of its type parameters.
///
/// Drivers and test harnesses that classify effects (accounting, fault
/// injection, tracing) can match on this instead of writing a full
/// four-parameter generic match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectKind {
    /// [`Effect::Send`].
    Send,
    /// [`Effect::Broadcast`].
    Broadcast,
    /// [`Effect::SetTimer`].
    SetTimer,
    /// [`Effect::CancelTimer`].
    CancelTimer,
    /// [`Effect::Output`].
    Output,
}

impl EffectKind {
    /// Stable lowercase label for logs, metrics and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            EffectKind::Send => "send",
            EffectKind::Broadcast => "broadcast",
            EffectKind::SetTimer => "set-timer",
            EffectKind::CancelTimer => "cancel-timer",
            EffectKind::Output => "output",
        }
    }
}

impl<A, M, T, O> Effect<A, M, T, O> {
    /// The discriminant of this effect.
    pub fn kind(&self) -> EffectKind {
        match self {
            Effect::Send { .. } => EffectKind::Send,
            Effect::Broadcast { .. } => EffectKind::Broadcast,
            Effect::SetTimer { .. } => EffectKind::SetTimer,
            Effect::CancelTimer { .. } => EffectKind::CancelTimer,
            Effect::Output(_) => EffectKind::Output,
        }
    }
}

/// The [`Effect`] type of a machine `M`.
pub type MachineEffect<M> = Effect<
    <M as Machine>::Addr,
    <M as Machine>::Message,
    <M as Machine>::Timer,
    <M as Machine>::Output,
>;

/// A deterministic sans-io state machine.
///
/// A machine never performs I/O and never reads a clock: it consumes
/// inputs and timer expiries and returns the effects the runtime must
/// execute, in order. Determinism is the property the whole evaluation
/// rests on — the same input sequence must produce the same effect
/// sequence on every runtime.
pub trait Machine {
    /// Peer address type (e.g. a replica id).
    type Addr;
    /// Wire message type.
    type Message;
    /// Timer identity type.
    type Timer: Copy + Ord;
    /// Application output (up-call) type.
    type Output;
    /// Input type (bus payloads, network messages, …).
    type Input;

    /// Consumes one input, returning the effects it caused.
    fn on_input(&mut self, input: Self::Input) -> Vec<MachineEffect<Self>>;

    /// Fires an armed timer, returning the effects it caused. The
    /// [`Driver`] guarantees only *current* (non-stale) expiries arrive.
    fn on_timer(&mut self, timer: Self::Timer) -> Vec<MachineEffect<Self>>;
}

// ---------------------------------------------------------------------
// Serialize-once frames
// ---------------------------------------------------------------------

/// A message type with a canonical wire encoding.
pub trait WireMessage {
    /// Encodes the message into its canonical byte representation.
    fn encode_wire(&self) -> Vec<u8>;
}

#[derive(Debug)]
struct FrameInner<M> {
    message: M,
    encoded: OnceLock<Vec<u8>>,
    encodes: AtomicU64,
}

/// A reference-counted, lazily encoded wire frame.
///
/// The [`Driver`] wraps every outbound message into a `Frame` exactly
/// once per `Send`/`Broadcast` effect. Cloning a frame is an `Arc` clone;
/// [`bytes`](Frame::bytes) encodes on first call and returns the cached
/// buffer afterwards — so a broadcast over any number of TCP peers
/// serializes the message once, into the one buffer its encoder returned,
/// and in-process transports (channels, the discrete-event simulator)
/// never serialize at all.
#[derive(Debug)]
pub struct Frame<M>(Arc<FrameInner<M>>);

impl<M> Clone for Frame<M> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<M> Frame<M> {
    /// Wraps a message.
    pub fn new(message: M) -> Self {
        Self(Arc::new(FrameInner {
            message,
            encoded: OnceLock::new(),
            encodes: AtomicU64::new(0),
        }))
    }

    /// The wrapped message.
    pub fn message(&self) -> &M {
        &self.0.message
    }

    /// How many times the message has been wire-encoded. At most 1 by
    /// construction; the encode-count regression tests assert on this.
    pub fn encode_count(&self) -> u64 {
        self.0.encodes.load(Ordering::Relaxed)
    }
}

impl<M: Clone> Frame<M> {
    /// Clones the message out of the frame (in-process delivery).
    pub fn to_message(&self) -> M {
        self.0.message.clone()
    }
}

impl<M: WireMessage> Frame<M> {
    /// The canonical encoding, computed once and cached: every call on
    /// this frame or its clones returns the same buffer.
    pub fn bytes(&self) -> &[u8] {
        self.0.encoded.get_or_init(|| {
            self.0.encodes.fetch_add(1, Ordering::Relaxed);
            self.0.message.encode_wire()
        })
    }
}

// ---------------------------------------------------------------------
// Timer generations
// ---------------------------------------------------------------------

/// Timer-generation bookkeeping shared by every runtime.
///
/// Arming a timer id takes a fresh generation from one counter for the
/// whole table; the runtime schedules a wakeup carrying
/// `(id, generation)`. Only the armed generation of each id is kept, so
/// a wakeup queued before a cancel or re-arm fires with a stale
/// generation and is dropped by [`fire`](TimerTable::fire), and a timer
/// that is no longer armed leaves nothing behind. This gives runtimes
/// that cannot unschedule wakeups (discrete-event queues) and runtimes
/// that can (deadline maps) identical cancellation semantics — the
/// divergence that previously let a cancelled-then-refired soft timeout
/// double-propose on some runtimes.
#[derive(Debug, Default)]
pub struct TimerTable<T: Ord> {
    /// The last generation handed out; generations are never reused.
    next: u64,
    /// The generation each armed timer is waiting for.
    armed: BTreeMap<T, u64>,
}

impl<T: Copy + Ord> TimerTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            next: 0,
            armed: BTreeMap::new(),
        }
    }

    /// Arms `id`, invalidating any queued expiry, and returns the new
    /// generation to schedule.
    pub fn arm(&mut self, id: T) -> u64 {
        self.next += 1;
        self.armed.insert(id, self.next);
        self.next
    }

    /// Cancels `id`: any queued expiry becomes stale.
    pub fn cancel(&mut self, id: T) {
        self.armed.remove(&id);
    }

    /// Returns `true` if `(id, generation)` is the currently armed expiry.
    pub fn is_current(&self, id: T, generation: u64) -> bool {
        self.armed.get(&id) == Some(&generation)
    }

    /// Consumes an expiry: returns `true` exactly once per armed
    /// generation, `false` for stale or duplicate firings.
    pub fn fire(&mut self, id: T, generation: u64) -> bool {
        if self.is_current(id, generation) {
            self.armed.remove(&id);
            true
        } else {
            false
        }
    }

    /// Number of currently armed timers.
    pub fn armed_len(&self) -> usize {
        self.armed.len()
    }

    /// Disarms everything (crash simulation).
    pub fn clear(&mut self) {
        self.armed.clear();
    }
}

// ---------------------------------------------------------------------
// The generic driver
// ---------------------------------------------------------------------

/// What a runtime provides for the [`Driver`] to execute effects.
///
/// Hosts implement *mechanics only*: how to move a frame, how to schedule
/// a wakeup, where outputs go. All protocol-visible policy (timer
/// generations, serialize-once) lives in the driver.
pub trait Host<M: Machine> {
    /// Delivers a frame to one peer.
    fn send(&mut self, to: M::Addr, frame: &Frame<M::Message>);
    /// Delivers a frame to every other peer. The frame is shared: a
    /// wire transport should call [`Frame::bytes`] once and write the
    /// same buffer to each peer.
    fn broadcast(&mut self, frame: &Frame<M::Message>);
    /// Schedules a wakeup for `(id, gen)` after `duration_ms`. The
    /// runtime reports the expiry via [`Driver::on_timer_fired`].
    fn set_timer(&mut self, id: M::Timer, gen: u64, duration_ms: u64);
    /// Unschedules `id` if the runtime can; stale expiries are dropped by
    /// the driver regardless, so this is an optimization hook.
    fn cancel_timer(&mut self, id: M::Timer);
    /// Receives an application output.
    fn output(&mut self, output: M::Output);
}

/// A passive tap on everything flowing through a [`Driver`]: inputs,
/// effects, and the timer lifecycle (with generations). Observers are
/// telemetry, not policy — they see borrowed data, cannot alter it, and
/// every method has an empty default body, so a no-op observer costs one
/// branch per hook.
///
/// The driver invokes hooks in execution order: `input` (or
/// `timer_fired`) first, then one `effect` per emitted effect, with
/// `timer_set`/`timer_cancelled` nested inside the corresponding timer
/// effects after the generation is assigned.
pub trait Observer<M: Machine> {
    /// An input is about to be fed to the machine.
    fn input(&mut self, _input: &M::Input) {}
    /// The machine emitted an effect (observed before routing).
    fn effect(&mut self, _effect: &MachineEffect<M>) {}
    /// A timer was armed with the given generation.
    fn timer_set(&mut self, _id: &M::Timer, _gen: u64, _duration_ms: u64) {}
    /// A timer was cancelled.
    fn timer_cancelled(&mut self, _id: &M::Timer) {}
    /// A timer expiry was reported; `stale` expiries are dropped without
    /// reaching the machine.
    fn timer_fired(&mut self, _id: &M::Timer, _gen: u64, _stale: bool) {}
}

/// The [`Observer`] that observes nothing (the driver default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl<M: Machine> Observer<M> for NoopObserver {}

/// The single generic dispatch loop: owns a [`Machine`] and its
/// [`TimerTable`], routes effects to a [`Host`].
///
/// This replaces the three hand-rolled `match action` loops the
/// discrete-event simulator, the threaded runtime, and the TCP mesh used
/// to carry — and is the one place broadcast frames are created, so a
/// message is encoded/signed once per broadcast regardless of fan-out.
///
/// An optional [`Observer`] taps the same seam for telemetry; without
/// one (the default) every hook site is a single `None` check.
pub struct Driver<M: Machine> {
    machine: M,
    timers: TimerTable<M::Timer>,
    observer: Option<Box<dyn Observer<M> + Send>>,
}

impl<M: Machine + std::fmt::Debug> std::fmt::Debug for Driver<M>
where
    M::Timer: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("machine", &self.machine)
            .field("timers", &self.timers)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl<M: Machine> Driver<M> {
    /// Wraps a machine.
    pub fn new(machine: M) -> Self {
        Self {
            machine,
            timers: TimerTable::new(),
            observer: None,
        }
    }

    /// Wraps a machine with an [`Observer`] attached from the start.
    pub fn with_observer(machine: M, observer: Box<dyn Observer<M> + Send>) -> Self {
        Self {
            machine,
            timers: TimerTable::new(),
            observer: Some(observer),
        }
    }

    /// Attaches (or replaces) the observer.
    pub fn set_observer(&mut self, observer: Box<dyn Observer<M> + Send>) {
        self.observer = Some(observer);
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Mutable access to the wrapped machine.
    pub fn machine_mut(&mut self) -> &mut M {
        &mut self.machine
    }

    /// Unwraps the machine (shutdown/state collection).
    pub fn into_machine(self) -> M {
        self.machine
    }

    /// Feeds one input through the machine and routes its effects.
    pub fn on_input<H: Host<M>>(&mut self, input: M::Input, host: &mut H) {
        if let Some(observer) = &mut self.observer {
            observer.input(&input);
        }
        let effects = self.machine.on_input(input);
        self.route(effects, host);
    }

    /// Reports a timer expiry. Stale generations (cancelled or re-armed
    /// since scheduling) are dropped; returns whether the timer fired.
    pub fn on_timer_fired<H: Host<M>>(&mut self, id: M::Timer, gen: u64, host: &mut H) -> bool {
        let current = self.timers.fire(id, gen);
        if let Some(observer) = &mut self.observer {
            observer.timer_fired(&id, gen, !current);
        }
        if !current {
            return false;
        }
        let effects = self.machine.on_timer(id);
        self.route(effects, host);
        true
    }

    /// Returns `true` if `(id, gen)` is still the armed expiry — lets a
    /// cost-modelling runtime skip charging for stale wakeups.
    pub fn timer_is_current(&self, id: M::Timer, gen: u64) -> bool {
        self.timers.is_current(id, gen)
    }

    /// Number of currently armed timers.
    pub fn armed_timers(&self) -> usize {
        self.timers.armed_len()
    }

    /// Disarms all timers (crash simulation): queued expiries go stale.
    pub fn clear_timers(&mut self) {
        self.timers.clear();
    }

    fn route<H: Host<M>>(&mut self, effects: Vec<MachineEffect<M>>, host: &mut H) {
        for effect in effects {
            if let Some(observer) = &mut self.observer {
                observer.effect(&effect);
            }
            match effect {
                Effect::Send { to, message } => host.send(to, &Frame::new(message)),
                Effect::Broadcast { message } => host.broadcast(&Frame::new(message)),
                Effect::SetTimer { id, duration_ms } => {
                    let gen = self.timers.arm(id);
                    if let Some(observer) = &mut self.observer {
                        observer.timer_set(&id, gen, duration_ms);
                    }
                    host.set_timer(id, gen, duration_ms);
                }
                Effect::CancelTimer { id } => {
                    self.timers.cancel(id);
                    if let Some(observer) = &mut self.observer {
                        observer.timer_cancelled(&id);
                    }
                    host.cancel_timer(id);
                }
                Effect::Output(output) => host.output(output),
            }
        }
    }
}

/// An uninhabited timer type for machines that never arm timers (e.g.
/// the export data center).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NoTimer {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A message whose encoder counts global invocations.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Msg(Vec<u8>);

    static ENCODES: AtomicUsize = AtomicUsize::new(0);

    impl WireMessage for Msg {
        fn encode_wire(&self) -> Vec<u8> {
            ENCODES.fetch_add(1, Ordering::SeqCst);
            self.0.clone()
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Out {
        Fired(u8),
    }

    /// Scriptable test machine: each input is a list of effects to emit.
    struct Scripted;

    type Fx = Effect<usize, Msg, u8, Out>;

    impl Machine for Scripted {
        type Addr = usize;
        type Message = Msg;
        type Timer = u8;
        type Output = Out;
        type Input = Vec<Fx>;

        fn on_input(&mut self, input: Vec<Fx>) -> Vec<Fx> {
            input
        }

        fn on_timer(&mut self, timer: u8) -> Vec<Fx> {
            vec![Effect::Output(Out::Fired(timer))]
        }
    }

    /// Records everything; fans broadcasts out to `peers` wire writes.
    #[derive(Default)]
    struct MockHost {
        peers: usize,
        /// The address of each buffer written to the wire.
        wire_writes: Vec<*const u8>,
        frames: Vec<Frame<Msg>>,
        timers_set: Vec<(u8, u64, u64)>,
        outputs: Vec<Out>,
    }

    impl Host<Scripted> for MockHost {
        fn send(&mut self, _to: usize, frame: &Frame<Msg>) {
            self.wire_writes.push(frame.bytes().as_ptr());
            self.frames.push(frame.clone());
        }
        fn broadcast(&mut self, frame: &Frame<Msg>) {
            for _ in 0..self.peers {
                self.wire_writes.push(frame.bytes().as_ptr());
            }
            self.frames.push(frame.clone());
        }
        fn set_timer(&mut self, id: u8, gen: u64, duration_ms: u64) {
            self.timers_set.push((id, gen, duration_ms));
        }
        fn cancel_timer(&mut self, _id: u8) {}
        fn output(&mut self, output: Out) {
            self.outputs.push(output);
        }
    }

    #[test]
    fn broadcast_encodes_exactly_once_regardless_of_fanout() {
        let before = ENCODES.load(Ordering::SeqCst);
        let mut driver = Driver::new(Scripted);
        let mut host = MockHost {
            peers: 16,
            ..MockHost::default()
        };
        driver.on_input(
            vec![Effect::Broadcast {
                message: Msg(vec![42; 128]),
            }],
            &mut host,
        );
        assert_eq!(host.wire_writes.len(), 16);
        // One frame, one encode, sixteen writes of the same buffer.
        assert_eq!(host.frames.len(), 1);
        assert_eq!(host.frames[0].encode_count(), 1);
        assert_eq!(ENCODES.load(Ordering::SeqCst) - before, 1);
        let first = host.wire_writes[0];
        assert!(host.wire_writes.iter().all(|w| *w == first));
    }

    #[test]
    fn in_process_delivery_never_encodes() {
        let before = ENCODES.load(Ordering::SeqCst);
        let frame = Frame::new(Msg(vec![1, 2, 3]));
        let copies: Vec<Msg> = (0..8).map(|_| frame.to_message()).collect();
        assert!(copies.iter().all(|m| m.0 == vec![1, 2, 3]));
        assert_eq!(frame.encode_count(), 0);
        assert_eq!(ENCODES.load(Ordering::SeqCst), before);
    }

    #[test]
    fn cancelled_timer_expiry_is_stale() {
        let mut driver = Driver::new(Scripted);
        let mut host = MockHost::default();
        driver.on_input(
            vec![Effect::SetTimer {
                id: 7,
                duration_ms: 50,
            }],
            &mut host,
        );
        let (id, gen, _) = host.timers_set[0];
        driver.on_input(vec![Effect::CancelTimer { id: 7 }], &mut host);
        // The queued expiry fires anyway (a runtime that cannot
        // unschedule); the driver must drop it.
        assert!(!driver.on_timer_fired(id, gen, &mut host));
        assert!(host.outputs.is_empty());
    }

    #[test]
    fn cancelled_then_rearmed_timer_fires_only_the_new_generation() {
        let mut driver = Driver::new(Scripted);
        let mut host = MockHost::default();
        driver.on_input(
            vec![Effect::SetTimer {
                id: 3,
                duration_ms: 50,
            }],
            &mut host,
        );
        let (_, gen1, _) = host.timers_set[0];
        driver.on_input(vec![Effect::CancelTimer { id: 3 }], &mut host);
        driver.on_input(
            vec![Effect::SetTimer {
                id: 3,
                duration_ms: 50,
            }],
            &mut host,
        );
        let (_, gen2, _) = host.timers_set[1];
        assert_ne!(gen1, gen2);
        // Old expiry: stale. New expiry: fires once, then its duplicate
        // is dropped too.
        assert!(!driver.on_timer_fired(3, gen1, &mut host));
        assert!(driver.on_timer_fired(3, gen2, &mut host));
        assert!(!driver.on_timer_fired(3, gen2, &mut host));
        assert_eq!(host.outputs, vec![Out::Fired(3)]);
    }

    #[test]
    fn rearm_without_cancel_invalidates_the_old_expiry() {
        let mut table: TimerTable<u8> = TimerTable::new();
        let gen1 = table.arm(1);
        let gen2 = table.arm(1);
        assert!(!table.fire(1, gen1));
        assert!(table.fire(1, gen2));
    }

    /// Regression: every backup arms a soft timer per request id, so a
    /// table that remembered disarmed ids grew by one entry per request
    /// for the life of the process.
    #[test]
    fn disarmed_timers_leave_nothing_behind() {
        let mut table: TimerTable<u32> = TimerTable::new();
        let mut generations = Vec::new();
        for id in 0..10_000 {
            generations.push(table.arm(id));
            table.cancel(id);
        }
        let fired = table.arm(10_000);
        assert!(table.fire(10_000, fired));
        assert_eq!(table.armed_len(), 0);
        assert_eq!(
            format!("{table:?}"),
            "TimerTable { next: 10001, armed: {} }"
        );
        // Queued expiries of every cancelled generation stay stale.
        for (id, generation) in (0..).zip(generations) {
            assert!(!table.fire(id, generation));
        }
    }

    #[test]
    fn clear_disarms_everything() {
        let mut table: TimerTable<u8> = TimerTable::new();
        let gen_a = table.arm(1);
        let gen_b = table.arm(2);
        assert_eq!(table.armed_len(), 2);
        table.clear();
        assert_eq!(table.armed_len(), 0);
        assert!(!table.fire(1, gen_a));
        assert!(!table.fire(2, gen_b));
    }

    #[test]
    fn effects_route_in_order() {
        let mut driver = Driver::new(Scripted);
        let mut host = MockHost {
            peers: 2,
            ..MockHost::default()
        };
        driver.on_input(
            vec![
                Effect::Output(Out::Fired(1)),
                Effect::Send {
                    to: 1,
                    message: Msg(vec![9]),
                },
                Effect::Output(Out::Fired(2)),
            ],
            &mut host,
        );
        assert_eq!(host.outputs, vec![Out::Fired(1), Out::Fired(2)]);
        assert_eq!(host.wire_writes.len(), 1);
    }

    #[test]
    fn effect_kinds_match_variants() {
        let effects: Vec<Fx> = vec![
            Effect::Send {
                to: 1,
                message: Msg(vec![]),
            },
            Effect::Broadcast {
                message: Msg(vec![]),
            },
            Effect::SetTimer {
                id: 1,
                duration_ms: 10,
            },
            Effect::CancelTimer { id: 1 },
            Effect::Output(Out::Fired(0)),
        ];
        let kinds: Vec<EffectKind> = effects.iter().map(Effect::kind).collect();
        assert_eq!(
            kinds,
            vec![
                EffectKind::Send,
                EffectKind::Broadcast,
                EffectKind::SetTimer,
                EffectKind::CancelTimer,
                EffectKind::Output,
            ]
        );
    }
}
