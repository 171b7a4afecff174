//! The message adversary: deterministic in-flight attacks on the channels.
//!
//! The paper's model (§2.1) assumes *reliable* channels — the only power the
//! base adversary has over messages is their (finite) delay. Related work
//! motivates a stronger opponent: self-stabilization under malicious actions
//! corrupts in-flight state, and fault-tolerant protocols are classically
//! evaluated under message loss and duplication, not just crashes. This
//! module adds that opponent as an *opt-in* layer applied inside
//! [`crate::network::Network::route`]:
//!
//! * [`MessageAdversary::None`] — today's reliable channels, **bit-identical**
//!   to a simulator without this module: no RNG stream is consumed, no
//!   counter is bumped, no trace changes.
//! * [`MessageAdversary::Rules`] — an ordered rule list. Every routed
//!   point-to-point message is tested against each rule in order; a matching
//!   rule fires with its configured probability, drawn from the adversary's
//!   *own* salt stream (`0xADE5`), so enabling the adversary never perturbs
//!   the delay, step, or oracle streams.
//!
//! The three attacks ([`RuleAction`]):
//!
//! * **Drop** — the message is lost (channel becomes fair-lossy inside the
//!   rule's window). A drop consumes the message's delay draw first, so the
//!   *delivered* subset of messages keeps exactly the delivery times it
//!   would have had without the adversary.
//! * **Duplicate** — a second copy is scheduled with an independently drawn
//!   delay (from the adversary stream). Both copies carry the same payload;
//!   duplication never reorders the event queue's `(at, seq)` pop order
//!   because copies are ordinary pushes.
//! * **Corrupt** — the payload is mutated in place via [`Corruptible`],
//!   within a declared `bound` (Byzantine-ish, but *bounded*: the victim
//!   value moves by at most `bound`).
//!
//! Reliable broadcast is exempt by construction: the runtime routes
//! R-deliveries through [`crate::network::Network::route_protected`],
//! because the rb abstraction is an *axiom* of the model — attacking it
//! would falsify the premise rather than stress the algorithm. (The
//! constructive [`crate::echo::EchoRb`] implementation, which realizes rb
//! over plain channels, *is* attacked — its internal echoes are ordinary
//! point-to-point messages.)
//!
//! ## Determinism contract
//!
//! The adversary draws from a single dedicated stream in rule order, one
//! `chance` sample per matching rule per message (plus one delay sample per
//! duplicate and the draws of each corruption). Same `(spec, seed)` ⇒ same
//! dropped set, same duplicate schedule, same corrupted values — the
//! property tests in `crates/sim/tests/props.rs` pin this down.
//!
//! ## The topology adversary
//!
//! [`TopologySchedule`] is the *structural* counterpart of the probabilistic
//! rules above: a time-indexed sequence of [`TopologyEpoch`]s, each
//! declaring partition islands (messages crossing island boundaries are
//! severed — dropped with certainty, no coin flipped) and per-direction
//! [`LinkOverride`]s (asymmetric latency ranges, or one-way silences). The
//! schedule answers one question per message, [`TopologySchedule::fate`]:
//! is this link open, severed until a heal time, or rerouted through an
//! override latency range?
//!
//! Semantics chosen to preserve the model's axioms:
//!
//! * **Plain channels** — a severed message is lost (like a 100% drop, but
//!   structural: zero adversary draws). The base delay draw still happens
//!   first, so the delivered subset keeps clean-run delivery times.
//! * **Reliable broadcast** ([`crate::network::Network::route_protected`])
//!   — rb is an axiom: messages may be arbitrarily *delayed* but never
//!   lost. A severed rb message is therefore *held until the heal time*
//!   (delivered shortly after the epoch ends), and latency overrides
//!   apply. This is exactly the paper's delay-only adversary.
//!
//! The schedule draws from its own salt stream (`0x7090`), used only for
//! override-latency sampling and post-heal release jitter. When the
//! schedule is [`TopologySchedule::None`] (the default) *zero* draws are
//! consumed and no epoch scan runs — runs are bit-identical to a simulator
//! without this feature, pinned by the recorded scenario fingerprints.

use crate::id::{PSet, ProcessId};
use crate::rng::SplitMix64;
use crate::time::Time;

/// What a matching [`MessageRule`] does to the message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleAction {
    /// Lose the message. Terminal: later rules are not consulted.
    Drop,
    /// Schedule a second copy with an independently drawn delay.
    Duplicate,
    /// Mutate the payload in place by at most `bound` (see [`Corruptible`]).
    Corrupt {
        /// Maximum distance the corrupted value may move (0 = no-op).
        bound: u64,
    },
}

/// One adversary rule: an action, a firing probability, and a scope.
///
/// A rule applies to a message iff the sender is in `from`, the receiver is
/// in `to`, and the send time lies in `[active_from, active_to)` — the same
/// windowing scheme as [`crate::network::DelayRule`], so "attack until GST"
/// is spelled `.window(Time::ZERO, gst)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageRule {
    /// The attack.
    pub action: RuleAction,
    /// Firing probability in percent (0–100), drawn per matching message.
    pub pct: u8,
    /// Senders the rule applies to.
    pub from: PSet,
    /// Receivers the rule applies to.
    pub to: PSet,
    /// Start (inclusive) of the send-time window.
    pub active_from: Time,
    /// End (exclusive) of the send-time window.
    pub active_to: Time,
}

impl MessageRule {
    fn unscoped(action: RuleAction, pct: u8) -> Self {
        MessageRule {
            action,
            pct: pct.min(100),
            from: PSet::full(crate::id::MAX_PROCESSES),
            to: PSet::full(crate::id::MAX_PROCESSES),
            active_from: Time::ZERO,
            active_to: Time::INFINITY,
        }
    }

    /// A drop rule over all links, active forever.
    pub fn drop(pct: u8) -> Self {
        Self::unscoped(RuleAction::Drop, pct)
    }

    /// A duplication rule over all links, active forever.
    pub fn duplicate(pct: u8) -> Self {
        Self::unscoped(RuleAction::Duplicate, pct)
    }

    /// A bounded-corruption rule over all links, active forever.
    pub fn corrupt(pct: u8, bound: u64) -> Self {
        Self::unscoped(RuleAction::Corrupt { bound }, pct)
    }

    /// Restricts the rule to a send-time window (builder style).
    pub fn window(mut self, active_from: Time, active_to: Time) -> Self {
        self.active_from = active_from;
        self.active_to = active_to;
        self
    }

    /// Restricts the rule to messages `from → to` (builder style).
    pub fn links(mut self, from: PSet, to: PSet) -> Self {
        self.from = from;
        self.to = to;
        self
    }

    /// Whether the rule is in scope for this message.
    #[inline]
    pub fn applies(&self, from: ProcessId, to: ProcessId, sent_at: Time) -> bool {
        self.from.contains(from)
            && self.to.contains(to)
            && sent_at >= self.active_from
            && sent_at < self.active_to
    }

    /// A copy with a different firing probability (clamped to 100). A
    /// shrink-step primitive: binary-searching `pct` toward 0 keeps the
    /// rule's scope and action intact.
    pub fn with_pct(mut self, pct: u8) -> Self {
        self.pct = pct.min(100);
        self
    }

    /// A copy with a different corruption bound. No-op for non-corrupt
    /// actions (drop/duplicate have no bound to shrink).
    pub fn with_bound(mut self, bound: u64) -> Self {
        if let RuleAction::Corrupt { bound: b } = &mut self.action {
            *b = bound;
        }
        self
    }
}

/// The message adversary of a run: nothing, or an ordered rule list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum MessageAdversary {
    /// Reliable channels (the paper's base model). Guaranteed bit-identical
    /// to the pre-adversary simulator: the fast path in
    /// [`crate::network::Network::route`] touches no RNG stream.
    #[default]
    None,
    /// Apply these rules, in order, to every routed point-to-point message.
    Rules(Vec<MessageRule>),
}

impl MessageAdversary {
    /// Whether this is the empty adversary.
    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self, MessageAdversary::None)
    }

    /// The rule list (empty for [`MessageAdversary::None`]).
    pub fn rules(&self) -> &[MessageRule] {
        match self {
            MessageAdversary::None => &[],
            MessageAdversary::Rules(rules) => rules,
        }
    }

    /// A one-line description for bench reports and tables
    /// (`"none"` or e.g. `"drop10+dup5"`).
    pub fn describe(&self) -> String {
        match self {
            MessageAdversary::None => "none".into(),
            MessageAdversary::Rules(rules) => {
                let parts: Vec<String> = rules
                    .iter()
                    .map(|r| match r.action {
                        RuleAction::Drop => format!("drop{}", r.pct),
                        RuleAction::Duplicate => format!("dup{}", r.pct),
                        RuleAction::Corrupt { bound } => {
                            format!("corrupt{}b{}", r.pct, bound)
                        }
                    })
                    .collect();
                if parts.is_empty() {
                    "none".into()
                } else {
                    parts.join("+")
                }
            }
        }
    }

    /// Canonicalizes a rule list: an empty list becomes
    /// [`MessageAdversary::None`]. The scenario fingerprint distinguishes
    /// `Rules(vec![])` from `None` (it hashes `is_none()`), so shrink
    /// steps that empty the list must normalize or two behaviourally
    /// identical specs would carry different fingerprints.
    pub fn from_rules(rules: Vec<MessageRule>) -> Self {
        if rules.is_empty() {
            MessageAdversary::None
        } else {
            MessageAdversary::Rules(rules)
        }
    }

    /// A copy without rule `idx` (normalized; out-of-range `idx` returns
    /// an unchanged copy). A shrink-step primitive.
    pub fn without_rule(&self, idx: usize) -> Self {
        let mut rules = self.rules().to_vec();
        if idx < rules.len() {
            rules.remove(idx);
        }
        Self::from_rules(rules)
    }

    /// A copy with rule `idx` replaced (out-of-range `idx` returns an
    /// unchanged copy). A shrink-step primitive.
    pub fn with_rule_replaced(&self, idx: usize, rule: MessageRule) -> Self {
        let mut rules = self.rules().to_vec();
        if idx < rules.len() {
            rules[idx] = rule;
        }
        Self::from_rules(rules)
    }
}

/// A per-direction link override inside a [`TopologyEpoch`].
///
/// Overrides are consulted *before* island membership, in declaration
/// order (first match wins), so an epoch can sever the system into
/// islands yet keep one asymmetric channel across the cut — or silence a
/// single direction of an otherwise-open link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkOverride {
    /// Senders the override applies to.
    pub from: PSet,
    /// Receivers the override applies to.
    pub to: PSet,
    /// `Some((lo, hi))` replaces the link's latency with a uniform draw in
    /// `[lo, hi]` (from the topology stream); `None` is a one-way silence
    /// — the direction is severed for the epoch.
    pub latency: Option<(u64, u64)>,
}

impl LinkOverride {
    /// A one-way silence: messages `from → to` are severed for the epoch.
    pub fn silence(from: PSet, to: PSet) -> Self {
        LinkOverride {
            from,
            to,
            latency: None,
        }
    }

    /// An asymmetric latency range: messages `from → to` take a uniform
    /// delay in `[lo, hi]` ticks instead of the base delay model.
    pub fn latency(from: PSet, to: PSet, lo: u64, hi: u64) -> Self {
        LinkOverride {
            from,
            to,
            latency: Some((lo, hi)),
        }
    }
}

/// One epoch of a [`TopologySchedule`]: a half-open time window
/// `[from, until)` during which the declared partition and overrides are
/// in force. `until` doubles as the epoch's *heal time* — at that tick the
/// islands rejoin (unless a later epoch re-severs them).
///
/// Island semantics: a message is **open** if sender and receiver share a
/// listed island, or both are unlisted (unlisted processes form an
/// implicit remainder island), or the island list is empty (overrides
/// only). Self-sends are always open. Everything else crossing the cut is
/// **severed** until `until`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyEpoch {
    /// Start (inclusive) of the epoch.
    pub from: Time,
    /// End (exclusive) of the epoch — the heal time.
    pub until: Time,
    /// Partition islands (disjoint by intent; first containing set wins).
    pub islands: Vec<PSet>,
    /// Per-direction overrides, consulted before island membership.
    pub overrides: Vec<LinkOverride>,
}

impl TopologyEpoch {
    /// An epoch with no islands and no overrides (builder seed).
    pub fn new(from: Time, until: Time) -> Self {
        TopologyEpoch {
            from,
            until,
            islands: Vec::new(),
            overrides: Vec::new(),
        }
    }

    /// Declares the partition islands (builder style).
    pub fn islands(mut self, islands: Vec<PSet>) -> Self {
        self.islands = islands;
        self
    }

    /// Appends a per-direction override (builder style).
    pub fn link(mut self, o: LinkOverride) -> Self {
        self.overrides.push(o);
        self
    }

    /// Whether `sent_at` falls inside this epoch's `[from, until)` window.
    #[inline]
    pub fn covers(&self, sent_at: Time) -> bool {
        sent_at >= self.from && sent_at < self.until
    }

    /// A copy with a different `[from, until)` window (a shrink-step
    /// primitive: narrowing the window weakens the epoch).
    pub fn with_window(mut self, from: Time, until: Time) -> Self {
        self.from = from;
        self.until = until;
        self
    }

    /// A copy without island `idx` (out-of-range `idx` returns an
    /// unchanged copy). Removing an island *weakens* the partition: its
    /// members rejoin the implicit remainder island.
    pub fn without_island(mut self, idx: usize) -> Self {
        if idx < self.islands.len() {
            self.islands.remove(idx);
        }
        self
    }

    /// A copy without override `idx` (out-of-range `idx` returns an
    /// unchanged copy). A shrink-step primitive.
    pub fn without_override(mut self, idx: usize) -> Self {
        if idx < self.overrides.len() {
            self.overrides.remove(idx);
        }
        self
    }

    /// The fate of one directed message inside this epoch.
    fn link_fate(&self, from: ProcessId, to: ProcessId) -> LinkFate {
        for o in &self.overrides {
            if o.from.contains(from) && o.to.contains(to) {
                return match o.latency {
                    Some((lo, hi)) => LinkFate::Latency { lo, hi },
                    None => LinkFate::Severed { heal: self.until },
                };
            }
        }
        if from == to || self.islands.is_empty() {
            return LinkFate::Open;
        }
        let home = self.islands.iter().position(|i| i.contains(from));
        let dest = self.islands.iter().position(|i| i.contains(to));
        // Unlisted processes form an implicit remainder island (None == None).
        if home == dest {
            LinkFate::Open
        } else {
            LinkFate::Severed { heal: self.until }
        }
    }
}

/// What the topology schedule decides for one directed message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFate {
    /// The link is untouched: base delay model, ordinary adversary rules.
    Open,
    /// The link is cut until `heal`. Plain channels lose the message;
    /// reliable-broadcast channels hold it and deliver just after `heal`.
    Severed {
        /// First tick at which the cut is no longer in force.
        heal: Time,
    },
    /// The link is open but its latency is overridden: a uniform draw in
    /// `[lo, hi]` ticks from the topology stream replaces the base delay.
    Latency {
        /// Lower latency bound (ticks).
        lo: u64,
        /// Upper latency bound (ticks).
        hi: u64,
    },
}

/// The structural topology adversary of a run: nothing, or a time-indexed
/// epoch list. See the module docs for semantics and the determinism
/// contract (own salt stream `0x7090`, zero draws when unset).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TopologySchedule {
    /// Full connectivity throughout (the base model). Guaranteed
    /// bit-identical to a simulator without this feature: no epoch scan,
    /// no RNG stream touched.
    #[default]
    None,
    /// Apply these epochs; for each message the first epoch covering its
    /// send time decides the link fate.
    Epochs(Vec<TopologyEpoch>),
}

impl TopologySchedule {
    /// Whether this is the empty schedule.
    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self, TopologySchedule::None)
    }

    /// The epoch list (empty for [`TopologySchedule::None`]).
    pub fn epochs(&self) -> &[TopologyEpoch] {
        match self {
            TopologySchedule::None => &[],
            TopologySchedule::Epochs(eps) => eps,
        }
    }

    /// GST-phase shorthand: partition the system into `islands` from time
    /// zero until `heal` (one epoch; full connectivity afterwards).
    /// `partition_until(islands, gst)` severs the cut exactly *until* GST,
    /// not through it — the window is half-open like every other rule.
    pub fn partition_until(islands: Vec<PSet>, heal: Time) -> Self {
        TopologySchedule::Epochs(vec![TopologyEpoch::new(Time::ZERO, heal).islands(islands)])
    }

    /// The first epoch covering `sent_at`, if any.
    #[inline]
    pub fn epoch_at(&self, sent_at: Time) -> Option<&TopologyEpoch> {
        match self {
            TopologySchedule::None => None,
            TopologySchedule::Epochs(eps) => eps.iter().find(|e| e.covers(sent_at)),
        }
    }

    /// The fate of one directed message sent at `sent_at`.
    #[inline]
    pub fn fate(&self, from: ProcessId, to: ProcessId, sent_at: Time) -> LinkFate {
        match self.epoch_at(sent_at) {
            None => LinkFate::Open,
            Some(ep) => ep.link_fate(from, to),
        }
    }

    /// Canonicalizes an epoch list: an empty list becomes
    /// [`TopologySchedule::None`] (same fingerprint-normalization argument
    /// as [`MessageAdversary::from_rules`]).
    pub fn from_epochs(epochs: Vec<TopologyEpoch>) -> Self {
        if epochs.is_empty() {
            TopologySchedule::None
        } else {
            TopologySchedule::Epochs(epochs)
        }
    }

    /// A copy without epoch `idx` (normalized; out-of-range `idx` returns
    /// an unchanged copy). A shrink-step primitive.
    pub fn without_epoch(&self, idx: usize) -> Self {
        let mut eps = self.epochs().to_vec();
        if idx < eps.len() {
            eps.remove(idx);
        }
        Self::from_epochs(eps)
    }

    /// A copy with epoch `idx` replaced (out-of-range `idx` returns an
    /// unchanged copy). A shrink-step primitive.
    pub fn with_epoch_replaced(&self, idx: usize, ep: TopologyEpoch) -> Self {
        let mut eps = self.epochs().to_vec();
        if idx < eps.len() {
            eps[idx] = ep;
        }
        Self::from_epochs(eps)
    }

    /// A one-line description for bench reports and tables (`"none"` or
    /// e.g. `"part[0,500)x2+lat[500,1000)"`).
    pub fn describe(&self) -> String {
        match self {
            TopologySchedule::None => "none".into(),
            TopologySchedule::Epochs(eps) => {
                if eps.is_empty() {
                    return "none".into();
                }
                let parts: Vec<String> = eps
                    .iter()
                    .map(|e| {
                        let kind = if !e.islands.is_empty() {
                            format!("part[{},{})x{}", e.from.0, e.until.0, e.islands.len())
                        } else {
                            format!("lat[{},{})", e.from.0, e.until.0)
                        };
                        if e.islands.is_empty() || e.overrides.is_empty() {
                            kind
                        } else {
                            format!("{kind}+{}ovr", e.overrides.len())
                        }
                    })
                    .collect();
                parts.join("+")
            }
        }
    }
}

/// What the adversary did to one routed message (all-false on the clean
/// path). The runtime turns set flags into trace counters, so reports can
/// cite how many messages were dropped / duplicated / corrupted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteEffects {
    /// The message was lost.
    pub dropped: bool,
    /// A second copy was scheduled.
    pub duplicated: bool,
    /// The payload was mutated.
    pub corrupted: bool,
    /// The message was cut by the topology schedule (structural, counted
    /// separately from probabilistic `dropped`).
    pub severed: bool,
}

impl RouteEffects {
    /// Whether the adversary left the message alone.
    #[inline]
    pub fn is_clean(&self) -> bool {
        !(self.dropped || self.duplicated || self.corrupted || self.severed)
    }
}

/// What the adversary did across one whole broadcast (the counted sum of
/// the per-recipient [`RouteEffects`]): returned by
/// [`crate::network::Network::route_broadcast`] so the runtime bumps each
/// trace counter once per broadcast instead of once per recipient.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BroadcastEffects {
    /// Recipients whose copy was lost.
    pub dropped: u64,
    /// Recipients for whom a second copy was scheduled.
    pub duplicated: u64,
    /// Recipients whose copy was mutated.
    pub corrupted: u64,
    /// Recipients whose copy was cut by the topology schedule.
    pub severed: u64,
}

impl BroadcastEffects {
    /// Folds one recipient's effects into the totals.
    #[inline]
    pub fn absorb(&mut self, fx: RouteEffects) {
        self.dropped += fx.dropped as u64;
        self.duplicated += fx.duplicated as u64;
        self.corrupted += fx.corrupted as u64;
        self.severed += fx.severed as u64;
    }

    /// Whether the adversary left the whole broadcast alone.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.duplicated == 0 && self.corrupted == 0 && self.severed == 0
    }
}

/// Payloads the adversary can corrupt in a *bounded* way.
///
/// The default implementation is a no-op (`false`): a message type opts into
/// corruption by overriding [`Corruptible::corrupt`]. Implementations must
/// keep the mutation within `bound` — for a numeric payload, the new value
/// differs from the old by at most `bound`; for a structured message, only
/// designated fields move, each by at most `bound`. A `bound` of 0 must
/// leave the message untouched. Return `true` iff the message changed.
///
/// Every [`crate::automaton::Automaton::Msg`] must implement this trait;
/// for alphabets with nothing meaningful to corrupt, the empty impl
/// (`impl Corruptible for MyMsg {}`) keeps them adversary-transparent.
pub trait Corruptible {
    /// Mutates `self` by at most `bound`; returns whether anything changed.
    fn corrupt(&mut self, _bound: u64, _rng: &mut SplitMix64) -> bool {
        false
    }
}

/// Moves `v` by a uniformly drawn distance in `[1, bound]`, up or down
/// (saturating, which can only shrink the distance). The building block for
/// numeric [`Corruptible`] impls.
///
/// ## Draw-stream contract
///
/// `bound == 0` is a **no-op that consumes zero draws** and returns
/// `false`. A *matching* `Corrupt { bound: 0 }` rule still consumes its
/// one per-rule `chance` draw in [`crate::network::Network::route`] (the
/// per-rule draw happens before the action runs and is required for
/// stream stability — every matching rule costs exactly one `chance`
/// regardless of action or outcome), but no corruption draws follow and
/// the payload is untouched. With `bound > 0` exactly two draws are
/// consumed (distance, then direction) whether or not the saturated
/// result ends up equal to the old value. The small-int impls clamp the
/// bound to the type's ceiling, which cannot turn a zero bound nonzero.
pub fn corrupt_u64(v: &mut u64, bound: u64, rng: &mut SplitMix64) -> bool {
    if bound == 0 {
        return false;
    }
    let delta = rng.range(1, bound);
    let old = *v;
    *v = if rng.chance(1, 2) {
        old.saturating_add(delta)
    } else {
        old.saturating_sub(delta)
    };
    *v != old
}

impl Corruptible for () {}
impl Corruptible for bool {}

impl Corruptible for u64 {
    fn corrupt(&mut self, bound: u64, rng: &mut SplitMix64) -> bool {
        corrupt_u64(self, bound, rng)
    }
}

macro_rules! corruptible_small_int {
    ($($ty:ty),*) => {$(
        impl Corruptible for $ty {
            fn corrupt(&mut self, bound: u64, rng: &mut SplitMix64) -> bool {
                let old = *self;
                let mut wide = old as u64;
                // Clamp the bound so the value stays representable.
                let ceil = <$ty>::MAX as u64;
                corrupt_u64(&mut wide, bound.min(ceil), rng);
                *self = wide.min(ceil) as $ty;
                *self != old
            }
        }
    )*};
}

corruptible_small_int!(u8, u16, u32, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_builders_scope_and_window() {
        let r = MessageRule::drop(40)
            .window(Time(10), Time(20))
            .links(PSet::singleton(ProcessId(0)), PSet::full(3));
        assert!(r.applies(ProcessId(0), ProcessId(2), Time(10)));
        assert!(!r.applies(ProcessId(0), ProcessId(2), Time(20)));
        assert!(!r.applies(ProcessId(0), ProcessId(2), Time(9)));
        assert!(!r.applies(ProcessId(1), ProcessId(2), Time(15)));
        assert_eq!(r.pct, 40);
    }

    #[test]
    fn pct_is_clamped() {
        assert_eq!(MessageRule::duplicate(250).pct, 100);
    }

    #[test]
    fn adversary_describe() {
        assert_eq!(MessageAdversary::None.describe(), "none");
        assert_eq!(MessageAdversary::Rules(vec![]).describe(), "none");
        let adv = MessageAdversary::Rules(vec![
            MessageRule::drop(10),
            MessageRule::duplicate(5),
            MessageRule::corrupt(3, 7),
        ]);
        assert_eq!(adv.describe(), "drop10+dup5+corrupt3b7");
        assert!(!adv.is_none());
        assert_eq!(adv.rules().len(), 3);
        assert!(MessageAdversary::None.is_none());
    }

    #[test]
    fn mutation_helpers_shrink_without_rebuilding() {
        // Rule-level tweaks keep scope intact.
        let r = MessageRule::corrupt(40, 7)
            .window(Time(10), Time(20))
            .links(PSet::singleton(ProcessId(0)), PSet::full(3));
        let weaker = r.clone().with_pct(20).with_bound(3);
        assert_eq!(weaker.pct, 20);
        assert_eq!(weaker.action, RuleAction::Corrupt { bound: 3 });
        assert_eq!((weaker.active_from, weaker.active_to), (Time(10), Time(20)));
        assert_eq!(weaker.from, r.from);
        // pct stays clamped; bound tweaks ignore non-corrupt actions.
        assert_eq!(MessageRule::drop(10).with_pct(200).pct, 100);
        assert_eq!(MessageRule::drop(10).with_bound(9).action, RuleAction::Drop);

        // Adversary-level removal/replacement normalizes empty to None, so
        // shrunk specs fingerprint identically to hand-built ones.
        let adv = MessageAdversary::Rules(vec![MessageRule::drop(10), r.clone()]);
        let only_corrupt = adv.without_rule(0);
        assert_eq!(only_corrupt.rules(), std::slice::from_ref(&r));
        assert_eq!(only_corrupt.without_rule(0), MessageAdversary::None);
        assert_eq!(adv.without_rule(5), adv); // out of range: unchanged
        let replaced = adv.with_rule_replaced(0, MessageRule::drop(5));
        assert_eq!(replaced.rules()[0].pct, 5);
        assert_eq!(MessageAdversary::from_rules(vec![]), MessageAdversary::None);
        assert_eq!(
            MessageAdversary::None.without_rule(0),
            MessageAdversary::None
        );
    }

    #[test]
    fn topology_mutation_helpers_normalize() {
        let ep = TopologyEpoch::new(Time::ZERO, Time(500))
            .islands(two_islands())
            .link(LinkOverride::silence(
                PSet::singleton(ProcessId(0)),
                PSet::singleton(ProcessId(3)),
            ));
        // Window narrowing, island and override removal.
        let narrowed = ep.clone().with_window(Time(100), Time(300));
        assert_eq!((narrowed.from, narrowed.until), (Time(100), Time(300)));
        assert_eq!(narrowed.islands, ep.islands);
        assert_eq!(ep.clone().without_island(0).islands.len(), 1);
        assert_eq!(ep.clone().without_island(9).islands.len(), 2);
        assert!(ep.clone().without_override(0).overrides.is_empty());

        let s =
            TopologySchedule::Epochs(vec![ep.clone(), TopologyEpoch::new(Time(500), Time(900))]);
        assert_eq!(s.without_epoch(0).epochs().len(), 1);
        assert_eq!(s.without_epoch(7), s); // out of range: unchanged
        assert_eq!(s.without_epoch(0).without_epoch(0), TopologySchedule::None);
        let swapped = s.with_epoch_replaced(1, ep.clone().with_window(Time(500), Time(600)));
        assert_eq!(swapped.epochs()[1].until, Time(600));
        assert_eq!(
            TopologySchedule::from_epochs(vec![]),
            TopologySchedule::None
        );
    }

    #[test]
    fn corrupt_u64_respects_bound() {
        let mut rng = SplitMix64::new(1);
        for bound in [1u64, 3, 100] {
            for _ in 0..200 {
                let old = rng.below(1_000);
                let mut v = old;
                let changed = corrupt_u64(&mut v, bound, &mut rng);
                assert!(v.abs_diff(old) <= bound, "moved {old} -> {v} past {bound}");
                assert_eq!(changed, v != old);
            }
        }
        let mut v = 5u64;
        assert!(!corrupt_u64(&mut v, 0, &mut rng));
        assert_eq!(v, 5);
    }

    #[test]
    fn default_corrupt_is_noop() {
        struct Opaque;
        impl Corruptible for Opaque {}
        let mut rng = SplitMix64::new(2);
        assert!(!Opaque.corrupt(100, &mut rng));
        assert!(!().corrupt(100, &mut rng));
    }

    #[test]
    fn small_int_corruption_stays_in_range() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..200 {
            let old = rng.below(200) as u8;
            let mut v = old;
            v.corrupt(1_000, &mut rng);
            assert!(u64::from(v.abs_diff(old)) <= 1_000);
        }
    }

    #[test]
    fn route_effects_clean() {
        assert!(RouteEffects::default().is_clean());
        assert!(!RouteEffects {
            dropped: true,
            ..Default::default()
        }
        .is_clean());
        assert!(!RouteEffects {
            severed: true,
            ..Default::default()
        }
        .is_clean());
    }

    // --- boundary-semantics audit (ISSUE 9 satellite): every windowed rule
    // --- agrees on half-open [active_from, active_to).

    #[test]
    fn message_rule_window_is_half_open_at_every_edge() {
        let gst = Time(300);
        let r = MessageRule::drop(100).window(Time::ZERO, gst);
        // "attack until GST" means: in force at gst-1, out of force AT gst.
        assert!(r.applies(ProcessId(0), ProcessId(1), Time::ZERO));
        assert!(r.applies(ProcessId(0), ProcessId(1), Time(gst.0 - 1)));
        assert!(!r.applies(ProcessId(0), ProcessId(1), gst));
        assert!(!r.applies(ProcessId(0), ProcessId(1), Time(gst.0 + 1)));

        // sent_at == active_to is excluded for interior windows too.
        let w = MessageRule::duplicate(100).window(Time(50), Time(60));
        assert!(w.applies(ProcessId(2), ProcessId(3), Time(50)));
        assert!(w.applies(ProcessId(2), ProcessId(3), Time(59)));
        assert!(!w.applies(ProcessId(2), ProcessId(3), Time(60)));
    }

    #[test]
    fn message_rule_empty_window_never_applies() {
        // active_from == active_to: the half-open window is empty, the rule
        // is inert everywhere (including AT the shared edge).
        let r = MessageRule::corrupt(100, 7).window(Time(40), Time(40));
        for t in [0u64, 39, 40, 41, 1_000] {
            assert!(!r.applies(ProcessId(0), ProcessId(1), Time(t)), "t={t}");
        }
    }

    #[test]
    fn corrupt_zero_bound_consumes_no_draws() {
        // Pin the draw-stream contract: corrupt_u64 with bound 0 is a no-op
        // that leaves the RNG stream position untouched.
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        let mut v = 42u64;
        assert!(!corrupt_u64(&mut v, 0, &mut a));
        assert_eq!(v, 42);
        assert_eq!(
            a.next_u64(),
            b.next_u64(),
            "bound=0 must not advance the stream"
        );

        // bound > 0 consumes exactly two draws (distance + direction).
        let mut c = SplitMix64::new(7);
        let mut d = SplitMix64::new(7);
        let mut w = 10u64;
        corrupt_u64(&mut w, 5, &mut c);
        d.next_u64();
        d.next_u64();
        assert_eq!(
            c.next_u64(),
            d.next_u64(),
            "bound>0 must consume exactly 2 draws"
        );

        // The small-int clamp cannot resurrect a zero bound.
        let mut e = SplitMix64::new(11);
        let mut f = SplitMix64::new(11);
        let mut byte = 9u8;
        assert!(!byte.corrupt(0, &mut e));
        assert_eq!(byte, 9);
        assert_eq!(e.next_u64(), f.next_u64());
    }

    // --- topology schedule ---

    fn two_islands() -> Vec<PSet> {
        let a: PSet = [ProcessId(0), ProcessId(1), ProcessId(2)]
            .into_iter()
            .collect();
        let b: PSet = [ProcessId(3), ProcessId(4), ProcessId(5)]
            .into_iter()
            .collect();
        vec![a, b]
    }

    #[test]
    fn unset_schedule_is_always_open() {
        let s = TopologySchedule::None;
        assert!(s.is_none());
        assert!(s.epochs().is_empty());
        assert_eq!(
            s.fate(ProcessId(0), ProcessId(5), Time(100)),
            LinkFate::Open
        );
        assert_eq!(s.describe(), "none");
        assert_eq!(TopologySchedule::Epochs(vec![]).describe(), "none");
        assert_eq!(TopologySchedule::default(), TopologySchedule::None);
    }

    #[test]
    fn partition_until_severs_across_islands_and_heals_at_the_edge() {
        let heal = Time(500);
        let s = TopologySchedule::partition_until(two_islands(), heal);
        // Cross-island: severed strictly before heal, open AT heal (half-open).
        assert_eq!(
            s.fate(ProcessId(0), ProcessId(3), Time(499)),
            LinkFate::Severed { heal }
        );
        assert_eq!(s.fate(ProcessId(0), ProcessId(3), heal), LinkFate::Open);
        assert_eq!(
            s.fate(ProcessId(4), ProcessId(1), Time::ZERO),
            LinkFate::Severed { heal }
        );
        // Intra-island and self-sends stay open throughout.
        assert_eq!(
            s.fate(ProcessId(0), ProcessId(2), Time(100)),
            LinkFate::Open
        );
        assert_eq!(
            s.fate(ProcessId(3), ProcessId(4), Time(100)),
            LinkFate::Open
        );
        assert_eq!(
            s.fate(ProcessId(0), ProcessId(0), Time(100)),
            LinkFate::Open
        );
    }

    #[test]
    fn unlisted_processes_form_the_remainder_island() {
        // Only {0,1} is listed: 6 and 7 are both unlisted, so they talk to
        // each other but not across the cut.
        let s = TopologySchedule::partition_until(
            vec![[ProcessId(0), ProcessId(1)].into_iter().collect()],
            Time(500),
        );
        assert_eq!(s.fate(ProcessId(6), ProcessId(7), Time(10)), LinkFate::Open);
        assert_eq!(
            s.fate(ProcessId(0), ProcessId(6), Time(10)),
            LinkFate::Severed { heal: Time(500) }
        );
        assert_eq!(
            s.fate(ProcessId(6), ProcessId(1), Time(10)),
            LinkFate::Severed { heal: Time(500) }
        );
    }

    #[test]
    fn overrides_take_precedence_over_islands() {
        // Sever into two islands, but keep a one-directional slow channel
        // 0 → 3 across the cut, and silence the intra-island link 1 → 2.
        let ep = TopologyEpoch::new(Time::ZERO, Time(800))
            .islands(two_islands())
            .link(LinkOverride::latency(
                PSet::singleton(ProcessId(0)),
                PSet::singleton(ProcessId(3)),
                40,
                90,
            ))
            .link(LinkOverride::silence(
                PSet::singleton(ProcessId(1)),
                PSet::singleton(ProcessId(2)),
            ));
        let s = TopologySchedule::Epochs(vec![ep]);
        assert_eq!(
            s.fate(ProcessId(0), ProcessId(3), Time(10)),
            LinkFate::Latency { lo: 40, hi: 90 }
        );
        // The reverse direction is not overridden: still severed.
        assert_eq!(
            s.fate(ProcessId(3), ProcessId(0), Time(10)),
            LinkFate::Severed { heal: Time(800) }
        );
        // One-way silence beats the open intra-island default...
        assert_eq!(
            s.fate(ProcessId(1), ProcessId(2), Time(10)),
            LinkFate::Severed { heal: Time(800) }
        );
        // ...and only in that direction.
        assert_eq!(s.fate(ProcessId(2), ProcessId(1), Time(10)), LinkFate::Open);
    }

    #[test]
    fn epoch_lookup_is_half_open_and_first_match_wins() {
        let e1 = TopologyEpoch::new(Time(100), Time(200)).islands(two_islands());
        let e2 = TopologyEpoch::new(Time(200), Time(300)); // overrides-only, open
        let s = TopologySchedule::Epochs(vec![e1, e2]);
        // Before any epoch: open.
        assert_eq!(s.fate(ProcessId(0), ProcessId(3), Time(99)), LinkFate::Open);
        // Inside e1: severed; AT the e1/e2 edge e2 governs (empty islands = open).
        assert_eq!(
            s.fate(ProcessId(0), ProcessId(3), Time(100)),
            LinkFate::Severed { heal: Time(200) }
        );
        assert_eq!(
            s.fate(ProcessId(0), ProcessId(3), Time(200)),
            LinkFate::Open
        );
        // Past the last epoch: open.
        assert_eq!(
            s.fate(ProcessId(0), ProcessId(3), Time(300)),
            LinkFate::Open
        );
        // An empty epoch window (from == until) never covers anything.
        let empty = TopologySchedule::Epochs(vec![
            TopologyEpoch::new(Time(40), Time(40)).islands(two_islands())
        ]);
        assert_eq!(
            empty.fate(ProcessId(0), ProcessId(3), Time(40)),
            LinkFate::Open
        );
    }

    #[test]
    fn topology_describe_distinguishes_shapes() {
        let part = TopologySchedule::partition_until(two_islands(), Time(500));
        assert_eq!(part.describe(), "part[0,500)x2");
        let lat = TopologySchedule::Epochs(vec![TopologyEpoch::new(Time(500), Time(1000))
            .link(LinkOverride::latency(PSet::full(6), PSet::full(6), 10, 20))]);
        assert_eq!(lat.describe(), "lat[500,1000)");
        let both = TopologySchedule::Epochs(vec![TopologyEpoch::new(Time::ZERO, Time(500))
            .islands(two_islands())
            .link(LinkOverride::silence(
                PSet::singleton(ProcessId(0)),
                PSet::singleton(ProcessId(3)),
            ))]);
        assert_eq!(both.describe(), "part[0,500)x2+1ovr");
        // Differing heal times alone must not collide.
        assert_ne!(
            TopologySchedule::partition_until(two_islands(), Time(500)).describe(),
            TopologySchedule::partition_until(two_islands(), Time(501)).describe()
        );
    }
}
