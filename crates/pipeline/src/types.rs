//! In-flight instruction state and pipeline bookkeeping types.

use crate::regfile::PhysReg;
use smtsim_isa::{DynInst, ThreadId};
use smtsim_mem::Cycle;

/// Stable identity of an in-flight instruction: its thread plus a
/// per-thread monotonically increasing tag. Tags never recycle within a
/// run, so stale references (e.g. completion events for squashed
/// instructions) are detected by comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstRef {
    /// Hardware thread.
    pub thread: ThreadId,
    /// Per-thread dispatch tag.
    pub tag: u64,
}

/// Branch-specific in-flight state.
#[derive(Clone, Copy, Debug)]
pub struct BranchState {
    /// Predicted direction at fetch.
    pub pred_taken: bool,
    /// Predicted target (`None` = BTB miss; treated as fall-through).
    pub pred_target: Option<u64>,
    /// gshare history snapshot at prediction.
    pub hist: u16,
    /// Set at fetch when the front end already knows the prediction
    /// disagrees with the trace (direction or target).
    pub mispredicted: bool,
}

/// Memory-op-specific in-flight state.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemState {
    /// This load missed the L1 D-cache.
    pub l1_miss: bool,
    /// This load missed the L2 (set at issue once the hierarchy is
    /// consulted).
    pub l2_miss: bool,
    /// The L2 miss has been *detected* by the core (the
    /// `L2MissDetected` event fired) and not yet filled. Drives the
    /// per-thread pending-miss counter, so squash must decrement it
    /// when set.
    pub miss_visible: bool,
    /// Cycle the L2 miss becomes known to the core.
    pub miss_detected_at: Cycle,
    /// The load was satisfied by store-to-load forwarding.
    pub forwarded: bool,
}

/// One reorder-buffer entry: a dynamic instruction plus all its pipeline
/// state. The `executed` flag is the "result valid" bit the paper's DoD
/// counting mechanism scans.
#[derive(Clone, Debug)]
pub struct InstState {
    /// Per-thread tag (== position in dispatch order).
    pub tag: u64,
    /// Global dispatch sequence number (for oldest-first issue).
    pub seq: u64,
    /// The dynamic instruction.
    pub di: DynInst,
    /// Fetched down a mispredicted path; will be squashed.
    pub wrong_path: bool,
    /// Renamed destination.
    pub dst_phys: Option<PhysReg>,
    /// Previous mapping of the destination architectural register.
    pub old_phys: Option<PhysReg>,
    /// Renamed sources.
    pub src_phys: [Option<PhysReg>; 2],
    /// Issued to a functional unit.
    pub issued: bool,
    /// Result valid (execution complete).
    pub executed: bool,
    /// Cycle the instruction entered the ROB.
    pub dispatched_at: Cycle,
    /// Branch state, if a branch.
    pub branch: Option<BranchState>,
    /// Memory state, if a load/store.
    pub mem: Option<MemState>,
    /// Thread's global branch history when this instruction was
    /// dispatched; feeds the path-qualified DoD predictor (§4.2).
    pub dod_hist: u16,
}

impl InstState {
    /// True when the entry is an L2-missing load whose data has not yet
    /// returned (i.e. `executed` still false).
    pub fn pending_l2_miss(&self) -> bool {
        !self.executed && self.mem.is_some_and(|m| m.l2_miss)
    }
}

/// Shared issue-queue entry.
#[derive(Clone, Copy, Debug)]
pub struct IqEntry {
    /// The instruction.
    pub inst: InstRef,
    /// Global dispatch sequence (issue priority: lower = older).
    pub seq: u64,
}

/// Per-thread load/store queue entry.
#[derive(Clone, Copy, Debug)]
pub struct LsqEntry {
    /// Owning instruction tag.
    pub tag: u64,
    /// Store (true) or load (false).
    pub is_store: bool,
    /// Effective address (known from the trace; *architecturally*
    /// resolved only once address generation executes).
    pub addr: u64,
    /// Address generation has completed.
    pub resolved: bool,
}

/// Timed pipeline events. The event queue stores each one as its
/// packed [`Event::key`]; the kind occupies two key bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Functional-unit / memory completion: mark executed, wake
    /// dependents, resolve branches.
    Complete,
    /// An L2 miss becomes visible to the core (DoD machinery trigger).
    L2MissDetected,
    /// An L2-missing load's fill arrives (histogram sampling point and
    /// predictor training point).
    L2Fill,
}

/// An entry in the event queue, ordered by `(at, thread, tag, kind)`
/// and then by the slot hint. `(thread, tag, kind)` already names at
/// most one pending event, so the hint never decides the order between
/// two real events; it is in the order only so that `Ord` agrees with
/// the packed [`Event::key`] the queue holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: Cycle,
    /// What happens.
    pub kind: EventKind,
    /// The instruction it concerns.
    pub inst: InstRef,
    /// Physical ROB slot `inst` occupied when the event was scheduled,
    /// or [`Event::NO_SLOT`]. Only a hint: the queue validates it by
    /// tag (`RobSoa::index_of_hinted`) and falls back to a search when
    /// a squash or a ring `grow` moved the entry.
    pub rob_slot: u16,
}

/// Key bits below `at`: thread (3), tag (48), kind (2), slot hint (11).
const KEY_THREAD_BITS: u32 = 3;
const KEY_TAG_BITS: u32 = 48;
const KEY_KIND_BITS: u32 = 2;
const KEY_SLOT_BITS: u32 = 11;
const KEY_KIND_SHIFT: u32 = KEY_SLOT_BITS;
const KEY_TAG_SHIFT: u32 = KEY_KIND_SHIFT + KEY_KIND_BITS;
const KEY_THREAD_SHIFT: u32 = KEY_TAG_SHIFT + KEY_TAG_BITS;
const _: () = assert!(KEY_THREAD_SHIFT + KEY_THREAD_BITS == 64);
const _: () = assert!(smtsim_isa::MAX_THREADS <= 1 << KEY_THREAD_BITS);

impl Event {
    /// "No slot hint": the all-ones 11-bit value, past every ring the
    /// paper machines build (512 slots).
    pub const NO_SLOT: u16 = (1 << KEY_SLOT_BITS) - 1;
    /// Largest tag the key can hold.
    pub const MAX_TAG: u64 = (1 << KEY_TAG_BITS) - 1;

    /// The slot hint for physical ROB slot `p`: `p` itself when it fits
    /// below [`Event::NO_SLOT`], otherwise no hint.
    #[inline]
    pub fn slot_hint(p: usize) -> u16 {
        if p < Self::NO_SLOT as usize {
            p as u16
        } else {
            Self::NO_SLOT
        }
    }

    /// The packed queue key: `at` in the high 64 bits, then thread,
    /// tag, kind and slot hint, so comparing keys as integers is
    /// comparing events with [`Ord`]. `None` when the thread, tag or
    /// hint does not fit its field.
    #[inline]
    pub fn key(&self) -> Option<u128> {
        let thread = self.inst.thread as u64;
        if thread >> KEY_THREAD_BITS != 0
            || self.inst.tag > Self::MAX_TAG
            || self.rob_slot > Self::NO_SLOT
        {
            return None;
        }
        let low = thread << KEY_THREAD_SHIFT
            | self.inst.tag << KEY_TAG_SHIFT
            | (self.kind as u64) << KEY_KIND_SHIFT
            | self.rob_slot as u64;
        Some(u128::from(self.at) << 64 | u128::from(low))
    }

    /// Decodes a key produced by [`Event::key`] (which never encodes
    /// kind 3).
    #[inline]
    pub fn from_key(key: u128) -> Event {
        let low = key as u64;
        let field = |shift: u32, bits: u32| (low >> shift) & ((1 << bits) - 1);
        let kind = match field(KEY_KIND_SHIFT, KEY_KIND_BITS) {
            0 => EventKind::Complete,
            1 => EventKind::L2MissDetected,
            _ => EventKind::L2Fill,
        };
        Event {
            at: (key >> 64) as Cycle,
            kind,
            inst: InstRef {
                thread: field(KEY_THREAD_SHIFT, KEY_THREAD_BITS) as ThreadId,
                tag: field(KEY_TAG_SHIFT, KEY_TAG_BITS),
            },
            rob_slot: field(0, KEY_SLOT_BITS) as u16,
        }
    }

    /// Time of the event behind `key`, without decoding the rest.
    #[inline]
    pub fn key_at(key: u128) -> Cycle {
        (key >> 64) as Cycle
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (
            self.at,
            self.inst.thread,
            self.inst.tag,
            self.kind as u8,
            self.rob_slot,
        )
            .cmp(&(
                other.at,
                other.inst.thread,
                other.inst.tag,
                other.kind as u8,
                other.rob_slot,
            ))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smtsim_isa::OpClass;

    fn dummy_inst(tag: u64) -> InstState {
        InstState {
            tag,
            seq: tag,
            di: DynInst {
                pc: 0,
                seq: tag,
                op: OpClass::IntAlu,
                dst: None,
                srcs: [None, None],
                mem_addr: 0,
                taken: false,
                next_pc: 4,
            },
            wrong_path: false,
            dst_phys: None,
            old_phys: None,
            src_phys: [None, None],
            issued: false,
            executed: false,
            dispatched_at: 0,
            branch: None,
            mem: None,
            dod_hist: 0,
        }
    }

    #[test]
    fn pending_l2_miss_logic() {
        let mut i = dummy_inst(0);
        assert!(!i.pending_l2_miss());
        i.mem = Some(MemState {
            l2_miss: true,
            miss_detected_at: 10,
            ..Default::default()
        });
        assert!(i.pending_l2_miss());
        i.executed = true;
        assert!(!i.pending_l2_miss());
    }

    fn ev(at: Cycle, kind: EventKind, thread: ThreadId, tag: u64, rob_slot: u16) -> Event {
        Event {
            at,
            kind,
            inst: InstRef { thread, tag },
            rob_slot,
        }
    }

    #[test]
    fn event_ordering_is_total_and_time_major() {
        let e1 = ev(5, EventKind::Complete, 1, 9, 0);
        let e2 = ev(6, EventKind::Complete, 0, 1, 0);
        assert!(e1 < e2);
        let e3 = ev(5, EventKind::Complete, 0, 2, 0);
        assert!(e3 < e1, "same time orders by thread/tag");
    }

    const KINDS: [EventKind; 3] = [
        EventKind::Complete,
        EventKind::L2MissDetected,
        EventKind::L2Fill,
    ];

    #[test]
    fn event_key_round_trips_every_field() {
        let top_thread = smtsim_isa::MAX_THREADS - 1;
        for kind in KINDS {
            for e in [
                ev(0, kind, 0, 0, 0),
                ev(7, kind, 2, 12_345, 17),
                ev(u64::MAX, kind, top_thread, Event::MAX_TAG, Event::NO_SLOT),
                ev(
                    u64::MAX - 1,
                    kind,
                    top_thread,
                    Event::MAX_TAG - 1,
                    Event::NO_SLOT - 1,
                ),
                ev(1 << 63, kind, 0, 1 << 47, Event::slot_hint(511)),
            ] {
                let key = e.key().expect("every field fits");
                assert_eq!(Event::from_key(key), e);
                assert_eq!(Event::key_at(key), e.at);
            }
        }
    }

    #[test]
    fn event_key_boundaries_keep_the_field_order() {
        let top_thread = smtsim_isa::MAX_THREADS - 1;
        let key = |e: Event| e.key().expect("fits");
        // The largest tag and thread never carry into the next field up.
        let max = ev(
            3,
            EventKind::L2Fill,
            top_thread,
            Event::MAX_TAG,
            Event::NO_SLOT,
        );
        assert!(key(max) < key(ev(4, EventKind::Complete, 0, 0, 0)));
        assert!(
            key(ev(3, EventKind::L2Fill, 0, Event::MAX_TAG, Event::NO_SLOT))
                < key(ev(3, EventKind::Complete, 1, 0, 0))
        );
        // `at` near the top of the range stays time-major.
        let late = ev(u64::MAX, EventKind::Complete, 0, 0, 0);
        assert!(
            key(ev(
                u64::MAX - 1,
                EventKind::L2Fill,
                top_thread,
                Event::MAX_TAG,
                0
            )) < key(late)
        );
        // Out-of-range fields have no key.
        assert_eq!(
            ev(0, EventKind::Complete, 0, Event::MAX_TAG + 1, 0).key(),
            None
        );
        assert_eq!(ev(0, EventKind::Complete, 1 << 3, 0, 0).key(), None);
        assert_eq!(
            ev(0, EventKind::Complete, 0, 0, Event::NO_SLOT + 1).key(),
            None
        );
        // Slots that do not fit become "no hint".
        assert_eq!(Event::slot_hint(Event::NO_SLOT as usize), Event::NO_SLOT);
        assert_eq!(Event::slot_hint(usize::MAX), Event::NO_SLOT);
        assert_eq!(Event::slot_hint(0), 0);
    }

    /// Mostly full-range draws, with a narrow arm per field so equal
    /// prefixes (and so the lower fields' order) come up often.
    fn arb_event() -> impl Strategy<Value = Event> {
        (
            prop_oneof![0u64..3, any::<u64>()],
            prop::sample::select(KINDS.to_vec()),
            0..smtsim_isa::MAX_THREADS,
            prop_oneof![0u64..3, 0..=Event::MAX_TAG],
            prop_oneof![0u16..3, 0..=Event::NO_SLOT],
        )
            .prop_map(|(at, kind, thread, tag, slot)| ev(at, kind, thread, tag, slot))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn event_key_order_agrees_with_event_ord(a in arb_event(), b in arb_event()) {
            let (ka, kb) = (a.key().expect("fits"), b.key().expect("fits"));
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b), "{:?} vs {:?}", a, b);
            prop_assert_eq!(Event::from_key(ka), a);
        }
    }

    #[test]
    fn event_key_overflow_is_an_invariant_violation() {
        use crate::{FixedRob, MachineConfig, SimError, Simulator};
        use smtsim_workload::Workload;
        use std::sync::Arc;
        let wl = Arc::new(Workload::spec("gzip", 1, 0x1_0000, 0x1000_0000));
        let new_sim = || {
            Simulator::new(
                MachineConfig::icpp08_single(),
                vec![wl.clone()],
                Box::new(FixedRob::new(32)),
                7,
            )
        };
        // The largest tag that fits is queued; not being in flight, it
        // is dropped as stale when it fires.
        let mut sim = new_sim();
        sim.push_event(ev(
            0,
            EventKind::Complete,
            0,
            Event::MAX_TAG,
            Event::NO_SLOT,
        ));
        assert_eq!(sim.events.len(), 1);
        sim.try_step().expect("a stale event is not a violation");
        assert!(sim.events.is_empty());
        // One past it is reported, and never queued under a truncated key.
        let mut sim = new_sim();
        sim.push_event(ev(0, EventKind::L2Fill, 0, Event::MAX_TAG + 1, 3));
        assert!(sim.events.is_empty());
        match sim.try_step() {
            Err(SimError::InvariantViolation { detail, .. }) => {
                assert!(detail.contains("packed queue key"), "{detail}");
            }
            other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }

    #[test]
    fn inst_ref_ordering() {
        let a = InstRef { thread: 0, tag: 5 };
        let b = InstRef { thread: 0, tag: 6 };
        assert!(a < b);
    }
}
