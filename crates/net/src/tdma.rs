//! Time-slotted reporting (TDMA) managed by the aggregator.
//!
//! The paper states that "the aggregator provides the devices with time-slots
//! for communication to prevent interference" and that the limited number of
//! slots bounds how many devices one aggregator can serve (§II-A). This
//! module implements that slot table: a frame of `slots_per_frame` slots of
//! fixed duration; each registered device owns one slot and may transmit only
//! inside it.

use crate::packet::DeviceId;
use rtem_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors returned by the slot table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotError {
    /// Every slot in the frame is already assigned.
    NoFreeSlots,
    /// The device already owns a slot.
    AlreadyAssigned(DeviceId),
    /// The device owns no slot.
    NotAssigned(DeviceId),
}

impl fmt::Display for SlotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotError::NoFreeSlots => write!(f, "no free reporting slots in the frame"),
            SlotError::AlreadyAssigned(d) => write!(f, "device {d} already owns a slot"),
            SlotError::NotAssigned(d) => write!(f, "device {d} owns no slot"),
        }
    }
}

impl Error for SlotError {}

/// A TDMA frame description plus the current slot assignments.
///
/// # Examples
///
/// ```
/// use rtem_net::packet::DeviceId;
/// use rtem_net::tdma::SlotTable;
/// use rtem_sim::time::SimDuration;
///
/// // The testbed reports 10 times per second, so a 100 ms frame with 10 ms
/// // slots serves up to 10 devices per aggregator.
/// let mut table = SlotTable::new(SimDuration::from_millis(10), 10);
/// let slot = table.assign(DeviceId(1)).unwrap();
/// assert!(slot < 10);
/// assert_eq!(table.free_slots(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTable {
    slot_duration: SimDuration,
    slots_per_frame: u16,
    assignments: BTreeMap<DeviceId, u16>,
}

impl SlotTable {
    /// Creates a slot table.
    ///
    /// # Panics
    ///
    /// Panics if `slot_duration` is zero or `slots_per_frame` is zero.
    pub fn new(slot_duration: SimDuration, slots_per_frame: u16) -> Self {
        assert!(!slot_duration.is_zero(), "slot duration must be non-zero");
        assert!(slots_per_frame > 0, "a frame needs at least one slot");
        SlotTable {
            slot_duration,
            slots_per_frame,
            assignments: BTreeMap::new(),
        }
    }

    /// The table used in the paper's testbed configuration: Tmeasure = 100 ms
    /// frames divided into 10 ms slots.
    pub fn testbed() -> Self {
        SlotTable::new(SimDuration::from_millis(10), 10)
    }

    /// Duration of one slot.
    pub fn slot_duration(&self) -> SimDuration {
        self.slot_duration
    }

    /// Number of slots in a frame (the device capacity of the aggregator).
    pub fn slots_per_frame(&self) -> u16 {
        self.slots_per_frame
    }

    /// Duration of a whole frame.
    pub fn frame_duration(&self) -> SimDuration {
        self.slot_duration * u64::from(self.slots_per_frame)
    }

    /// Number of unassigned slots.
    pub fn free_slots(&self) -> u16 {
        self.slots_per_frame - self.assignments.len() as u16
    }

    /// Number of assigned slots.
    pub fn assigned_slots(&self) -> u16 {
        self.assignments.len() as u16
    }

    /// The slot owned by `device`, if any.
    pub fn slot_of(&self, device: DeviceId) -> Option<u16> {
        self.assignments.get(&device).copied()
    }

    /// Assigns the lowest free slot to `device`.
    ///
    /// # Errors
    ///
    /// Fails if the device already has a slot or the frame is full.
    pub fn assign(&mut self, device: DeviceId) -> Result<u16, SlotError> {
        if self.assignments.contains_key(&device) {
            return Err(SlotError::AlreadyAssigned(device));
        }
        let used: Vec<u16> = self.assignments.values().copied().collect();
        let slot = (0..self.slots_per_frame)
            .find(|s| !used.contains(s))
            .ok_or(SlotError::NoFreeSlots)?;
        self.assignments.insert(device, slot);
        Ok(slot)
    }

    /// Releases the slot owned by `device`.
    ///
    /// # Errors
    ///
    /// Fails if the device owns no slot.
    pub fn release(&mut self, device: DeviceId) -> Result<u16, SlotError> {
        self.assignments
            .remove(&device)
            .ok_or(SlotError::NotAssigned(device))
    }

    /// Start time of the next occurrence of `slot` at or after `now`.
    pub fn next_slot_start(&self, slot: u16, now: SimTime) -> SimTime {
        assert!(slot < self.slots_per_frame, "slot index out of range");
        let frame_us = self.frame_duration().as_micros();
        let slot_offset_us = self.slot_duration.as_micros() * u64::from(slot);
        let now_us = now.as_micros();
        let frame_start_us = (now_us / frame_us) * frame_us;
        let candidate = frame_start_us + slot_offset_us;
        if candidate >= now_us {
            SimTime::from_micros(candidate)
        } else {
            SimTime::from_micros(candidate + frame_us)
        }
    }

    /// Returns `true` if `now` falls inside `slot`.
    pub fn in_slot(&self, slot: u16, now: SimTime) -> bool {
        assert!(slot < self.slots_per_frame, "slot index out of range");
        let frame_us = self.frame_duration().as_micros();
        let into_frame = now.as_micros() % frame_us;
        let start = self.slot_duration.as_micros() * u64::from(slot);
        into_frame >= start && into_frame < start + self.slot_duration.as_micros()
    }

    /// Devices with assignments, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, u16)> + '_ {
        let mut entries: Vec<(DeviceId, u16)> =
            self.assignments.iter().map(|(d, s)| (*d, *s)).collect();
        entries.sort_by_key(|&(_, s)| s);
        entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_release_cycle() {
        let mut t = SlotTable::new(SimDuration::from_millis(10), 4);
        let s1 = t.assign(DeviceId(1)).unwrap();
        let s2 = t.assign(DeviceId(2)).unwrap();
        assert_ne!(s1, s2);
        assert_eq!(t.assigned_slots(), 2);
        assert_eq!(t.free_slots(), 2);
        assert_eq!(t.slot_of(DeviceId(1)), Some(s1));
        assert_eq!(t.release(DeviceId(1)).unwrap(), s1);
        assert_eq!(t.slot_of(DeviceId(1)), None);
        assert_eq!(t.free_slots(), 3);
    }

    #[test]
    fn released_slot_is_reused() {
        let mut t = SlotTable::new(SimDuration::from_millis(10), 2);
        let s1 = t.assign(DeviceId(1)).unwrap();
        t.assign(DeviceId(2)).unwrap();
        t.release(DeviceId(1)).unwrap();
        let s3 = t.assign(DeviceId(3)).unwrap();
        assert_eq!(s1, s3);
    }

    #[test]
    fn full_frame_rejects_new_devices() {
        let mut t = SlotTable::new(SimDuration::from_millis(10), 2);
        t.assign(DeviceId(1)).unwrap();
        t.assign(DeviceId(2)).unwrap();
        assert_eq!(t.assign(DeviceId(3)), Err(SlotError::NoFreeSlots));
    }

    #[test]
    fn double_assignment_rejected() {
        let mut t = SlotTable::testbed();
        t.assign(DeviceId(1)).unwrap();
        assert_eq!(
            t.assign(DeviceId(1)),
            Err(SlotError::AlreadyAssigned(DeviceId(1)))
        );
    }

    #[test]
    fn releasing_unassigned_device_fails() {
        let mut t = SlotTable::testbed();
        assert_eq!(
            t.release(DeviceId(9)),
            Err(SlotError::NotAssigned(DeviceId(9)))
        );
    }

    #[test]
    fn frame_duration_is_slots_times_duration() {
        let t = SlotTable::testbed();
        assert_eq!(t.frame_duration(), SimDuration::from_millis(100));
        assert_eq!(t.slots_per_frame(), 10);
        assert_eq!(t.slot_duration(), SimDuration::from_millis(10));
    }

    #[test]
    fn next_slot_start_rolls_into_next_frame() {
        let t = SlotTable::testbed();
        // Slot 2 starts at 20 ms into each 100 ms frame.
        assert_eq!(
            t.next_slot_start(2, SimTime::from_millis(0)),
            SimTime::from_millis(20)
        );
        assert_eq!(
            t.next_slot_start(2, SimTime::from_millis(20)),
            SimTime::from_millis(20)
        );
        assert_eq!(
            t.next_slot_start(2, SimTime::from_millis(21)),
            SimTime::from_millis(120)
        );
        assert_eq!(
            t.next_slot_start(0, SimTime::from_millis(350)),
            SimTime::from_millis(400)
        );
    }

    #[test]
    fn in_slot_detects_slot_boundaries() {
        let t = SlotTable::testbed();
        assert!(t.in_slot(0, SimTime::from_millis(0)));
        assert!(t.in_slot(0, SimTime::from_millis(9)));
        assert!(!t.in_slot(0, SimTime::from_millis(10)));
        assert!(t.in_slot(3, SimTime::from_millis(135)));
        assert!(!t.in_slot(3, SimTime::from_millis(145)));
    }

    #[test]
    fn iter_orders_by_slot() {
        let mut t = SlotTable::testbed();
        t.assign(DeviceId(5)).unwrap();
        t.assign(DeviceId(3)).unwrap();
        t.assign(DeviceId(8)).unwrap();
        let slots: Vec<u16> = t.iter().map(|(_, s)| s).collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(slots, sorted);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        let t = SlotTable::testbed();
        let _ = t.next_slot_start(10, SimTime::ZERO);
    }
}
