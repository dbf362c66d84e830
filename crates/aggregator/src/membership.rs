//! Membership registry of an aggregator.
//!
//! Every device must be registered with an aggregator before its reports are
//! accepted (§II-C). A device's *home* aggregator holds its **master**
//! membership for the device's whole lifetime (unless it is removed because
//! of loss / reset / transfer of ownership); a *foreign* aggregator creates a
//! **temporary** membership after verifying the device with its home network
//! and discards it as soon as the device leaves.

use rtem_net::packet::{AggregatorAddr, DeviceId, MembershipKind};
use rtem_net::tdma::{SlotError, SlotTable};
use rtem_sim::time::SimTime;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// One membership entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Membership {
    /// The member device.
    pub device: DeviceId,
    /// Master or temporary.
    pub kind: MembershipKind,
    /// Reporting slot assigned to the device.
    pub slot: u16,
    /// For temporary members: the device's home aggregator (cost centre).
    pub home: Option<AggregatorAddr>,
    /// When the membership was created.
    pub registered_at: SimTime,
    /// Highest sequence number acknowledged so far.
    pub last_acked_sequence: Option<u64>,
}

/// Errors returned by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipError {
    /// The frame has no free reporting slots.
    NoFreeSlots,
    /// The device is blocked (reported lost / ownership withdrawn).
    Blocked(DeviceId),
    /// The device is not a member.
    NotAMember(DeviceId),
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MembershipError::NoFreeSlots => write!(f, "no free reporting slots"),
            MembershipError::Blocked(d) => write!(f, "device {d} is blocked"),
            MembershipError::NotAMember(d) => write!(f, "device {d} is not a member"),
        }
    }
}

impl Error for MembershipError {}

/// The membership registry plus the TDMA slot table backing it.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipRegistry {
    members: BTreeMap<DeviceId, Membership>,
    slots: SlotTable,
    blocked: Vec<DeviceId>,
}

impl MembershipRegistry {
    /// Creates a registry backed by the given slot table.
    pub fn new(slots: SlotTable) -> Self {
        MembershipRegistry {
            members: BTreeMap::new(),
            slots,
            blocked: Vec::new(),
        }
    }

    /// Number of current members (master + temporary).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` when no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Remaining capacity (free reporting slots).
    pub fn free_slots(&self) -> u16 {
        self.slots.free_slots()
    }

    /// The membership of `device`, if registered.
    pub fn membership(&self, device: DeviceId) -> Option<&Membership> {
        self.members.get(&device)
    }

    /// Returns `true` if `device` holds any membership.
    pub fn is_member(&self, device: DeviceId) -> bool {
        self.members.contains_key(&device)
    }

    /// Iterates over all memberships.
    pub fn iter(&self) -> impl Iterator<Item = &Membership> {
        self.members.values()
    }

    /// Blocks a device (e.g. reported lost). Any existing membership is
    /// removed immediately.
    pub fn block(&mut self, device: DeviceId) {
        if !self.blocked.contains(&device) {
            self.blocked.push(device);
        }
        let _ = self.remove(device);
    }

    /// Returns `true` if the device is blocked.
    pub fn is_blocked(&self, device: DeviceId) -> bool {
        self.blocked.contains(&device)
    }

    /// Registers `device` with the given membership kind.
    ///
    /// Re-registering an existing member refreshes its entry but keeps the
    /// already-assigned slot (the device may simply have rebooted).
    ///
    /// # Errors
    ///
    /// Fails if the device is blocked or no slot is free.
    pub fn register(
        &mut self,
        device: DeviceId,
        kind: MembershipKind,
        home: Option<AggregatorAddr>,
        now: SimTime,
    ) -> Result<Membership, MembershipError> {
        if self.is_blocked(device) {
            return Err(MembershipError::Blocked(device));
        }
        let slot = match self.members.get(&device) {
            Some(existing) => existing.slot,
            None => self.slots.assign(device).map_err(|e| match e {
                SlotError::NoFreeSlots => MembershipError::NoFreeSlots,
                SlotError::AlreadyAssigned(_) | SlotError::NotAssigned(_) => {
                    MembershipError::NoFreeSlots
                }
            })?,
        };
        let membership = Membership {
            device,
            kind,
            slot,
            home,
            registered_at: now,
            last_acked_sequence: None,
        };
        self.members.insert(device, membership);
        Ok(membership)
    }

    /// Removes a device's membership (temporary member left, or master
    /// membership deleted on transfer of ownership). The slot is released.
    ///
    /// # Errors
    ///
    /// Fails if the device is not a member.
    pub fn remove(&mut self, device: DeviceId) -> Result<Membership, MembershipError> {
        let membership = self
            .members
            .remove(&device)
            .ok_or(MembershipError::NotAMember(device))?;
        let _ = self.slots.release(device);
        Ok(membership)
    }

    /// Records that records up to `sequence` were acknowledged for `device`.
    pub fn note_ack(&mut self, device: DeviceId, sequence: u64) {
        if let Some(m) = self.members.get_mut(&device) {
            m.last_acked_sequence = Some(match m.last_acked_sequence {
                Some(prev) => prev.max(sequence),
                None => sequence,
            });
        }
    }

    /// All temporary members whose home is `home`.
    pub fn temporary_members_of(&self, home: AggregatorAddr) -> Vec<DeviceId> {
        self.members
            .values()
            .filter(|m| m.kind == MembershipKind::Temporary && m.home == Some(home))
            .map(|m| m.device)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::time::SimDuration;

    fn registry(capacity: u16) -> MembershipRegistry {
        MembershipRegistry::new(SlotTable::new(SimDuration::from_millis(10), capacity))
    }

    #[test]
    fn register_master_and_query() {
        let mut r = registry(4);
        let m = r
            .register(DeviceId(1), MembershipKind::Master, None, SimTime::ZERO)
            .unwrap();
        assert_eq!(m.kind, MembershipKind::Master);
        assert!(r.is_member(DeviceId(1)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.free_slots(), 3);
        assert_eq!(r.membership(DeviceId(1)).unwrap().slot, m.slot);
    }

    #[test]
    fn reregistration_keeps_slot() {
        let mut r = registry(4);
        let first = r
            .register(DeviceId(1), MembershipKind::Master, None, SimTime::ZERO)
            .unwrap();
        let second = r
            .register(
                DeviceId(1),
                MembershipKind::Master,
                None,
                SimTime::from_secs(5),
            )
            .unwrap();
        assert_eq!(first.slot, second.slot);
        assert_eq!(r.len(), 1);
        assert_eq!(r.free_slots(), 3);
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut r = registry(2);
        r.register(DeviceId(1), MembershipKind::Master, None, SimTime::ZERO)
            .unwrap();
        r.register(DeviceId(2), MembershipKind::Master, None, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            r.register(DeviceId(3), MembershipKind::Master, None, SimTime::ZERO),
            Err(MembershipError::NoFreeSlots)
        );
    }

    #[test]
    fn removal_frees_slot() {
        let mut r = registry(1);
        r.register(DeviceId(1), MembershipKind::Master, None, SimTime::ZERO)
            .unwrap();
        assert!(r.remove(DeviceId(1)).is_ok());
        assert_eq!(
            r.remove(DeviceId(1)),
            Err(MembershipError::NotAMember(DeviceId(1)))
        );
        assert!(r
            .register(DeviceId(2), MembershipKind::Master, None, SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn blocked_devices_cannot_register() {
        let mut r = registry(4);
        r.register(DeviceId(1), MembershipKind::Master, None, SimTime::ZERO)
            .unwrap();
        r.block(DeviceId(1));
        assert!(!r.is_member(DeviceId(1)), "blocking removes the membership");
        assert_eq!(
            r.register(DeviceId(1), MembershipKind::Master, None, SimTime::ZERO),
            Err(MembershipError::Blocked(DeviceId(1)))
        );
        assert!(r.is_blocked(DeviceId(1)));
    }

    #[test]
    fn temporary_members_grouped_by_home() {
        let mut r = registry(8);
        r.register(
            DeviceId(1),
            MembershipKind::Temporary,
            Some(AggregatorAddr(1)),
            SimTime::ZERO,
        )
        .unwrap();
        r.register(
            DeviceId(2),
            MembershipKind::Temporary,
            Some(AggregatorAddr(2)),
            SimTime::ZERO,
        )
        .unwrap();
        r.register(DeviceId(3), MembershipKind::Master, None, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.temporary_members_of(AggregatorAddr(1)), vec![DeviceId(1)]);
        assert_eq!(r.temporary_members_of(AggregatorAddr(2)), vec![DeviceId(2)]);
        assert!(r.temporary_members_of(AggregatorAddr(3)).is_empty());
    }

    #[test]
    fn ack_tracking_is_monotonic() {
        let mut r = registry(4);
        r.register(DeviceId(1), MembershipKind::Master, None, SimTime::ZERO)
            .unwrap();
        r.note_ack(DeviceId(1), 5);
        r.note_ack(DeviceId(1), 3);
        assert_eq!(
            r.membership(DeviceId(1)).unwrap().last_acked_sequence,
            Some(5)
        );
        // Unknown devices are ignored quietly.
        r.note_ack(DeviceId(9), 1);
    }

    #[test]
    fn iter_lists_all_members() {
        let mut r = registry(4);
        for i in 0..3 {
            r.register(DeviceId(i), MembershipKind::Master, None, SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(r.iter().count(), 3);
        assert!(!r.is_empty());
    }
}
