//! Dense device storage for the [`World`](crate::simulation::World).
//!
//! Every device gets a `u32` slot when it joins the world. Slots are handed
//! out in add order, re-adding an id overwrites that id's slot (the new
//! device replaces the old one, as a map insert would), and nothing removes
//! a device, so a slot never dangles. Measure-tick events and site members
//! carry the slot, which makes a tick and each member of the upstream sum an
//! index instead of a map lookup. Every walk whose order the run can observe
//! goes through the id → slot index, in ascending id order.
//!
//! The slots live in fixed-capacity chunks, each allocated once and never
//! reallocated. A single growing `Vec` would free every buffer it outgrows,
//! and glibc raises its mmap threshold to the size of any freed mapped block
//! above it (128 KiB at start). Large per-device buffers allocated later
//! would then land on the brk heap instead of in their own mappings, which
//! raised the peak RSS of a 1000-device world by about 16 %.

use rtem_device::device::MeteringDevice;
use rtem_net::packet::DeviceId;
use std::collections::BTreeMap;

/// Devices per chunk. A chunk (64 × ~0.9 KB) stays under glibc's initial
/// 128 KiB mmap threshold, so it never takes a mapping of its own.
const CHUNK: usize = 64;

/// The world's devices in dense, stable slots plus an id → slot index.
pub(crate) struct DeviceTable {
    chunks: Vec<Vec<MeteringDevice>>,
    index: BTreeMap<DeviceId, u32>,
}

impl DeviceTable {
    pub(crate) fn new() -> Self {
        DeviceTable {
            chunks: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Stores `device` and returns its slot and whether the slot is new. An
    /// id already present keeps its slot, and `device` replaces the device
    /// stored there.
    pub(crate) fn insert(&mut self, device: MeteringDevice) -> (u32, bool) {
        let id = device.id();
        if let Some(&slot) = self.index.get(&id) {
            *self.at_mut(slot) = device;
            return (slot, false);
        }
        let slot = u32::try_from(self.index.len()).expect("fewer than 2^32 devices");
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(device),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(device);
                self.chunks.push(chunk);
            }
        }
        self.index.insert(id, slot);
        (slot, true)
    }

    /// Number of devices.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The slot of device `id`, if it exists.
    pub(crate) fn slot(&self, id: DeviceId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// The device in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never handed out.
    pub(crate) fn at(&self, slot: u32) -> &MeteringDevice {
        let slot = slot as usize;
        &self.chunks[slot / CHUNK][slot % CHUNK]
    }

    /// The device in `slot`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never handed out.
    pub(crate) fn at_mut(&mut self, slot: u32) -> &mut MeteringDevice {
        let slot = slot as usize;
        &mut self.chunks[slot / CHUNK][slot % CHUNK]
    }

    /// Whether device `id` exists.
    pub(crate) fn contains(&self, id: DeviceId) -> bool {
        self.index.contains_key(&id)
    }

    /// Device `id`, if it exists.
    pub(crate) fn get(&self, id: DeviceId) -> Option<&MeteringDevice> {
        self.slot(id).map(|slot| self.at(slot))
    }

    /// Device `id`, mutably, if it exists.
    pub(crate) fn get_mut(&mut self, id: DeviceId) -> Option<&mut MeteringDevice> {
        let slot = self.slot(id)?;
        Some(self.at_mut(slot))
    }

    /// Device ids in ascending order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.index.keys().copied()
    }

    /// `(id, device)` pairs in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (DeviceId, &MeteringDevice)> + '_ {
        self.index.iter().map(|(&id, &slot)| (id, self.at(slot)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_net::rssi::Position;
    use rtem_sensors::grid::BranchId;
    use rtem_sensors::profile::ConstantProfile;
    use rtem_sim::rng::SimRng;

    fn device(id: u64, milliamps: f64) -> MeteringDevice {
        MeteringDevice::testbed(
            DeviceId(id),
            ConstantProfile::new(milliamps),
            SimRng::seed_from_u64(id),
        )
    }

    #[test]
    fn a_chunk_stays_under_the_initial_mmap_threshold() {
        assert!(CHUNK * std::mem::size_of::<MeteringDevice>() < 128 * 1024);
    }

    #[test]
    fn slots_follow_add_order_and_walks_follow_id_order() {
        let mut table = DeviceTable::new();
        for (i, id) in [9, 3, 200, 1].into_iter().enumerate() {
            assert_eq!(table.insert(device(id, 100.0)), (i as u32, true));
        }
        // Spill over into a third chunk.
        for id in 1000..1000 + 2 * CHUNK as u64 {
            table.insert(device(id, 100.0));
        }
        assert_eq!(table.len(), 4 + 2 * CHUNK);
        let walked: Vec<DeviceId> = table.ids().collect();
        let mut sorted = walked.clone();
        sorted.sort_unstable();
        assert_eq!(walked, sorted);
        for (id, device) in table.iter() {
            assert_eq!(device.id(), id);
        }
        for slot in 0..table.len() as u32 {
            let id = table.at(slot).id();
            assert_eq!(table.slot(id), Some(slot));
        }
    }

    #[test]
    fn re_adding_an_id_overwrites_its_slot() {
        let mut table = DeviceTable::new();
        table.insert(device(1, 100.0));
        let (slot, fresh) = table.insert(device(2, 100.0));
        assert!(fresh);
        let now = rtem_sim::time::SimTime::from_secs(1);
        table
            .at_mut(slot)
            .plug_in(now, BranchId(0), Position::new(0.0, 0.0));
        assert!(table.get(DeviceId(2)).unwrap().is_plugged());
        assert_eq!(table.insert(device(2, 700.0)), (slot, false));
        assert_eq!(table.len(), 2);
        assert!(!table.at(slot).is_plugged(), "the fresh device replaced it");
    }
}
