// Fixture: dtnflow-core hot-path code written to policy — dense
// containers instead of hash maps, typed errors instead of panics, and
// a wheel-shaped codec whose rebuilt-on-decode fields carry reasoned
// S1 waivers (a derived slot index beside the wire list). Never compiled.

pub struct MiniWheel {
    pub base: u64,
    /// Canonical entry list; slot placement below is derived from it.
    pub entries: Vec<u64>,
    // detlint: allow(S1, reason = "slot placement is derived; decode re-places every entry against base")
    pub slots: Vec<Vec<u64>>,
}

impl MiniWheel {
    pub fn encode(&self, w: &mut Writer) {
        w.put_u64(self.base);
        w.put_usize(self.entries.len());
        for &e in &self.entries {
            w.put_u64(e);
        }
    }

    pub fn decode(r: &mut Reader) -> Result<MiniWheel, SnapshotError> {
        let base = r.u64()?;
        let n = r.usize()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            entries.push(r.u64()?);
        }
        let mut wheel = MiniWheel {
            base,
            entries,
            slots: Vec::new(),
        };
        wheel.place_all();
        Ok(wheel)
    }

    fn place_all(&mut self) {}
}
