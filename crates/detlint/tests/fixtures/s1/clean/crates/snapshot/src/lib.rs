// Fixture: complete and properly-waived snapshot codecs. Never compiled.

pub struct Blob {
    pub id: u64,
    pub hops: u32,
    /// Rebuilt lazily; excluded from the wire format on purpose.
    // detlint: allow(S1, reason = "derived cache, recomputed from id on first access")
    pub cache: Option<u64>,
}

impl Blob {
    pub fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        w.put_u32(self.hops);
    }

    pub fn decode(r: &mut Reader) -> Blob {
        Blob {
            id: r.u64(),
            hops: r.u32(),
            cache: None,
        }
    }
}

/// No codec at all: S1 has nothing to say.
pub struct Plain {
    pub a: u32,
}
