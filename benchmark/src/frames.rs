//! A generated frame trace: every frame's bytes back to back in one
//! arena, so a pass replays it with one `memcpy` per frame into a
//! recycled buffer and two traces compare byte for byte.

/// Frames per data-plane batch (`DEFAULT_BATCH_FRAMES` in the runtime).
pub const BATCH: usize = 64;

/// An immutable sequence of frames.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameTrace {
    arena: Vec<u8>,
    bounds: Vec<(u32, u32)>,
    max_len: usize,
}

impl FrameTrace {
    /// Append one frame.
    pub fn push(&mut self, frame: &[u8]) {
        let start = u32::try_from(self.arena.len()).expect("trace arena under 4 GiB");
        self.arena.extend_from_slice(frame);
        self.bounds.push((start, frame.len() as u32));
        self.max_len = self.max_len.max(frame.len());
    }

    /// Frames in the trace.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Frame `i`.
    #[inline]
    pub fn frame(&self, i: usize) -> &[u8] {
        let (start, len) = self.bounds[i];
        &self.arena[start as usize..start as usize + len as usize]
    }

    /// Every frame's bytes, concatenated (for byte-equality checks).
    pub fn bytes(&self) -> &[u8] {
        &self.arena
    }

    /// Length of the longest frame, bytes.
    pub fn max_len(&self) -> usize {
        self.max_len
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_SEED`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
