//! Grid/block geometry: `Dim3` and `LaunchConfig`.
//!
//! CUDA/HIP describe a kernel launch as a 3-D grid of 3-D thread blocks
//! (`dim3 gridSize(128, 64, 32)`); the paper's §3.2 extends OpenMP's
//! `num_teams`/`thread_limit` clauses to accept the same multi-dimensional
//! lists. This module is the common geometry vocabulary for both worlds.

/// A three-dimensional extent, identical in spirit to CUDA's `dim3`.
///
/// Components default to 1, mirroring `dim3`'s constructor semantics, so
/// `Dim3::x(128)` is `dim3(128)` and `Dim3::new(8, 8, 1)` is `dim3(8, 8)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// A fully specified extent.
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// One-dimensional extent (`y = z = 1`).
    pub const fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// Two-dimensional extent (`z = 1`).
    pub const fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total number of elements covered by this extent.
    pub const fn count(&self) -> usize {
        self.x as usize * self.y as usize * self.z as usize
    }

    /// Linearize a coordinate within this extent (x fastest, like CUDA).
    pub const fn linear(&self, x: u32, y: u32, z: u32) -> usize {
        (z as usize * self.y as usize + y as usize) * self.x as usize + x as usize
    }

    /// Inverse of [`Dim3::linear`].
    pub const fn delinear(&self, idx: usize) -> (u32, u32, u32) {
        let x = (idx % self.x as usize) as u32;
        let rest = idx / self.x as usize;
        let y = (rest % self.y as usize) as u32;
        let z = (rest / self.y as usize) as u32;
        (x, y, z)
    }

    /// True when any component is zero (an invalid launch extent).
    pub const fn is_degenerate(&self) -> bool {
        self.x == 0 || self.y == 0 || self.z == 0
    }

    /// Number of dimensions that are larger than one (1 for a 1-D extent).
    pub fn dimensionality(&self) -> u32 {
        let mut d = 1;
        if self.y > 1 {
            d = 2;
        }
        if self.z > 1 {
            d = 3;
        }
        d
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::xy(x, y)
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Dim3::new(x, y, z)
    }
}

impl From<[u32; 1]> for Dim3 {
    fn from(v: [u32; 1]) -> Self {
        Dim3::x(v[0])
    }
}

impl From<[u32; 2]> for Dim3 {
    fn from(v: [u32; 2]) -> Self {
        Dim3::xy(v[0], v[1])
    }
}

impl From<[u32; 3]> for Dim3 {
    fn from(v: [u32; 3]) -> Self {
        Dim3::new(v[0], v[1], v[2])
    }
}

/// Declaration of one statically-sized shared-memory array ("slot").
///
/// Kernels retrieve a slot through [`crate::thread::ThreadCtx::shared`]; the
/// simulator allocates one instance per thread block, mirroring `__shared__`
/// arrays in CUDA and the `groupprivate(team:)` directive the paper adopts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedSlotDecl {
    /// Element count of the array.
    pub len: usize,
    /// Size of one element in bytes (for shared-memory accounting).
    pub elem_bytes: usize,
    /// Name of the element type, validated on access.
    pub type_name: &'static str,
}

impl SharedSlotDecl {
    /// Bytes of shared memory this slot occupies per block.
    pub fn bytes(&self) -> usize {
        self.len * self.elem_bytes
    }
}

/// Full description of a kernel launch: geometry plus shared-memory layout.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid (CUDA `gridDim`).
    pub grid: Dim3,
    /// Number of threads in each block (CUDA `blockDim`).
    pub block: Dim3,
    /// Statically declared shared-memory arrays, indexed by slot id.
    pub shared_slots: Vec<SharedSlotDecl>,
    /// Extra dynamic shared memory in bytes (CUDA's third chevron argument).
    pub dynamic_shared_bytes: usize,
}

impl LaunchConfig {
    /// A launch with explicit grid and block extents.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
            shared_slots: Vec::new(),
            dynamic_shared_bytes: 0,
        }
    }

    /// 1-D launch covering at least `n` elements with `block_size` threads
    /// per block — the ubiquitous `(n + bs - 1) / bs` pattern from Figure 1.
    pub fn linear(n: usize, block_size: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let blocks = n.div_ceil(block_size as usize).max(1) as u32;
        LaunchConfig::new(Dim3::x(blocks), Dim3::x(block_size))
    }

    /// Declare a statically-sized shared array of `len` elements of `T`.
    /// Returns the slot id used by `ThreadCtx::shared::<T>(slot)`.
    pub fn shared_array<T: crate::mem::DeviceScalar>(&mut self, len: usize) -> usize {
        let slot = self.shared_slots.len();
        self.shared_slots.push(SharedSlotDecl {
            len,
            elem_bytes: std::mem::size_of::<T>(),
            type_name: std::any::type_name::<T>(),
        });
        slot
    }

    /// Builder-style variant of [`LaunchConfig::shared_array`], discarding the
    /// slot id (useful when the kernel knows its slots by convention).
    pub fn with_shared_array<T: crate::mem::DeviceScalar>(mut self, len: usize) -> Self {
        self.shared_array::<T>(len);
        self
    }

    /// Builder-style setter for dynamic shared memory bytes.
    pub fn with_dynamic_shared(mut self, bytes: usize) -> Self {
        self.dynamic_shared_bytes = bytes;
        self
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> usize {
        self.block.count()
    }

    /// Number of blocks in the grid.
    pub fn num_blocks(&self) -> usize {
        self.grid.count()
    }

    /// Total simulated threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.num_blocks() * self.threads_per_block()
    }

    /// Total static + dynamic shared memory per block in bytes.
    pub fn shared_bytes_per_block(&self) -> usize {
        self.shared_slots.iter().map(SharedSlotDecl::bytes).sum::<usize>()
            + self.dynamic_shared_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_count_and_linearize() {
        let d = Dim3::new(4, 3, 2);
        assert_eq!(d.count(), 24);
        let mut seen = [false; 24];
        for z in 0..2 {
            for y in 0..3 {
                for x in 0..4 {
                    let l = d.linear(x, y, z);
                    assert!(!seen[l], "duplicate linear index");
                    seen[l] = true;
                    assert_eq!(d.delinear(l), (x, y, z));
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn dim3_constructors_default_to_one() {
        assert_eq!(Dim3::x(128), Dim3::new(128, 1, 1));
        assert_eq!(Dim3::xy(8, 4), Dim3::new(8, 4, 1));
        assert_eq!(Dim3::from(7u32).count(), 7);
        assert_eq!(Dim3::from([2u32, 3]).count(), 6);
        assert_eq!(Dim3::from((2u32, 3u32, 4u32)).count(), 24);
    }

    #[test]
    fn dimensionality() {
        assert_eq!(Dim3::x(10).dimensionality(), 1);
        assert_eq!(Dim3::xy(10, 2).dimensionality(), 2);
        assert_eq!(Dim3::new(1, 1, 2).dimensionality(), 3);
    }

    #[test]
    fn linear_launch_covers_n() {
        let cfg = LaunchConfig::linear(1000, 128);
        assert_eq!(cfg.num_blocks(), 8);
        assert_eq!(cfg.threads_per_block(), 128);
        assert!(cfg.total_threads() >= 1000);

        // Exact multiple does not round up.
        let cfg = LaunchConfig::linear(1024, 128);
        assert_eq!(cfg.num_blocks(), 8);

        // Zero-sized problems still launch one block.
        let cfg = LaunchConfig::linear(0, 128);
        assert_eq!(cfg.num_blocks(), 1);
    }

    #[test]
    fn shared_slot_accounting() {
        let mut cfg = LaunchConfig::new(1u32, 64u32);
        let s0 = cfg.shared_array::<f32>(128);
        let s1 = cfg.shared_array::<f64>(16);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(cfg.shared_bytes_per_block(), 128 * 4 + 16 * 8);
        let cfg = cfg.with_dynamic_shared(256);
        assert_eq!(cfg.shared_bytes_per_block(), 128 * 4 + 16 * 8 + 256);
    }
}
