//! Address-space layout of the simulated interpreter.
//!
//! Mirrors the memory map of a real CRuby process closely enough that the
//! paper's conflict points land on distinct (or deliberately shared) cache
//! lines:
//!
//! ```text
//! ┌─────────────────────────────────────────────────────────────┐
//! │ GIL word (alone on its line — every transaction reads it)   │
//! │ running-thread global (the paper's worst conflict point)    │
//! │ heap metadata: free-list head, sweep cursor, malloc bump    │
//! │ malloc size-class free-list heads                           │
//! │ global-variable slots                                       │
//! │ constant slots                                              │
//! │ inline-cache area (2 words per call/ivar site, packed)      │
//! │ thread structs (padded to a line each, or packed — §4.4)    │
//! │ object slots (8 words each, the CRuby RVALUE heap)          │
//! │ malloc area (array/hash/ivar buffers, string shadows)       │
//! │ per-thread stacks (frames + operand stacks)                 │
//! └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! The slot area can grow at the end of memory (heap growth adds slot
//! ranges); everything else is fixed at boot.

use crate::value::Addr;

/// Words per object slot (64 bytes — one full line on the Xeon, a quarter
/// line on zEC12, like CRuby's 40-byte RVALUEs).
pub const SLOT_WORDS: usize = 8;

/// Number of malloc size classes (powers of two from 4 words up).
pub const MALLOC_CLASSES: usize = 12;

/// Words per thread struct when unpadded (the paper's false-sharing case).
pub const THREAD_STRUCT_WORDS: usize = 8;

/// Words per thread stack (frames and operand stacks).
pub const STACK_WORDS: usize = 4_096;

/// Slots in the global-variable table and in the constant table (the core
/// classes included); a program that names more ends in a fatal `VmError`.
pub const GVAR_CAP: usize = 128;
pub const CONST_CAP: usize = 256;

/// Offsets within a thread struct.
pub mod ts {
    /// `yield_point_counter` of paper Fig. 2 (written at every yield point).
    pub const YIELD_COUNTER: usize = 0;
    /// Timer-thread interrupt flag (GIL mode, paper §3.2).
    pub const INTERRUPT: usize = 1;
    /// Thread-local free-list head (paper §4.4 conflict removal #2).
    pub const TL_FREE_HEAD: usize = 2;
    /// Thread-local malloc bump pointer (z/OS HEAPPOOLS analogue).
    pub const TL_MALLOC_BUMP: usize = 3;
    /// End of the thread-local malloc arena chunk.
    pub const TL_MALLOC_END: usize = 4;
    /// Private sweep cursor for the §5.6 thread-local lazy-sweep
    /// extension.
    pub const TL_SWEEP_CURSOR: usize = 5;
    /// Scratch word (spin counters etc.).
    pub const SCRATCH: usize = 6;
    /// Reserved/padding.
    pub const RESERVED: usize = 7;
}

/// Computed address map.
#[derive(Debug, Clone)]
pub struct Layout {
    pub line_words: usize,
    pub gil: Addr,
    pub running_thread: Addr,
    pub free_head: Addr,
    pub sweep_cursor: Addr,
    pub malloc_bump: Addr,
    pub malloc_end: Addr,
    pub malloc_class_base: Addr,
    pub gvar_base: Addr,
    pub const_base: Addr,
    pub ic_base: Addr,
    pub ic_count: usize,
    /// Copies of the IC area (1 shared, or one per thread for the §5.6
    /// thread-local inline-cache extension).
    pub ic_copies: usize,
    pub thread_struct_base: Addr,
    pub thread_struct_stride: usize,
    pub max_threads: usize,
    pub slots_base: Addr,
    pub initial_slots: usize,
    pub malloc_base: Addr,
    pub malloc_words: usize,
    pub stack_base: Addr,
    /// First address past the initial layout (heap growth appends here).
    pub total_words: usize,
}

impl Layout {
    /// Build the address map.
    pub fn new(
        line_words: usize,
        ic_count: usize,
        max_threads: usize,
        initial_slots: usize,
        malloc_words: usize,
        padded_thread_structs: bool,
        ic_copies: usize,
    ) -> Layout {
        let align = |a: usize| a.div_ceil(line_words) * line_words;
        let gil = 0;
        let running_thread = align(gil + 1);
        let free_head = align(running_thread + 1);
        let sweep_cursor = free_head + 1;
        let malloc_bump = free_head + 2;
        let malloc_end = free_head + 3;
        let malloc_class_base = align(free_head + 4);
        let gvar_base = align(malloc_class_base + MALLOC_CLASSES);
        let const_base = align(gvar_base + GVAR_CAP);
        let ic_base = align(const_base + CONST_CAP);
        let thread_struct_base = align(ic_base + 2 * ic_count.max(1) * ic_copies.max(1));
        let thread_struct_stride = if padded_thread_structs {
            align(THREAD_STRUCT_WORDS).max(line_words)
        } else {
            THREAD_STRUCT_WORDS
        };
        let slots_base = align(thread_struct_base + thread_struct_stride * max_threads);
        let malloc_base = align(slots_base + initial_slots * SLOT_WORDS);
        let stack_base = align(malloc_base + malloc_words);
        let total_words = align(stack_base + STACK_WORDS * max_threads);
        Layout {
            line_words,
            gil,
            running_thread,
            free_head,
            sweep_cursor,
            malloc_bump,
            malloc_end,
            malloc_class_base,
            gvar_base,
            const_base,
            ic_base,
            ic_count,
            ic_copies: ic_copies.max(1),
            thread_struct_base,
            thread_struct_stride,
            max_threads,
            slots_base,
            initial_slots,
            malloc_base,
            malloc_words,
            stack_base,
            total_words,
        }
    }

    /// Address of inline-cache site `site` (2 words: guard, entry).
    #[inline]
    pub fn ic(&self, site: u32) -> Addr {
        self.ic_base + 2 * site as usize
    }

    /// Address of global-variable slot `idx`.
    #[inline]
    pub fn gvar(&self, idx: usize) -> Addr {
        debug_assert!(idx < GVAR_CAP, "too many global variables");
        self.gvar_base + idx
    }

    /// Address of constant slot `idx`.
    #[inline]
    pub fn cnst(&self, idx: usize) -> Addr {
        debug_assert!(idx < CONST_CAP, "too many constants");
        self.const_base + idx
    }

    /// Base address of thread `tid`'s struct.
    #[inline]
    pub fn thread_struct(&self, tid: usize) -> Addr {
        self.thread_struct_base + tid * self.thread_struct_stride
    }

    /// Stack region of thread `tid`: (base, end-exclusive).
    #[inline]
    pub fn thread_stack(&self, tid: usize) -> (Addr, Addr) {
        let base = self.stack_base + tid * STACK_WORDS;
        (base, base + STACK_WORDS)
    }

    /// Size class index for a malloc request of `words` (powers of two
    /// from 4). Returns `MALLOC_CLASSES - 1` for anything huge.
    pub fn size_class(words: usize) -> usize {
        let mut cls = 0usize;
        let mut cap = 4usize;
        while cap < words && cls + 1 < MALLOC_CLASSES {
            cap *= 2;
            cls += 1;
        }
        cls
    }

    /// Capacity in words of a size class.
    pub fn class_words(cls: usize) -> usize {
        4usize << cls
    }
}

/// Which VM structure owns a cache line — the vocabulary of the paper's
/// §5.6 conflict attribution ("more than 50 % of those read-set conflicts
/// occurred at the time of object allocation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LineOwner {
    /// The GIL word itself.
    Gil,
    /// The running-thread global (§4.4 #1).
    RunningThread,
    /// Heap metadata: free-list head, sweep cursor, malloc bump/class
    /// heads — the allocator (§4.4 #2 / §5.6).
    Allocator,
    /// Global variables / constants.
    Globals,
    /// Inline-cache words (§4.4 #4).
    InlineCache,
    /// Thread structs — false sharing when unpadded (§4.4 #5).
    ThreadStruct,
    /// Object slots (shared application data, lazy-sweep links).
    HeapSlots,
    /// Malloc'd buffers (array/ivar/string data).
    MallocArea,
    /// Another thread's stack (escaped environments).
    Stack,
}

impl LineOwner {
    /// All owners, in address-map order.
    pub const ALL: [LineOwner; 9] = [
        LineOwner::Gil,
        LineOwner::RunningThread,
        LineOwner::Allocator,
        LineOwner::Globals,
        LineOwner::InlineCache,
        LineOwner::ThreadStruct,
        LineOwner::HeapSlots,
        LineOwner::MallocArea,
        LineOwner::Stack,
    ];

    /// Stable label used in reports and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            LineOwner::Gil => "gil",
            LineOwner::RunningThread => "running-thread",
            LineOwner::Allocator => "allocator",
            LineOwner::Globals => "globals",
            LineOwner::InlineCache => "inline-cache",
            LineOwner::ThreadStruct => "thread-struct",
            LineOwner::HeapSlots => "heap-slots",
            LineOwner::MallocArea => "malloc-area",
            LineOwner::Stack => "stack",
        }
    }
}

/// Line → owner attribution map.
///
/// The VM registers its regions here at layout time and appends entries
/// whenever the address space grows (slot-heap growth registers the new
/// range as [`LineOwner::HeapSlots`], malloc-arena growth as
/// [`LineOwner::MallocArea`] — the two growth paths land in different
/// structures, which a layout-boundary comparison against the *initial*
/// map would misattribute). Lookups resolve a cache line to the region
/// with the greatest starting line at or below it.
#[derive(Debug, Clone)]
pub struct AttributionMap {
    line_words: usize,
    /// `(first line, owner)`, sorted by starting line.
    regions: Vec<(usize, LineOwner)>,
}

impl AttributionMap {
    /// Build the boot-time map from a layout.
    pub fn from_layout(l: &Layout) -> AttributionMap {
        let mut map = AttributionMap { line_words: l.line_words, regions: Vec::new() };
        map.register_region(l.gil, LineOwner::Gil);
        map.register_region(l.running_thread, LineOwner::RunningThread);
        map.register_region(l.free_head, LineOwner::Allocator);
        map.register_region(l.gvar_base, LineOwner::Globals);
        map.register_region(l.ic_base, LineOwner::InlineCache);
        map.register_region(l.thread_struct_base, LineOwner::ThreadStruct);
        map.register_region(l.slots_base, LineOwner::HeapSlots);
        map.register_region(l.malloc_base, LineOwner::MallocArea);
        map.register_region(l.stack_base, LineOwner::Stack);
        map
    }

    /// Register a region starting at `base` as owned by `owner`. The
    /// region extends to the next registered region (or to the end of
    /// memory). Out-of-order registration is supported but growth always
    /// appends at the top of memory in practice.
    pub fn register_region(&mut self, base: Addr, owner: LineOwner) {
        let line = base / self.line_words;
        match self.regions.binary_search_by_key(&line, |&(l, _)| l) {
            Ok(i) => self.regions[i] = (line, owner),
            Err(i) => self.regions.insert(i, (line, owner)),
        }
    }

    /// Owner of a cache line.
    pub fn owner_of_line(&self, line: usize) -> LineOwner {
        let idx = self.regions.partition_point(|&(l, _)| l <= line);
        if idx == 0 {
            // Below the first region: the map always starts at the GIL
            // word (line 0), so this is unreachable in practice.
            return self.regions.first().map_or(LineOwner::Gil, |&(_, o)| o);
        }
        self.regions[idx - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AttributionMap {
        /// Owner of a word address.
        fn owner_of_addr(&self, addr: Addr) -> LineOwner {
            self.owner_of_line(addr / self.line_words)
        }

        /// Number of registered regions (boot regions + growth appendices).
        fn region_count(&self) -> usize {
            self.regions.len()
        }
    }

    fn layout(padded: bool) -> Layout {
        Layout::new(8, 100, 4, 1000, 10_000, padded, 1)
    }

    #[test]
    fn regions_do_not_overlap_and_are_ordered() {
        let l = layout(true);
        let points = [
            l.gil,
            l.running_thread,
            l.free_head,
            l.malloc_class_base,
            l.gvar_base,
            l.const_base,
            l.ic_base,
            l.thread_struct_base,
            l.slots_base,
            l.malloc_base,
            l.stack_base,
        ];
        for w in points.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
        assert!(l.stack_base + 4 * STACK_WORDS <= l.total_words);
    }

    #[test]
    fn gil_and_running_thread_on_distinct_lines() {
        let l = layout(true);
        assert_ne!(l.gil / l.line_words, l.running_thread / l.line_words);
        assert_ne!(l.running_thread / l.line_words, l.free_head / l.line_words);
    }

    #[test]
    fn padded_thread_structs_have_line_stride() {
        let l = layout(true);
        assert_eq!(l.thread_struct_stride % l.line_words, 0);
        // Distinct threads' structs land on distinct lines.
        assert_ne!(l.thread_struct(0) / l.line_words, l.thread_struct(1) / l.line_words);
    }

    #[test]
    fn unpadded_thread_structs_share_lines() {
        // zEC12-style 32-word lines: four unpadded 8-word structs per line.
        let l = Layout::new(32, 100, 4, 1000, 10_000, false, 1);
        assert_eq!(l.thread_struct_stride, THREAD_STRUCT_WORDS);
        assert_eq!(l.thread_struct(0) / l.line_words, (l.thread_struct(1)) / l.line_words);
    }

    #[test]
    fn size_classes() {
        assert_eq!(Layout::size_class(1), 0);
        assert_eq!(Layout::size_class(4), 0);
        assert_eq!(Layout::size_class(5), 1);
        assert_eq!(Layout::size_class(8), 1);
        assert_eq!(Layout::size_class(9), 2);
        assert_eq!(Layout::class_words(0), 4);
        assert_eq!(Layout::class_words(2), 16);
        // Huge requests cap at the last class.
        assert_eq!(Layout::size_class(1 << 30), MALLOC_CLASSES - 1);
    }

    #[test]
    fn ic_slots_are_two_words() {
        let l = layout(true);
        assert_eq!(l.ic(1) - l.ic(0), 2);
        assert!(l.ic(99) + 1 < l.thread_struct_base);
    }

    #[test]
    fn attribution_map_matches_layout_regions() {
        let l = layout(true);
        let m = AttributionMap::from_layout(&l);
        assert_eq!(m.owner_of_addr(l.gil), LineOwner::Gil);
        assert_eq!(m.owner_of_addr(l.running_thread), LineOwner::RunningThread);
        assert_eq!(m.owner_of_addr(l.free_head), LineOwner::Allocator);
        assert_eq!(m.owner_of_addr(l.sweep_cursor), LineOwner::Allocator);
        assert_eq!(m.owner_of_addr(l.malloc_bump), LineOwner::Allocator);
        assert_eq!(m.owner_of_addr(l.malloc_class_base + MALLOC_CLASSES - 1), LineOwner::Allocator);
        assert_eq!(m.owner_of_addr(l.gvar_base), LineOwner::Globals);
        assert_eq!(m.owner_of_addr(l.const_base), LineOwner::Globals);
        assert_eq!(m.owner_of_addr(l.ic(0)), LineOwner::InlineCache);
        assert_eq!(m.owner_of_addr(l.thread_struct(3)), LineOwner::ThreadStruct);
        assert_eq!(m.owner_of_addr(l.slots_base), LineOwner::HeapSlots);
        assert_eq!(m.owner_of_addr(l.slots_base + 999 * SLOT_WORDS), LineOwner::HeapSlots);
        assert_eq!(m.owner_of_addr(l.malloc_base), LineOwner::MallocArea);
        let (sb, se) = l.thread_stack(3);
        assert_eq!(m.owner_of_addr(sb), LineOwner::Stack);
        assert_eq!(m.owner_of_addr(se - 1), LineOwner::Stack);
    }

    #[test]
    fn attribution_map_distinguishes_growth_kinds() {
        let l = layout(true);
        let mut m = AttributionMap::from_layout(&l);
        let boot_regions = m.region_count();
        // Grown slot range, then a grown malloc arena above it.
        let grown_slots = l.total_words;
        let grown_malloc = l.total_words + 4096;
        m.register_region(grown_slots, LineOwner::HeapSlots);
        m.register_region(grown_malloc, LineOwner::MallocArea);
        assert_eq!(m.region_count(), boot_regions + 2);
        assert_eq!(m.owner_of_addr(grown_slots), LineOwner::HeapSlots);
        assert_eq!(m.owner_of_addr(grown_slots + 4095), LineOwner::HeapSlots);
        assert_eq!(m.owner_of_addr(grown_malloc), LineOwner::MallocArea);
        assert_eq!(m.owner_of_addr(grown_malloc + (1 << 20)), LineOwner::MallocArea);
        // Boot regions still resolve.
        assert_eq!(m.owner_of_addr(l.slots_base), LineOwner::HeapSlots);
    }

    #[test]
    fn line_owner_labels_are_distinct() {
        let mut labels: Vec<&str> = LineOwner::ALL.iter().map(|o| o.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), LineOwner::ALL.len());
    }

    #[test]
    fn stacks_are_disjoint() {
        let l = layout(true);
        let (b0, e0) = l.thread_stack(0);
        let (b1, _e1) = l.thread_stack(1);
        assert_eq!(e0, b1);
        assert!(b0 < e0);
    }
}
