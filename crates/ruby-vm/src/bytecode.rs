//! Instruction sequences: the unit the compiler emits (a method, block,
//! class body or top-level). Their instructions live in the program's one
//! stream ([`crate::decode`]).

/// Index of an instruction sequence in the program's iseq table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IseqId(pub u32);

/// A compiled instruction sequence.
#[derive(Debug, Clone)]
pub struct ISeq {
    /// Human-readable name for diagnostics ("Object#workload", "block in
    /// each", "<main>").
    pub name: String,
    /// Number of declared parameters (leading locals).
    pub nparams: usize,
    /// Total local slots including parameters.
    pub nlocals: usize,
    /// True for block iseqs (locals resolve up the static chain).
    pub is_block: bool,
    /// Operand-stack bound (frame sizing: [`crate::decode::max_stack`]).
    pub max_stack: usize,
}
