//! ELF64 (little-endian) parsing and construction.
//!
//! Only the subset of the ELF format the classification pipeline needs is
//! implemented, but that subset is implemented for real: file header, section
//! header table, string tables, and symbol tables are parsed from and written
//! to the actual on-disk layout, so binaries produced by [`ElfBuilder`] are
//! accepted by the parser (and by external tools such as `readelf`).
//!
//! Submodules:
//!
//! * [`types`] — constants and typed enums for the fields we interpret.
//! * [`header`] — the 64-byte ELF file header.
//! * [`section`] — section headers and loaded section contents.
//! * [`symbol`] — symbol table entries.
//! * [`parse`] — [`ElfFile`], the parsed view of a byte buffer.
//! * [`build`] — [`ElfBuilder`], which assembles synthetic executables.
//! * [`strip`] — removal of symbol-table sections (what `strip(1)` does),
//!   used to model the paper's "stripped binaries" limitation.

pub mod build;
pub mod header;
pub mod parse;
pub mod section;
pub mod strip;
pub mod symbol;
pub mod types;

pub use build::ElfBuilder;
pub use header::ElfHeader;
pub use parse::ElfFile;
pub use section::{Section, StringTable};
pub use strip::strip_symbols;
pub use symbol::{Symbol, SymbolBinding, SymbolType};
