//! Symbol table entries.

use super::section::StringTable;
use super::types::*;
use crate::error::BinaryError;
use std::borrow::Cow;

/// Binding of a symbol (who can see it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolBinding {
    /// Visible only within the defining object file.
    Local,
    /// Visible to all object files being combined.
    Global,
    /// Like global but with lower link precedence.
    Weak,
    /// Any other (OS/processor specific) binding value.
    Other(u8),
}

impl SymbolBinding {
    /// Decode from the high nibble of `st_info`.
    pub fn from_st_info(info: u8) -> Self {
        match info >> 4 {
            STB_LOCAL => SymbolBinding::Local,
            STB_GLOBAL => SymbolBinding::Global,
            STB_WEAK => SymbolBinding::Weak,
            other => SymbolBinding::Other(other),
        }
    }

    /// Encode to the high nibble of `st_info`.
    pub fn to_bits(self) -> u8 {
        match self {
            SymbolBinding::Local => STB_LOCAL,
            SymbolBinding::Global => STB_GLOBAL,
            SymbolBinding::Weak => STB_WEAK,
            SymbolBinding::Other(v) => v,
        }
    }
}

/// Type of entity a symbol names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolType {
    /// No type recorded.
    NoType,
    /// A data object (variable, array, ...).
    Object,
    /// A function or other executable code.
    Func,
    /// The symbol refers to a section.
    Section,
    /// The source file name.
    File,
    /// Any other type value.
    Other(u8),
}

impl SymbolType {
    /// Decode from the low nibble of `st_info`.
    pub fn from_st_info(info: u8) -> Self {
        match info & 0x0F {
            STT_NOTYPE => SymbolType::NoType,
            STT_OBJECT => SymbolType::Object,
            STT_FUNC => SymbolType::Func,
            STT_SECTION => SymbolType::Section,
            STT_FILE => SymbolType::File,
            other => SymbolType::Other(other),
        }
    }

    /// Encode to the low nibble of `st_info`.
    pub fn to_bits(self) -> u8 {
        match self {
            SymbolType::NoType => STT_NOTYPE,
            SymbolType::Object => STT_OBJECT,
            SymbolType::Func => STT_FUNC,
            SymbolType::Section => STT_SECTION,
            SymbolType::File => STT_FILE,
            SymbolType::Other(v) => v,
        }
    }
}

/// One parsed symbol-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol<'a> {
    /// Symbol name resolved through the linked string table, borrowed from
    /// it unless the name is not valid UTF-8.
    pub name: Cow<'a, str>,
    /// Symbol value (usually a virtual address).
    pub value: u64,
    /// Size in bytes (0 if unknown).
    pub size: u64,
    /// Binding (local / global / weak).
    pub binding: SymbolBinding,
    /// Type (function / object / ...).
    pub sym_type: SymbolType,
    /// Index of the section this symbol is defined in (`SHN_UNDEF` if
    /// undefined, `SHN_ABS` for absolute values).
    pub shndx: u16,
}

impl<'a> Symbol<'a> {
    /// Whether the symbol is defined in this file (not an undefined import).
    pub fn is_defined(&self) -> bool {
        self.shndx != SHN_UNDEF
    }

    /// Whether the symbol has global binding.
    pub fn is_global(&self) -> bool {
        self.binding == SymbolBinding::Global
    }

    /// Parse one 24-byte ELF64 symbol entry at `offset` of `symtab_data`,
    /// resolving the name in `strtab`.
    pub fn parse(
        symtab_data: &[u8],
        offset: usize,
        strtab: &StringTable<'a>,
    ) -> Result<Self, BinaryError> {
        let needed = offset.saturating_add(SYM_SIZE);
        if symtab_data.len() < needed {
            return Err(BinaryError::Truncated {
                context: "symbol entry",
                needed,
                available: symtab_data.len(),
            });
        }
        let name_off = read_u32(symtab_data, offset) as usize;
        let info = symtab_data[offset + 4];
        let shndx = read_u16(symtab_data, offset + 6);
        let value = read_u64(symtab_data, offset + 8);
        let size = read_u64(symtab_data, offset + 16);
        let name = strtab.get(name_off).unwrap_or_default();
        Ok(Self {
            name,
            value,
            size,
            binding: SymbolBinding::from_st_info(info),
            sym_type: SymbolType::from_st_info(info),
            shndx,
        })
    }

    /// Serialize to the 24-byte on-disk form given the offset of the name in
    /// the string table.
    pub fn to_bytes(&self, name_offset: u32) -> [u8; SYM_SIZE] {
        let mut out = [0u8; SYM_SIZE];
        out[0..4].copy_from_slice(&name_offset.to_le_bytes());
        out[4] = (self.binding.to_bits() << 4) | self.sym_type.to_bits();
        out[5] = 0; // st_other: default visibility
        out[6..8].copy_from_slice(&self.shndx.to_le_bytes());
        out[8..16].copy_from_slice(&self.value.to_le_bytes());
        out[16..24].copy_from_slice(&self.size.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_roundtrip() {
        for b in [
            SymbolBinding::Local,
            SymbolBinding::Global,
            SymbolBinding::Weak,
            SymbolBinding::Other(10),
        ] {
            assert_eq!(SymbolBinding::from_st_info(b.to_bits() << 4), b);
        }
    }

    #[test]
    fn type_roundtrip() {
        for t in [
            SymbolType::NoType,
            SymbolType::Object,
            SymbolType::Func,
            SymbolType::Section,
            SymbolType::File,
            SymbolType::Other(13),
        ] {
            assert_eq!(SymbolType::from_st_info(t.to_bits()), t);
        }
    }

    #[test]
    fn symbol_roundtrip() {
        let strtab = b"\0compute_forces\0";
        let sym = Symbol {
            name: Cow::Borrowed("compute_forces"),
            value: 0x40_2000,
            size: 128,
            binding: SymbolBinding::Global,
            sym_type: SymbolType::Func,
            shndx: 2,
        };
        let bytes = sym.to_bytes(1);
        let parsed = Symbol::parse(&bytes, 0, &StringTable::new(strtab)).unwrap();
        assert_eq!(parsed, sym);
        assert!(parsed.is_defined());
        assert!(parsed.is_global());
    }

    #[test]
    fn undefined_symbol_detected() {
        let sym = Symbol {
            name: Cow::Borrowed("malloc"),
            value: 0,
            size: 0,
            binding: SymbolBinding::Global,
            sym_type: SymbolType::NoType,
            shndx: SHN_UNDEF,
        };
        assert!(!sym.is_defined());
    }

    #[test]
    fn truncated_symbol_rejected() {
        assert!(matches!(
            Symbol::parse(&[0u8; 10], 0, &StringTable::new(b"\0")),
            Err(BinaryError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_name_offset_yields_empty_name() {
        let sym = Symbol {
            name: Cow::Borrowed(""),
            value: 0,
            size: 0,
            binding: SymbolBinding::Local,
            sym_type: SymbolType::NoType,
            shndx: 1,
        };
        let bytes = sym.to_bytes(999);
        let parsed = Symbol::parse(&bytes, 0, &StringTable::new(b"\0short\0")).unwrap();
        assert_eq!(parsed.name, "");
    }
}
