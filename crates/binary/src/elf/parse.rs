//! Whole-file ELF parsing: [`ElfFile`].

use super::header::ElfHeader;
use super::section::{Section, StringTable};
use super::symbol::Symbol;
use super::types::*;
use crate::error::BinaryError;

/// A parsed ELF64 file: header, named sections, and symbol tables.
///
/// A view of the bytes it was parsed from: section contents and (valid
/// UTF-8) names borrow them, so parsing allocates only the section and
/// symbol lists.
#[derive(Debug, Clone)]
pub struct ElfFile<'a> {
    header: ElfHeader,
    sections: Vec<Section<'a>>,
    symbols: Vec<Symbol<'a>>,
    dynamic_symbols: Vec<Symbol<'a>>,
}

impl<'a> ElfFile<'a> {
    /// Parse an ELF64 little-endian file from `data`.
    ///
    /// Every offset and size the file declares is checked against `data`
    /// without overflow, so a hostile file yields a [`BinaryError`], never a
    /// panic.
    pub fn parse(data: &'a [u8]) -> Result<Self, BinaryError> {
        let header = ElfHeader::parse(data)?;

        let shoff = usize::try_from(header.e_shoff).unwrap_or(usize::MAX);
        let room = data.len().saturating_sub(shoff) / SHDR_SIZE;
        let mut sections = Vec::with_capacity(usize::from(header.e_shnum).min(room));
        for i in 0..usize::from(header.e_shnum) {
            let off = shoff.saturating_add(i * SHDR_SIZE);
            sections.push(Section::parse(data, off, i)?);
        }

        // Resolve section names through the section-header string table.
        if header.e_shnum > 0 {
            let shstrtab = sections
                .get(usize::from(header.e_shstrndx))
                .ok_or(BinaryError::BadShStrNdx(header.e_shstrndx))?
                .data;
            let shstrtab = StringTable::new(shstrtab);
            for sec in &mut sections {
                sec.name = shstrtab.get(sec.name_offset as usize).unwrap_or_default();
            }
        }

        let symbols = Self::load_symbols(&sections, SHT_SYMTAB)?;
        let dynamic_symbols = Self::load_symbols(&sections, SHT_DYNSYM)?;

        Ok(Self {
            header,
            sections,
            symbols,
            dynamic_symbols,
        })
    }

    fn load_symbols(
        sections: &[Section<'a>],
        table_type: u32,
    ) -> Result<Vec<Symbol<'a>>, BinaryError> {
        let mut out = Vec::new();
        for sec in sections.iter().filter(|s| s.sh_type == table_type) {
            if sec.entsize != 0 && sec.entsize != SYM_SIZE as u64 {
                return Err(BinaryError::BadSymbolEntrySize(sec.entsize));
            }
            let strtab = StringTable::new(sections.get(sec.link as usize).map_or(&[], |s| s.data));
            let count = sec.data.len() / SYM_SIZE;
            out.reserve(count);
            for i in 0..count {
                out.push(Symbol::parse(sec.data, i * SYM_SIZE, &strtab)?);
            }
        }
        Ok(out)
    }

    /// The parsed file header.
    pub fn header(&self) -> &ElfHeader {
        &self.header
    }

    /// All sections, in header-table order (index 0 is the null section).
    pub fn sections(&self) -> &[Section<'a>] {
        &self.sections
    }

    /// Find a section by exact name.
    pub fn section_by_name(&self, name: &str) -> Option<&Section<'a>> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Symbols from `.symtab` (empty for stripped binaries).
    pub fn symbols(&self) -> &[Symbol<'a>] {
        &self.symbols
    }

    /// Symbols from `.dynsym`.
    pub fn dynamic_symbols(&self) -> &[Symbol<'a>] {
        &self.dynamic_symbols
    }

    /// Whether the file still carries a static symbol table. The paper's
    /// approach requires an intact symbol table; stripped binaries are
    /// excluded from the dataset (Section 3, Data Collection).
    pub fn has_symbol_table(&self) -> bool {
        !self.symbols.is_empty()
    }

    /// Whether the given section index refers to an executable section.
    pub fn section_is_executable(&self, index: u16) -> bool {
        usize::from(index) < self.sections.len()
            && self.sections[usize::from(index)].is_executable()
    }

    /// Total size of all section contents (a size sanity metric used in
    /// corpus statistics).
    pub fn total_section_bytes(&self) -> usize {
        self.sections.iter().map(|s| s.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elf::build::ElfBuilder;

    fn sample_elf() -> Vec<u8> {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 256]);
        b.add_rodata_section(b"hello world strings content\0".to_vec());
        b.add_data_section(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        b.add_global_function("main_loop", 0x10, 64);
        b.add_global_function("init_solver", 0x50, 32);
        b.add_global_object("solver_config", 0x0, 8);
        b.add_local_function("helper_internal", 0x90, 16);
        b.build()
    }

    #[test]
    fn parse_built_elf() {
        let bytes = sample_elf();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert!(elf.header().is_executable_like());
        assert!(elf.section_by_name(".text").is_some());
        assert!(elf.section_by_name(".rodata").is_some());
        assert!(elf.section_by_name(".symtab").is_some());
        assert!(elf.has_symbol_table());
        // 1 null symbol + 4 added symbols
        assert_eq!(elf.symbols().len(), 5);
    }

    #[test]
    fn section_names_resolved() {
        let bytes = sample_elf();
        let elf = ElfFile::parse(&bytes).unwrap();
        let names: Vec<&str> = elf.sections().iter().map(|s| &*s.name).collect();
        assert!(names.contains(&".text"));
        assert!(names.contains(&".shstrtab"));
        assert!(names.contains(&".strtab"));
    }

    #[test]
    fn symbol_contents_roundtrip() {
        let bytes = sample_elf();
        let elf = ElfFile::parse(&bytes).unwrap();
        let main_loop = elf
            .symbols()
            .iter()
            .find(|s| s.name == "main_loop")
            .unwrap();
        assert!(main_loop.is_global());
        assert!(main_loop.is_defined());
        assert_eq!(main_loop.size, 64);
        let helper = elf
            .symbols()
            .iter()
            .find(|s| s.name == "helper_internal")
            .unwrap();
        assert!(!helper.is_global());
    }

    #[test]
    fn rejects_truncated_file() {
        let bytes = sample_elf();
        assert!(ElfFile::parse(&bytes[..40]).is_err());
        // Cutting into the section header table must also fail cleanly.
        assert!(ElfFile::parse(&bytes[..bytes.len() - 10]).is_err());
    }

    #[test]
    fn rejects_non_elf() {
        assert_eq!(
            ElfFile::parse(b"#!/bin/bash\necho hi\n").unwrap_err(),
            BinaryError::BadMagic
        );
    }

    #[test]
    fn empty_symbols_when_none_added() {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0xC3; 16]);
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).unwrap();
        // Only the null symbol entry exists.
        assert_eq!(elf.symbols().len(), 1);
    }

    #[test]
    fn total_section_bytes_counts_contents() {
        let bytes = sample_elf();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert!(elf.total_section_bytes() >= 256 + 29 + 8);
    }

    #[test]
    fn section_is_executable_by_index() {
        let bytes = sample_elf();
        let elf = ElfFile::parse(&bytes).unwrap();
        let text_idx = elf
            .sections()
            .iter()
            .position(|s| s.name == ".text")
            .unwrap() as u16;
        assert!(elf.section_is_executable(text_idx));
        assert!(!elf.section_is_executable(0));
        assert!(!elf.section_is_executable(999));
    }
}
