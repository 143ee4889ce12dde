//! Construction of synthetic-but-valid ELF64 executables.
//!
//! The corpus generator needs thousands of application executables with
//! controllable code bytes, embedded strings, and symbol tables. Rather than
//! mocking "a binary" with a bag of bytes, [`ElfBuilder`] assembles a real
//! ELF64 file — header, `.text` / `.rodata` / `.data` contents, `.symtab`,
//! `.strtab`, `.shstrtab`, and the section header table — so the very same
//! parser/`strings`/`nm` code paths that would run on production executables
//! run on the synthetic corpus.

use super::header::ElfHeader;
use super::section::Section;
use super::symbol::{Symbol, SymbolBinding, SymbolType};
use super::types::*;

/// Base virtual address sections are laid out from (matches the traditional
/// x86-64 non-PIE load address).
const BASE_VADDR: u64 = 0x40_0000;

/// Incrementally describes an executable, then assembles the file bytes.
#[derive(Debug, Clone, Default)]
pub struct ElfBuilder {
    text: Vec<u8>,
    rodata: Vec<u8>,
    data: Vec<u8>,
    comment: Vec<u8>,
    symbols: Vec<PendingSymbol>,
    file_type: Option<u16>,
}

#[derive(Debug, Clone)]
struct PendingSymbol {
    name: String,
    value: u64,
    size: u64,
    binding: SymbolBinding,
    sym_type: SymbolType,
    /// Which builder section the symbol belongs to.
    home: SymbolHome,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymbolHome {
    Text,
    Data,
    Undefined,
}

impl ElfBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the ELF file type (`ET_EXEC` by default; pass `ET_DYN` to emulate
    /// a position-independent executable).
    pub fn set_file_type(&mut self, e_type: u16) -> &mut Self {
        self.file_type = Some(e_type);
        self
    }

    /// Provide the contents of `.text` (machine-code bytes).
    pub fn add_text_section(&mut self, bytes: Vec<u8>) -> &mut Self {
        self.text = bytes;
        self
    }

    /// Provide the contents of `.rodata` (read-only data: embedded strings,
    /// lookup tables, ...). This is the section `strings(1)` mostly reads.
    pub fn add_rodata_section(&mut self, bytes: Vec<u8>) -> &mut Self {
        self.rodata = bytes;
        self
    }

    /// Provide the contents of `.data` (initialized writable data).
    pub fn add_data_section(&mut self, bytes: Vec<u8>) -> &mut Self {
        self.data = bytes;
        self
    }

    /// Provide the contents of `.comment` (toolchain identification, e.g.
    /// "GCC: (GNU) 10.3.0"), which real compilers always emit and which lets
    /// the corpus model "same code, different compiler" version drift.
    pub fn add_comment_section(&mut self, bytes: Vec<u8>) -> &mut Self {
        self.comment = bytes;
        self
    }

    /// Add a global function symbol at `offset` within `.text`.
    pub fn add_global_function(&mut self, name: &str, offset: u64, size: u64) -> &mut Self {
        self.symbols.push(PendingSymbol {
            name: name.to_string(),
            value: offset,
            size,
            binding: SymbolBinding::Global,
            sym_type: SymbolType::Func,
            home: SymbolHome::Text,
        });
        self
    }

    /// Add a local (static) function symbol at `offset` within `.text`.
    pub fn add_local_function(&mut self, name: &str, offset: u64, size: u64) -> &mut Self {
        self.symbols.push(PendingSymbol {
            name: name.to_string(),
            value: offset,
            size,
            binding: SymbolBinding::Local,
            sym_type: SymbolType::Func,
            home: SymbolHome::Text,
        });
        self
    }

    /// Add a global data-object symbol at `offset` within `.data`.
    pub fn add_global_object(&mut self, name: &str, offset: u64, size: u64) -> &mut Self {
        self.symbols.push(PendingSymbol {
            name: name.to_string(),
            value: offset,
            size,
            binding: SymbolBinding::Global,
            sym_type: SymbolType::Object,
            home: SymbolHome::Data,
        });
        self
    }

    /// Add an undefined (imported) symbol, e.g. a libc function the
    /// executable calls.
    pub fn add_undefined_symbol(&mut self, name: &str) -> &mut Self {
        self.symbols.push(PendingSymbol {
            name: name.to_string(),
            value: 0,
            size: 0,
            binding: SymbolBinding::Global,
            sym_type: SymbolType::NoType,
            home: SymbolHome::Undefined,
        });
        self
    }

    /// Number of symbols queued so far.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Assemble the file.
    ///
    /// Layout: ELF header, one `PT_LOAD` program header, section contents
    /// (`.text`, `.rodata`, `.data`, `.comment`, `.symtab`, `.strtab`,
    /// `.shstrtab`), then the section header table.
    pub fn build(&self) -> Vec<u8> {
        // --- String tables -------------------------------------------------
        // .strtab holds symbol names; .shstrtab holds section names.
        let mut strtab: Vec<u8> = vec![0];
        let mut sym_name_offsets: Vec<u32> = Vec::with_capacity(self.symbols.len());
        for sym in &self.symbols {
            sym_name_offsets.push(strtab.len() as u32);
            strtab.extend_from_slice(sym.name.as_bytes());
            strtab.push(0);
        }

        let section_names = [
            "",
            ".text",
            ".rodata",
            ".data",
            ".comment",
            ".symtab",
            ".strtab",
            ".shstrtab",
        ];
        let mut shstrtab: Vec<u8> = vec![0];
        let mut sec_name_offsets: Vec<u32> = Vec::with_capacity(section_names.len());
        for name in &section_names {
            if name.is_empty() {
                sec_name_offsets.push(0);
                continue;
            }
            sec_name_offsets.push(shstrtab.len() as u32);
            shstrtab.extend_from_slice(name.as_bytes());
            shstrtab.push(0);
        }

        // --- Section indices (fixed layout) --------------------------------
        const IDX_TEXT: u16 = 1;
        const IDX_DATA: u16 = 3;
        const IDX_SYMTAB: usize = 5;
        const IDX_STRTAB: usize = 6;
        const IDX_SHSTRTAB: usize = 7;
        let num_sections = section_names.len();

        // --- Symbol table bytes ---------------------------------------------
        // Entry 0 is the mandatory null symbol. Local symbols must precede
        // globals; sh_info is the index of the first non-local symbol.
        let mut ordered: Vec<(usize, &PendingSymbol)> = self.symbols.iter().enumerate().collect();
        ordered.sort_by_key(|(_, s)| match s.binding {
            SymbolBinding::Local => 0u8,
            _ => 1u8,
        });
        let first_global = 1 + ordered
            .iter()
            .filter(|(_, s)| s.binding == SymbolBinding::Local)
            .count() as u32;

        let mut symtab: Vec<u8> = vec![0; SYM_SIZE]; // null entry
        for (orig_idx, sym) in &ordered {
            let (shndx, vaddr_base) = match sym.home {
                SymbolHome::Text => (IDX_TEXT, BASE_VADDR + EHDR_SIZE as u64 + PHDR_SIZE as u64),
                SymbolHome::Data => (IDX_DATA, 0),
                SymbolHome::Undefined => (SHN_UNDEF, 0),
            };
            let entry = Symbol {
                name: sym.name.as_str().into(),
                value: if sym.home == SymbolHome::Undefined {
                    0
                } else {
                    vaddr_base + sym.value
                },
                size: sym.size,
                binding: sym.binding,
                sym_type: sym.sym_type,
                shndx,
            };
            symtab.extend_from_slice(&entry.to_bytes(sym_name_offsets[*orig_idx]));
        }

        // --- File layout -----------------------------------------------------
        let phoff = EHDR_SIZE;
        let contents_start = EHDR_SIZE + PHDR_SIZE;
        let section_payloads: [&[u8]; 7] = [
            &self.text,
            &self.rodata,
            &self.data,
            &self.comment,
            &symtab,
            &strtab,
            &shstrtab,
        ];
        let mut offsets = [0usize; 7];
        let mut cursor = contents_start;
        for (i, payload) in section_payloads.iter().enumerate() {
            // Align each section to 8 bytes to keep readers happy.
            cursor = (cursor + 7) & !7;
            offsets[i] = cursor;
            cursor += payload.len();
        }
        let shoff = (cursor + 7) & !7;

        // --- Section headers --------------------------------------------------
        let make_section = |idx: usize,
                            sh_type: u32,
                            flags: u64,
                            addr: u64,
                            link: u32,
                            info: u32,
                            entsize: u64| Section {
            name: section_names[idx].into(),
            name_offset: sec_name_offsets[idx],
            sh_type,
            flags,
            addr,
            offset: if idx == 0 { 0 } else { offsets[idx - 1] as u64 },
            size: if idx == 0 {
                0
            } else {
                section_payloads[idx - 1].len() as u64
            },
            link,
            info,
            addralign: if idx == 0 { 0 } else { 8 },
            entsize,
            data: &[],
        };

        let text_vaddr = BASE_VADDR + contents_start as u64;
        let sections = [
            make_section(0, SHT_NULL, 0, 0, 0, 0, 0),
            make_section(
                1,
                SHT_PROGBITS,
                SHF_ALLOC | SHF_EXECINSTR,
                text_vaddr,
                0,
                0,
                0,
            ),
            make_section(
                2,
                SHT_PROGBITS,
                SHF_ALLOC,
                BASE_VADDR + offsets[1] as u64,
                0,
                0,
                0,
            ),
            make_section(
                3,
                SHT_PROGBITS,
                SHF_ALLOC | SHF_WRITE,
                BASE_VADDR + offsets[2] as u64,
                0,
                0,
                0,
            ),
            make_section(4, SHT_PROGBITS, 0, 0, 0, 0, 0),
            make_section(
                IDX_SYMTAB,
                SHT_SYMTAB,
                0,
                0,
                IDX_STRTAB as u32,
                first_global,
                SYM_SIZE as u64,
            ),
            make_section(IDX_STRTAB, SHT_STRTAB, 0, 0, 0, 0, 0),
            make_section(IDX_SHSTRTAB, SHT_STRTAB, 0, 0, 0, 0, 0),
        ];

        // --- Header ------------------------------------------------------------
        let header = ElfHeader {
            e_type: self.file_type.unwrap_or(ET_EXEC),
            e_machine: EM_X86_64,
            e_entry: text_vaddr,
            e_phoff: phoff as u64,
            e_shoff: shoff as u64,
            e_flags: 0,
            e_phnum: 1,
            e_shnum: num_sections as u16,
            e_shstrndx: IDX_SHSTRTAB as u16,
        };

        // --- Assemble -----------------------------------------------------------
        let total = shoff + num_sections * SHDR_SIZE;
        let mut out = vec![0u8; total];
        out[..EHDR_SIZE].copy_from_slice(&header.to_bytes());
        out[phoff..phoff + PHDR_SIZE].copy_from_slice(&self.program_header(cursor as u64));
        for (i, payload) in section_payloads.iter().enumerate() {
            out[offsets[i]..offsets[i] + payload.len()].copy_from_slice(payload);
        }
        for (i, sec) in sections.iter().enumerate() {
            let off = shoff + i * SHDR_SIZE;
            out[off..off + SHDR_SIZE].copy_from_slice(&sec.header_bytes());
        }
        out
    }

    /// A single `PT_LOAD` program header mapping the whole file.
    fn program_header(&self, file_size: u64) -> [u8; PHDR_SIZE] {
        const PT_LOAD: u32 = 1;
        const PF_R: u32 = 4;
        const PF_X: u32 = 1;
        let mut out = [0u8; PHDR_SIZE];
        out[0..4].copy_from_slice(&PT_LOAD.to_le_bytes());
        out[4..8].copy_from_slice(&(PF_R | PF_X).to_le_bytes());
        out[8..16].copy_from_slice(&0u64.to_le_bytes()); // p_offset
        out[16..24].copy_from_slice(&BASE_VADDR.to_le_bytes()); // p_vaddr
        out[24..32].copy_from_slice(&BASE_VADDR.to_le_bytes()); // p_paddr
        out[32..40].copy_from_slice(&file_size.to_le_bytes()); // p_filesz
        out[40..48].copy_from_slice(&file_size.to_le_bytes()); // p_memsz
        out[48..56].copy_from_slice(&0x1000u64.to_le_bytes()); // p_align
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elf::parse::ElfFile;

    #[test]
    fn empty_builder_still_produces_valid_elf() {
        let bytes = ElfBuilder::new().build();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert_eq!(elf.sections().len(), 8);
        assert_eq!(elf.symbols().len(), 1); // just the null symbol
    }

    #[test]
    fn sections_carry_their_contents() {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0xAB; 100]);
        b.add_rodata_section(b"read only".to_vec());
        b.add_data_section(vec![9; 33]);
        b.add_comment_section(b"GCC: (GNU) 12.2.0\0".to_vec());
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert_eq!(elf.section_by_name(".text").unwrap().data, vec![0xAB; 100]);
        assert_eq!(elf.section_by_name(".rodata").unwrap().data, b"read only");
        assert_eq!(elf.section_by_name(".data").unwrap().data.len(), 33);
        assert!(
            String::from_utf8_lossy(elf.section_by_name(".comment").unwrap().data).contains("GCC")
        );
    }

    #[test]
    fn locals_precede_globals_in_symtab() {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 64]);
        b.add_global_function("gfun", 0, 8);
        b.add_local_function("lfun", 8, 8);
        b.add_global_object("gobj", 0, 4);
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).unwrap();
        let syms = elf.symbols();
        // null, then locals, then globals
        assert_eq!(syms[0].name, "");
        assert_eq!(syms[1].name, "lfun");
        assert!(syms[2].is_global());
        assert!(syms[3].is_global());
    }

    #[test]
    fn undefined_symbols_have_shn_undef() {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0xC3; 8]);
        b.add_undefined_symbol("MPI_Init");
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).unwrap();
        let mpi = elf.symbols().iter().find(|s| s.name == "MPI_Init").unwrap();
        assert!(!mpi.is_defined());
    }

    #[test]
    fn file_type_can_be_pie() {
        let mut b = ElfBuilder::new();
        b.set_file_type(ET_DYN);
        b.add_text_section(vec![0x90; 16]);
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert_eq!(elf.header().e_type, ET_DYN);
        assert!(elf.header().is_executable_like());
    }

    #[test]
    fn deterministic_output() {
        let mut b = ElfBuilder::new();
        b.add_text_section((0..255u8).collect());
        b.add_global_function("f", 0, 16);
        assert_eq!(b.build(), b.build());
    }

    #[test]
    fn symbol_count_reflects_additions() {
        let mut b = ElfBuilder::new();
        assert_eq!(b.symbol_count(), 0);
        b.add_global_function("a", 0, 1);
        b.add_undefined_symbol("b");
        assert_eq!(b.symbol_count(), 2);
    }

    #[test]
    fn text_symbols_point_into_executable_section() {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 128]);
        b.add_global_function("kernel_main", 0x20, 32);
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).unwrap();
        let sym = elf
            .symbols()
            .iter()
            .find(|s| s.name == "kernel_main")
            .unwrap();
        assert!(elf.section_is_executable(sym.shndx));
    }
}
