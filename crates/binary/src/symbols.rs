//! Global-symbol extraction — the `nm(1)` equivalent.
//!
//! The paper's third (and most important, per its Table 5) fuzzy-hash feature
//! is "the global text symbols extracted using the nm command (function and
//! variable names in the symbol table)". This module reproduces the parts of
//! `nm` the pipeline depends on:
//!
//! * [`symbol_class`] assigns the single-letter class `nm` prints
//!   (`T` text, `D` data, `B` bss, `A` absolute, `U` undefined, lowercase for
//!   local binding).
//! * [`global_defined_symbols`] lists defined global symbols sorted by name,
//!   matching `nm -g --defined-only | sort` (nm sorts alphabetically by
//!   default).
//! * [`symbols_blob`] renders the newline-joined name list that the
//!   `ssdeep-symbols` feature hashes.

use crate::elf::{ElfFile, Symbol, SymbolBinding, SymbolType};

/// A symbol as `nm` would report it: name plus single-letter class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NmSymbol {
    /// Symbol name.
    pub name: String,
    /// `nm` class letter (`T`, `D`, `B`, `A`, `U`, ... lowercase if local).
    pub class: char,
    /// Symbol value (address).
    pub value: u64,
}

/// Compute the `nm` class letter for `sym` within `elf`.
pub fn symbol_class(elf: &ElfFile, sym: &Symbol) -> char {
    use crate::elf::types::{SHN_ABS, SHN_UNDEF};
    let upper = if !sym.is_defined() || sym.shndx == SHN_UNDEF {
        'U'
    } else if sym.shndx == SHN_ABS {
        'A'
    } else {
        let section = elf.sections().get(usize::from(sym.shndx));
        match section {
            Some(s) if s.is_executable() => 'T',
            Some(s) if s.is_bss() => 'B',
            Some(s) if s.is_writable_data() => 'D',
            Some(_) => {
                // Read-only data and anything else allocatable reports as 'R'
                // in nm; treat non-alloc oddities as 'N'.
                'R'
            }
            None => '?',
        }
    };
    match sym.binding {
        SymbolBinding::Local if upper != 'U' => upper.to_ascii_lowercase(),
        SymbolBinding::Weak if upper == 'T' => 'W',
        _ => upper,
    }
}

/// All *defined global* symbols of `elf`, sorted by name — the output of
/// `nm -g --defined-only <file> | sort`, skipping section/file pseudo-symbols.
pub fn global_defined_symbols(elf: &ElfFile) -> Vec<NmSymbol> {
    let mut out: Vec<NmSymbol> = elf
        .symbols()
        .iter()
        .filter(|s| is_listed(s))
        .map(|s| NmSymbol {
            name: s.name.to_string(),
            class: symbol_class(elf, s),
            value: s.value,
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Whether `nm -g --defined-only` lists `sym`.
fn is_listed(sym: &Symbol) -> bool {
    sym.is_defined()
        && sym.is_global()
        && !sym.name.is_empty()
        && sym.sym_type != SymbolType::Section
        && sym.sym_type != SymbolType::File
}

/// Only the *text* (code) symbols among the defined globals — functions the
/// application exports, which the paper highlights as the most stable
/// identity feature across versions.
pub fn global_text_symbols(elf: &ElfFile) -> Vec<NmSymbol> {
    global_defined_symbols(elf)
        .into_iter()
        .filter(|s| s.class == 'T' || s.class == 'W')
        .collect()
}

/// The newline-joined global symbol names — the byte stream the
/// `ssdeep-symbols` feature hashes (equivalent to
/// `nm -g --defined-only binary | awk '{print $3}' | ssdeep`).
///
/// The same names, in the same order, as [`global_defined_symbols`], but
/// sorted as borrowed names and written into one exactly-sized buffer.
pub fn symbols_blob(elf: &ElfFile) -> Vec<u8> {
    let mut names: Vec<&str> = elf
        .symbols()
        .iter()
        .filter(|s| is_listed(s))
        .map(|s| &*s.name)
        .collect();
    names.sort_unstable();
    let mut out = Vec::with_capacity(names.iter().map(|n| n.len() + 1).sum());
    for name in names {
        out.extend_from_slice(name.as_bytes());
        out.push(b'\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elf::ElfBuilder;

    fn sample() -> Vec<u8> {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 256]);
        b.add_data_section(vec![0u8; 64]);
        b.add_global_function("zeta_solver", 0x00, 32);
        b.add_global_function("alpha_init", 0x20, 32);
        b.add_global_object("global_config", 0x0, 16);
        b.add_local_function("static_helper", 0x40, 16);
        b.add_undefined_symbol("MPI_Send");
        b.build()
    }

    #[test]
    fn globals_are_sorted_by_name() {
        let bytes = sample();
        let elf = ElfFile::parse(&bytes).unwrap();
        let names: Vec<String> = global_defined_symbols(&elf)
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, vec!["alpha_init", "global_config", "zeta_solver"]);
    }

    #[test]
    fn undefined_and_local_symbols_excluded() {
        let bytes = sample();
        let elf = ElfFile::parse(&bytes).unwrap();
        let names: Vec<String> = global_defined_symbols(&elf)
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert!(!names.contains(&"MPI_Send".to_string()));
        assert!(!names.contains(&"static_helper".to_string()));
    }

    #[test]
    fn classes_match_nm_semantics() {
        let bytes = sample();
        let elf = ElfFile::parse(&bytes).unwrap();
        let syms = global_defined_symbols(&elf);
        let class_of = |n: &str| syms.iter().find(|s| s.name == n).unwrap().class;
        assert_eq!(class_of("alpha_init"), 'T');
        assert_eq!(class_of("zeta_solver"), 'T');
        assert_eq!(class_of("global_config"), 'D');
    }

    #[test]
    fn undefined_symbol_class_is_u() {
        let bytes = sample();
        let elf = ElfFile::parse(&bytes).unwrap();
        let mpi = elf.symbols().iter().find(|s| s.name == "MPI_Send").unwrap();
        assert_eq!(symbol_class(&elf, mpi), 'U');
    }

    #[test]
    fn local_symbol_class_is_lowercase() {
        let bytes = sample();
        let elf = ElfFile::parse(&bytes).unwrap();
        let helper = elf
            .symbols()
            .iter()
            .find(|s| s.name == "static_helper")
            .unwrap();
        assert_eq!(symbol_class(&elf, helper), 't');
    }

    #[test]
    fn text_symbols_only_contains_functions_in_text() {
        let bytes = sample();
        let elf = ElfFile::parse(&bytes).unwrap();
        let names: Vec<String> = global_text_symbols(&elf)
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, vec!["alpha_init", "zeta_solver"]);
    }

    #[test]
    fn blob_is_newline_joined_sorted_names() {
        let bytes = sample();
        let elf = ElfFile::parse(&bytes).unwrap();
        let blob = String::from_utf8(symbols_blob(&elf)).unwrap();
        assert_eq!(blob, "alpha_init\nglobal_config\nzeta_solver\n");
    }

    #[test]
    fn stripped_binary_has_empty_blob() {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0xC3; 32]);
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert!(symbols_blob(&elf).is_empty());
        assert!(global_defined_symbols(&elf).is_empty());
    }
}
